"""The serving-oriented streaming pipeline.

:class:`StreamingSentimentEngine` wires the layers below it into one
ingestion-to-inference API whose per-step cost scales with the delta,
not the history:

- **ingest(tweets)** enqueues raw tweets in O(1) onto a bounded queue
  drained by a dedicated ingest worker (:class:`~repro.engine.pipeline.
  IngestPipeline`), which tokenizes each text exactly once into the
  :class:`~repro.graph.incremental.IncrementalTripartiteBuilder` and
  grows the shared vocabulary append-only — producers never block on
  tokenization, and ``flush()`` waits until the queue is drained;
- **advance_snapshot()** barriers on the ingest queue, assembles the
  buffered delta into a :class:`~repro.graph.tripartite.
  TripartiteGraph` (single COO→CSR conversion per matrix) and runs one
  :class:`~repro.core.online.OnlineTriClustering` step (Algorithm 2,
  warm-started from decayed history, shared-product
  :class:`~repro.core.sweepcache.SweepCache` inside).  Sharding is a
  setting of that one solver, built from ``config.sharding``: by
  default the step is one shard solved inline; with ``n_shards > 1`` or
  another backend the same sweep loop runs over user-partition shards
  on a worker pool and merges the per-shard user sentiments back into
  one model (``ShardedOnlineTriClustering`` is an alias of the solver);
- **classify(texts)** scores arbitrary texts between snapshots via
  micro-batched fold-in against the latest factors, with an LRU cache
  (:class:`~repro.engine.cache.FoldInCache`) absorbing repeated queries
  — retweets and slogans dominate real traffic.

Configuration is one typed object: :class:`~repro.engine.config.
EngineConfig` (validated at construction, ``to_dict``/``from_dict``
round-trip, persisted verbatim by checkpoints).  The pre-config
flat-kwargs constructor completed its one-release deprecation and is
gone.  For typed request/response serving on top of this engine, see
:class:`~repro.engine.service.SentimentService`.

Cluster columns are mapped to sentiment classes with the lexicon
alignment of :mod:`repro.core.labeling` after every snapshot, so
``classify`` returns actual :class:`~repro.data.tweet.Sentiment` ids,
not anonymous cluster ids.

Thread model: one re-entrant serve lock serializes the three mutators
of shared state — the ingest worker's per-batch builder step, the
model commit inside ``advance_snapshot``, and the vectorize/fold-in
section of ``classify`` — so any number of producer and consumer
threads can hit one engine concurrently (regression-tested).  Classify
micro-batches still fan out across the worker pool *inside* the lock;
what is serialized is ingestion against serving, never the fold-in
arithmetic itself.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.inference import infer_tweet_memberships
from repro.core.kernels import resolve_kernel_name
from repro.core.labeling import apply_alignment, lexicon_column_alignment
from repro.core.online import OnlineStepResult, OnlineTriClustering
from repro.core.spmm import resolve_spmm, resolve_spmm_name
from repro.core.state import FactorSet
from repro.data.tweet import Tweet, UserProfile
from repro.engine.cache import FoldInCache
from repro.engine.config import EngineConfig, ShardingConfig, SolverConfig
from repro.engine.pipeline import IngestPipeline
from repro.graph.incremental import IncrementalTripartiteBuilder
from repro.graph.tripartite import TripartiteGraph
from repro.text.lexicon import SentimentLexicon
from repro.text.vectorizer import CountVectorizer, TfidfVectorizer
from repro.utils.executor import WorkerPool
from repro.utils.logging import get_logger

logger = get_logger("engine.streaming")


@dataclass
class SnapshotReport:
    """What one ``advance_snapshot`` call did, for telemetry/benchmarks."""

    index: int
    num_tweets: int
    num_users: int
    num_features: int
    iterations: int
    converged: bool
    build_seconds: float
    solve_seconds: float
    #: Worker-pool traffic/timing for the solve (a
    #: :meth:`~repro.utils.executor.PoolTelemetry.delta` dict: exchange
    #: rounds, commands, bytes up/down, send/wait seconds, ...).
    pool_telemetry: dict | None = None

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.solve_seconds


class StreamingSentimentEngine:
    """End-to-end streaming sentiment service over Algorithm 2.

    Parameters
    ----------
    config:
        An :class:`~repro.engine.config.EngineConfig` (or its
        ``to_dict`` form).  ``None`` means all defaults.  Every knob
        that used to be a flat constructor kwarg lives here — solver
        hyperparameters under ``config.solver``, shard/backend
        execution under ``config.sharding``, the classify path under
        ``config.serving``, and async-ingestion behaviour under
        ``config.ingest``.
    lexicon:
        Seed sentiment lexicon.  Enables the ``Sf0`` prior per snapshot
        and the cluster-column → sentiment-class alignment; without it,
        ``classify`` returns raw cluster ids.
    vectorizer:
        Shared vectorizer whose vocabulary grows across snapshots
        (default: a fresh :class:`~repro.text.vectorizer.TfidfVectorizer`
        in incremental mode).
    solver:
        A pre-configured :class:`~repro.core.online.OnlineTriClustering`
        (its sharding settings included); when ``None`` one is built
        from the config.  Mutually exclusive with non-default
        ``config.solver`` and with ``config.sharding``'s
        shard/backend fields — configure sharding on the solver
        instance instead (the engine adopts its settings).

    The engine owns a worker pool sized by ``config.sharding.
    max_workers``, shared by classify micro-batching and the
    thread-backend sharded solve; under ``backend="socket"`` (the
    ``python -m repro worker`` servers named by
    ``config.sharding.workers``) the solve instead gets a dedicated
    engine-owned pool whose worker connections — and their resident
    shard blocks — persist across snapshots.  ``close()`` (or using the
    engine as a context manager) releases the ingest worker, the
    threads and the worker connections; closing is terminal.
    """

    def __init__(
        self,
        config: EngineConfig | dict | None = None,
        *,
        lexicon: SentimentLexicon | None = None,
        vectorizer: CountVectorizer | None = None,
        solver: OnlineTriClustering | None = None,
    ) -> None:
        if isinstance(config, SentimentLexicon):
            # The pre-config signature's first positional was the
            # lexicon; its one-release deprecation shim is gone — point
            # stragglers at the keyword instead of a generic TypeError.
            raise TypeError(
                "the first positional argument is the EngineConfig; pass "
                "the lexicon as StreamingSentimentEngine(lexicon=...)"
            )
        if config is None:
            config = EngineConfig()
        elif isinstance(config, dict):
            config = EngineConfig.from_dict(config)
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig or dict, got "
                f"{type(config).__name__}"
            )
        self.config = config

        self.builder = IncrementalTripartiteBuilder(
            vectorizer=vectorizer,
            lexicon=lexicon,
            num_classes=config.num_classes,
        )
        sharding = config.sharding
        if solver is not None:
            # max_workers stays settable: it also sizes the classify pool.
            conflicts = [
                name for name in ("n_shards", "backend")
                if getattr(sharding, name) != getattr(ShardingConfig, name)
            ]
            if config.solver != SolverConfig():
                conflicts.insert(0, "solver settings")
            if conflicts:
                raise ValueError(
                    "pass either a solver instance or "
                    f"{', '.join(conflicts)}, not both (configure them on "
                    "the solver)"
                )
            self.solver = solver
        else:
            self.solver = OnlineTriClustering(
                num_classes=config.num_classes,
                seed=config.seed,
                **asdict(config.solver),
                **asdict(sharding),
            )
        if self.solver.num_classes != config.num_classes:
            raise ValueError(
                f"solver has num_classes={self.solver.num_classes} but the "
                f"engine was configured with num_classes={config.num_classes}; "
                "pass matching values"
            )
        self.n_shards = self.solver.n_shards
        self.backend = self.solver.backend
        self.max_workers = sharding.max_workers
        classify_workers = (
            sharding.max_workers
            if sharding.max_workers is not None
            else (1 if self.n_shards == 1 else None)
        )
        self._pool = WorkerPool(classify_workers)
        self._solver_pool: WorkerPool | None = None
        # An engine-built solver always runs on an engine-owned pool; a
        # user-supplied one only when it didn't pin its own worker count
        # (respect explicit config — it then opens a pool of its
        # configured backend per partial_fit).  Thread solves share the
        # classify pool (a one-shard solve still runs inline); a socket
        # solve gets a dedicated pool so classify stays on threads while
        # the worker connections (and their resident shard blocks)
        # persist across snapshots.
        if self.solver.pool is None and (
            solver is None or self.solver.max_workers is None
        ):
            # repro-lint: disable=REP006 -- pool-ownership dispatch on
            # the validated backend (dedicated pool for socket workers),
            # not name resolution.
            if self.backend == "socket":
                self._solver_pool = WorkerPool(
                    backend="socket", workers=self.solver.workers
                )
                # Connect now: an unreachable worker should fail
                # construction, not the first snapshot.
                self._solver_pool.prestart()
                self.solver.pool = self._solver_pool
            # repro-lint: disable=REP006 -- see the branch above.
            elif self.backend == "thread":
                self.solver.pool = self._pool
        self.cache = FoldInCache(maxsize=config.serving.cache_size)
        self.classify_iterations = config.serving.classify_iterations
        self.classify_batch_size = config.serving.classify_batch_size
        # Serving fold-in runs the same spmm engine as the solver, so
        # the spmm=/spmm_threads= knobs accelerate classify traffic too.
        # Engines are float64 bit-identical, so memberships never depend
        # on the choice.
        self._serve_spmm = resolve_spmm(
            self.solver.spmm, self.solver.spmm_threads
        )
        self._classify_seed = 0 if config.seed is None else int(config.seed)
        self._factors: FactorSet | None = None
        self._alignment: np.ndarray | None = None
        self._tweet_gram: np.ndarray | None = None
        self._last_step: OnlineStepResult | None = None
        self._last_graph: TripartiteGraph | None = None
        self._reports: list[SnapshotReport] = []
        # The serve lock serializes builder mutation (ingest worker),
        # model commits (advance_snapshot) and the vectorize/fold-in
        # section of classify — see the module docstring's thread model.
        self._serve_lock = threading.RLock()
        # Created last: the pipeline starts the ingest worker thread, so
        # a constructor that raises above leaves no thread behind.
        self._ingest = IngestPipeline(
            self._ingest_batch,
            max_queued_batches=config.ingest.max_queued_batches,
            overflow=config.ingest.overflow,
        )

    # ------------------------------------------------------------------ #
    # Ingestion → model
    # ------------------------------------------------------------------ #

    def _ingest_batch(
        self,
        tweets: list[Tweet],
        users: list[UserProfile] | None,
    ) -> None:
        """One batch of the synchronous ingestion step (worker-side).

        If ingestion grows the vocabulary, the classify cache is
        dropped: classify-time transforms of *known* words re-weight
        against the refreshed idf, so rows cached before the growth
        would disagree with rows computed after it.
        """
        with self._serve_lock:
            width_before = self.builder.num_features
            self.builder.ingest(tweets, users=users)
            if self.builder.num_features != width_before:
                self.cache.clear()

    def ingest(
        self,
        tweets: Iterable[Tweet],
        users: Iterable[UserProfile] | None = None,
        block: bool = True,
    ) -> int:
        """Queue tweets for the next snapshot; returns the accepted count.

        Non-blocking: the call enqueues the batch in O(1) and a
        dedicated worker tokenizes it off-thread.  ``block`` controls
        backpressure when the queue is full: ``True`` waits for space;
        ``False`` applies ``config.ingest.overflow`` — raise
        :class:`~repro.engine.pipeline.IngestQueueFull` or drop the
        batch (returning 0).
        """
        return self._ingest.submit(tweets, users=users, block=block)

    def flush(self) -> int:
        """Barrier: wait until every queued batch is tokenized.

        Returns the number of tweets now buffered for the next
        snapshot.  ``advance_snapshot`` calls this implicitly; it is
        public for producers that need the vocabulary (``num_features``)
        or ``pending`` to reflect everything they submitted.
        """
        self._ingest.flush()
        return self.builder.pending

    def advance_snapshot(self, name: str | None = None) -> SnapshotReport:
        """Fold the buffered delta into the model (one Algorithm 2 step).

        Drains the ingest queue first (the barrier producers rely on),
        then raises :class:`ValueError` when nothing was ingested since
        the previous snapshot.  Invalidates the classify cache — cached
        fold-in rows belong to the superseded factors.
        """
        started = time.perf_counter()
        self._ingest.flush()
        with self._serve_lock:
            graph = self.builder.build_snapshot(name=name)
            built = time.perf_counter()
            step = self.solver.partial_fit(graph)
            solved = time.perf_counter()

            self._factors = step.factors
            self._last_step = step
            self._last_graph = graph
            previous_alignment = self._alignment
            if graph.sf0 is not None:
                self._alignment = lexicon_column_alignment(
                    step.factors.sf, graph.sf0
                )
            else:
                self._alignment = np.arange(step.factors.num_classes)
            if previous_alignment is not None and not np.array_equal(
                previous_alignment, self._alignment
            ):
                # Warm starts keep cluster columns sticky across
                # snapshots; a permutation flip means the solver's
                # carried user state (blended in raw cluster space)
                # straddles two semantics.
                logger.warning(
                    "cluster-to-class alignment changed at snapshot %d "
                    "(%s -> %s); user_sentiments() for users absent from "
                    "recent snapshots may be relabeled inconsistently",
                    step.snapshot_index,
                    previous_alignment.tolist(),
                    self._alignment.tolist(),
                )
            # The serving gram Hp·(SfᵀSf)·Hpᵀ is fixed until the next
            # snapshot; computing it once here keeps the O(l·k²)
            # reduction out of every classify micro-batch.
            self._tweet_gram = step.factors.hp @ (
                step.factors.sf.T @ step.factors.sf
            ) @ step.factors.hp.T
            self.cache.clear()

        report = SnapshotReport(
            index=step.snapshot_index,
            num_tweets=graph.num_tweets,
            num_users=graph.num_users,
            num_features=graph.num_features,
            iterations=step.iterations,
            converged=step.converged,
            build_seconds=built - started,
            solve_seconds=solved - built,
            pool_telemetry=self.solver.last_telemetry,
        )
        self._reports.append(report)
        logger.debug(
            "snapshot %d: %d tweets / %d users / %d features, "
            "build %.3fs solve %.3fs",
            report.index, report.num_tweets, report.num_users,
            report.num_features, report.build_seconds, report.solve_seconds,
        )
        return report

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def classify_memberships(self, texts: Sequence[str]) -> np.ndarray:
        """Soft class memberships for ``texts``, shape ``(len(texts), k)``.

        Columns are in sentiment-class order (pos/neg/neu) when a lexicon
        is configured.  A text with no in-vocabulary words yields an
        all-zero row — "no evidence", distinguishable from a confident
        neutral.  Repeated texts are answered from the LRU cache;
        uncached ones are vectorized and folded in per micro-batch, with
        the micro-batches fanned across the engine's worker pool.  Rows
        are batch-invariant (fold-in is row-independent), so the result
        is identical at any pool width.  Safe to call concurrently with
        ``ingest`` from any thread: the serve lock pins one consistent
        (vocabulary, factors) pair per call.
        """
        with self._serve_lock:
            factors = self._require_model()
            alignment = self._alignment
            assert alignment is not None
            results: dict[str, np.ndarray] = {}
            uncached: list[str] = []
            for text in dict.fromkeys(texts):  # unique, first-seen order
                row = self.cache.get(text)
                if row is not None:
                    results[text] = row
                else:
                    uncached.append(text)

            vectorizer = self.builder.vectorizer
            if (
                isinstance(vectorizer, TfidfVectorizer)
                and vectorizer.idf_size != self.num_features
            ):
                # Refresh once, serially: transform would otherwise
                # refresh lazily inside every worker, racing on the
                # shared idf.
                vectorizer.refresh_idf()

            def fold_in(chunk: list[str]) -> np.ndarray:
                matrix = vectorizer.transform(chunk)
                if matrix.shape[1] > factors.num_features:
                    # Vocabulary grew after the last snapshot (ingest
                    # without advance); append-only growth makes the
                    # learned factors a row-aligned prefix, so the extra
                    # columns carry no model weight and are dropped.
                    matrix = matrix[:, : factors.num_features].tocsr()
                memberships = infer_tweet_memberships(
                    matrix,
                    factors,
                    iterations=self.classify_iterations,
                    seed=self._classify_seed,
                    gram=self._tweet_gram,
                    spmm=self._serve_spmm,
                )
                aligned = np.empty_like(memberships)
                aligned[:, alignment] = memberships
                return aligned

            batch = self.classify_batch_size
            chunks = [
                uncached[offset : offset + batch]
                for offset in range(0, len(uncached), batch)
            ]
            for chunk, aligned in zip(chunks, self._pool.map(fold_in, chunks)):
                for text, row in zip(chunk, aligned):
                    self.cache.put(text, row)
                    results[text] = row

            if not texts:
                return np.empty((0, factors.num_classes))
            return np.vstack([results[text] for text in texts])

    def classify(self, texts: Sequence[str]) -> np.ndarray:
        """Hard sentiment id per text (``Sentiment`` order with a lexicon).

        Texts with no in-vocabulary evidence get ``-1``.
        """
        memberships = self.classify_memberships(texts)
        labels = np.argmax(memberships, axis=1).astype(np.int64)
        labels[~memberships.any(axis=1)] = -1
        return labels

    def user_sentiments(self) -> dict[int, int]:
        """Latest aligned sentiment class per user ever seen.

        Relabels the solver's carried per-user state with the *latest*
        snapshot's cluster-to-class alignment.  Warm starts keep that
        alignment stable in practice; if it ever flips, the engine logs
        a warning at ``advance_snapshot`` time (rows carried from
        earlier snapshots would straddle the old and new semantics).
        """
        with self._serve_lock:
            self._require_model()
            assert self._alignment is not None
            raw = self.solver.user_sentiment_labels()
            if not raw:
                return {}
            uids = list(raw)
            aligned = apply_alignment(
                np.array([raw[uid] for uid in uids]), self._alignment
            )
            return {uid: int(label) for uid, label in zip(uids, aligned)}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the ingest worker and pools (idempotent, terminal).

        Drains and stops the ingest pipeline, then shuts the worker
        pools (threads and worker connections) down.  Closing is
        **terminal**: the pipeline and pools refuse further work rather
        than silently resurrecting threads or reconnecting workers, so a
        closed engine no longer ingests or serves.  Long-lived
        processes that retire an engine should close it rather than
        hold idle workers.
        """
        self._ingest.close()
        self._pool.shutdown()
        if self._solver_pool is not None:
            self._solver_pool.shutdown()

    def __enter__(self) -> "StreamingSentimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def effective_config(self) -> EngineConfig:
        """The configuration with solver sections re-derived live.

        For an engine built purely from an :class:`EngineConfig` this
        equals ``self.config``; when a pre-configured ``solver``
        instance was supplied instead, its hyperparameters and sharding
        settings are captured here — this is what checkpoints persist,
        so a restored engine rebuilds an equivalent solver either way.
        """
        solver = self.solver
        solver_config = SolverConfig(
            alpha=solver.weights.alpha,
            beta=solver.weights.beta,
            gamma=solver.weights.gamma,
            tau=solver.tau,
            window=solver.window,
            max_iterations=solver.max_iterations,
            tolerance=solver.tolerance,
            patience=solver.patience,
            state_smoothing=solver.state_smoothing,
            track_history=solver.track_history,
            # A pre-configured solver may carry a Kernel *instance*;
            # configs hold names only, so pin it to its concrete name.
            kernel=(
                solver.kernel
                if isinstance(solver.kernel, str)
                else resolve_kernel_name(solver.kernel)
            ),
            dtype=solver.dtype,
            # Same instance→name pinning for the spmm engine.
            spmm=(
                solver.spmm
                if isinstance(solver.spmm, str)
                else resolve_spmm_name(solver.spmm)
            ),
            spmm_threads=solver.spmm_threads,
        )
        sharding_config = ShardingConfig(
            n_shards=solver.n_shards,
            backend=solver.backend,
            max_workers=(
                solver.max_workers
                if solver.max_workers is not None
                else self.max_workers
            ),
            workers=solver.workers,
        )
        return self.config.replace(
            num_classes=solver.num_classes,
            solver=solver_config,
            sharding=sharding_config,
        )

    def save(self, path) -> "Path":
        """Checkpoint the engine to directory ``path`` for warm restarts.

        Flushes the ingest queue, then persists the effective
        :class:`EngineConfig`, factors, vocabulary (with idf
        statistics), alignment, and the solver's temporal/user-prior
        state via npz + JSON so a serving process can resume the stream
        bit-for-bit instead of replaying it.  Tweets buffered but not
        yet snapshotted are rejected — call :meth:`advance_snapshot`
        first.  With ``config.max_profile_age`` set, builder
        bookkeeping for long-inactive authors is compacted first.  See
        :mod:`repro.engine.persistence` for the format.
        """
        from repro.engine.persistence import save_engine

        self._ingest.flush()
        # The serve lock freezes builder/solver state for the snapshot
        # on disk: concurrent producers queue (the ingest worker blocks
        # on this same lock) instead of mutating mid-serialization.
        with self._serve_lock:
            return save_engine(self, path)

    @classmethod
    def load(cls, path) -> "StreamingSentimentEngine":
        """Rebuild an engine checkpointed by :meth:`save`."""
        from repro.engine.persistence import load_engine

        return load_engine(path)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _require_model(self) -> FactorSet:
        if self._factors is None:
            raise RuntimeError(
                "no snapshot has been processed yet; call ingest() then "
                "advance_snapshot() before classify()"
            )
        return self._factors

    @property
    def is_ready(self) -> bool:
        """Whether at least one snapshot has been folded into the model."""
        return self._factors is not None

    @property
    def vectorizer(self) -> CountVectorizer:
        return self.builder.vectorizer

    @property
    def factors(self) -> FactorSet | None:
        """The latest fitted factor set (None before the first snapshot)."""
        return self._factors

    @property
    def alignment(self) -> np.ndarray | None:
        """``perm[cluster] = sentiment class`` for the latest factors."""
        return None if self._alignment is None else self._alignment.copy()

    @property
    def last_step(self) -> OnlineStepResult | None:
        """The latest raw solver step (cluster ids, per-row bookkeeping)."""
        return self._last_step

    @property
    def last_graph(self) -> TripartiteGraph | None:
        """The latest snapshot graph (for evaluation/debugging)."""
        return self._last_graph

    @property
    def reports(self) -> list[SnapshotReport]:
        """Per-snapshot telemetry, in processing order (a copy)."""
        return list(self._reports)

    @property
    def pending(self) -> int:
        """Tweets queued or buffered since the last snapshot.

        Counts both batches still in the ingest queue and tweets
        already tokenized into the builder; transiently approximate
        while the worker is mid-batch — :meth:`flush` for an exact
        number.
        """
        return self._ingest.queued + self.builder.pending

    @property
    def dropped(self) -> int:
        """Tweets discarded by the ``"drop"`` overflow policy so far."""
        return self._ingest.dropped

    @property
    def snapshots_processed(self) -> int:
        return self.builder.snapshots_built

    @property
    def num_features(self) -> int:
        """Current (grown) vocabulary size."""
        return self.builder.num_features
