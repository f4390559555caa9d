"""Online tri-clustering — Algorithm 2.

Processes temporal snapshots one at a time, warm-starting from decayed
previous results instead of re-factorizing history:

- ``Sfw(t) = Σ_{i=1..w-1} τⁱ·Sf(t−i)`` regularizes and initializes the
  feature factor (Observation 1: word sentiment evolves slowly).
- ``Suw(t)`` does the same for *evolving* users (Observation 2: most users
  rarely change their mind quickly); *new* users are initialized randomly
  and follow the offline-style update Eq. (24); *disappeared* users keep
  their carried-forward sentiment.

Temporal user state is array-native: the carried per-user estimate and
each window entry of ``Su`` history are ``(ids, rows)`` pairs — a
strictly increasing ``int64`` user-id array and the matching row block
— so the per-snapshot bookkeeping (new/evolving split, ``Suw`` priors,
history commit, smoothed state update) is ``np.searchsorted`` and mask
arithmetic, never a loop over users.  The carried-state ids are exactly
the users seen so far (every snapshot user enters the carried state).

The solver is matrix-level: callers hand it one
:class:`~repro.graph.tripartite.TripartiteGraph` per snapshot, built
against a **shared vocabulary** so that feature rows align across time.
Each snapshot's inner loop (Algorithm 2 order: Sf, Sp, Hp, Hu, Su) is
the shared solve loop of :mod:`repro.core.sweep`.  Sharding is a
constructor setting, the same four as the offline solver's: by default
each snapshot is one shard solved inline, and ``n_shards`` > 1 or
``backend="socket"`` partitions its users onto a worker pool,
keeping every cut ``Gu`` edge as a halo block so the graph
regularizer covers the whole user graph.  The temporal state is the
same either way.
:class:`~repro.core.sharded.ShardedOnlineTriClustering` is an alias of
this class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import ConvergenceHistory, validate_stopping
from repro.core.initialization import warm_started_factors
from repro.core.kernels import resolve_dtype, validate_kernel
from repro.core.objective import ObjectiveWeights
from repro.core.spmm import validate_spmm, validate_spmm_threads
from repro.core.state import FactorSet
from repro.core.sweep import SweepPlan, validate_sharding
from repro.graph.partition import ShardedGraph
from repro.graph.tripartite import TripartiteGraph
from repro.utils.executor import WorkerPool
from repro.utils.logging import get_logger
from repro.utils.matrices import hard_assignments
from repro.utils.rng import RandomState, spawn_rng

logger = get_logger("core.online")


def _locate(keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``ids`` in the sorted ``keys``, and which are present.

    Positions of absent ids are clipped into range (never used unmasked).
    """
    positions = np.searchsorted(keys, ids)
    if keys.size == 0:
        return positions, np.zeros(ids.shape, dtype=bool)
    np.minimum(positions, keys.size - 1, out=positions)
    return positions, keys[positions] == ids


@dataclass
class OnlineStepResult:
    """Output of one ``partial_fit`` call (one snapshot)."""

    snapshot_index: int
    factors: FactorSet
    history: ConvergenceHistory
    converged: bool
    iterations: int
    user_ids: list[int]
    new_user_rows: np.ndarray
    evolving_user_rows: np.ndarray

    def tweet_sentiments(self) -> np.ndarray:
        return self.factors.tweet_clusters()

    def user_sentiments(self) -> np.ndarray:
        return self.factors.user_clusters()


class OnlineTriClustering:
    """Algorithm 2: streaming tri-clustering with temporal regularization.

    Parameters
    ----------
    alpha:
        Temporal feature-smoothness weight (paper's online best: 0.9).
    beta:
        User-graph smoothness weight (0.8, as offline).
    gamma:
        Evolving-user temporal weight (paper's best: 0.2).
    tau:
        Exponential decay of past results within the window (0.9).
    window:
        Time-window size ``w``; ``w=2`` (the paper's setting) uses only
        the previous snapshot.
    state_smoothing:
        Weight of the *previous* carried estimate when blending a user's
        new snapshot estimate into the global per-user state (evaluation
        readout and fallback prior).  0 reproduces plain overwriting.
    kernel / dtype:
        Sweep-kernel implementation and factor dtype; see
        :class:`~repro.core.offline.OfflineTriClustering` and
        :mod:`repro.core.kernels`.
    spmm / spmm_threads:
        Sparse·dense product engine and its thread budget; see
        :class:`~repro.core.offline.OfflineTriClustering` and
        :mod:`repro.core.spmm` (float64 bit-identical, speed-only).
    n_shards / max_workers / backend / workers:
        Sharding settings; see
        :class:`~repro.core.offline.OfflineTriClustering`.  On the
        socket backend a borrowed :attr:`pool` keeps its worker
        connections across snapshots.
    """

    def __init__(
        self,
        num_classes: int = 3,
        alpha: float = 0.9,
        beta: float = 0.8,
        gamma: float = 0.2,
        tau: float = 0.9,
        window: int = 2,
        max_iterations: int = 100,
        tolerance: float = 1e-5,
        patience: int = 3,
        seed: RandomState = None,
        track_history: bool = False,
        state_smoothing: float = 0.8,
        kernel: object = "auto",
        dtype: str = "float64",
        spmm: object = "auto",
        spmm_threads: int | None = None,
        n_shards: int | str = 1,
        max_workers: int | None = None,
        backend: str = "thread",
        workers=None,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        validate_stopping(max_iterations, tolerance, patience)
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not (0.0 <= state_smoothing < 1.0):
            raise ValueError(
                f"state_smoothing must be in [0, 1), got {state_smoothing}"
            )
        self.state_smoothing = state_smoothing
        self.num_classes = num_classes
        self.weights = ObjectiveWeights(alpha=alpha, beta=beta, gamma=gamma)
        self.tau = tau
        self.window = window
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.patience = patience
        self.track_history = track_history
        validate_kernel(kernel)
        self.kernel = kernel
        self.dtype = dtype
        self._np_dtype = resolve_dtype(dtype)
        validate_spmm(spmm)
        validate_spmm_threads(spmm_threads)
        self.spmm = spmm
        self.spmm_threads = spmm_threads
        self.workers = validate_sharding(
            n_shards, max_workers, backend, workers
        )
        self.n_shards = n_shards
        self.max_workers = max_workers
        self.backend = backend
        #: Optional externally-owned pool; see
        #: :attr:`~repro.core.offline.OfflineTriClustering.pool`.
        self.pool: WorkerPool | None = None
        #: The partition of the most recent partitioned snapshot solve
        #: (``None`` while every solve runs as one inline shard).
        self.last_plan: ShardedGraph | None = None
        #: Pool traffic/timing delta of the most recent snapshot solve
        #: (a :meth:`~repro.utils.executor.PoolTelemetry.delta` dict),
        #: or ``None`` before the first one.
        self.last_telemetry: dict | None = None
        self._rng = spawn_rng(seed)

        self._sf_history: deque[np.ndarray] = deque(maxlen=window - 1)
        # Su(t-1), Su(t-2), ... and the carried state as (ids, rows)
        # pairs with strictly increasing int64 ids; the carried ids are
        # the users seen so far.
        self._su_history: deque[tuple[np.ndarray, np.ndarray]] = deque(
            maxlen=window - 1
        )
        self._user_state: tuple[np.ndarray, np.ndarray] = (
            np.empty(0, dtype=np.int64),
            np.empty((0, num_classes), dtype=self._np_dtype),
        )
        self._steps = 0
        self._vocabulary_ref: object | None = None

    # ------------------------------------------------------------------ #
    # Temporal aggregates
    # ------------------------------------------------------------------ #

    def feature_prior(self, num_features: int) -> np.ndarray | None:
        """``Sfw(t) = Σ_{i=1..w-1} τⁱ·Sf(t−i)``; ``None`` before any step.

        The feature dimension may *grow* between snapshots (the streaming
        engine's vocabulary is append-only, so feature row ``i`` always
        denotes the same word): past factors are zero-padded and words
        with no history get an all-zero prior row.  Shrinking would
        re-map rows and is rejected.
        """
        if not self._sf_history:
            return None
        aggregate = np.zeros((num_features, self.num_classes))
        # history[-1] is Sf(t-1), history[-2] is Sf(t-2), ...
        for lag, sf_past in enumerate(reversed(self._sf_history), start=1):
            if sf_past.shape[0] > num_features:
                raise ValueError(
                    "feature dimension shrank across snapshots "
                    f"({sf_past.shape[0]} -> {num_features}); online mode "
                    "requires an append-only shared vocabulary"
                )
            aggregate[: sf_past.shape[0]] += (self.tau ** lag) * sf_past
        return aggregate

    def _history_prior(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``Σ_lag τ^lag·Su(t−lag)`` rows for ``ids`` and which had history.

        Lags are added most recent first, as a float64 accumulator.
        """
        aggregate = np.zeros((ids.size, self.num_classes))
        found = np.zeros(ids.size, dtype=bool)
        # history[-1] is Su(t-1), history[-2] is Su(t-2), ...
        for lag, (past_ids, past_rows) in enumerate(
            reversed(self._su_history), start=1
        ):
            positions, hit = _locate(past_ids, ids)
            aggregate[hit] += (self.tau ** lag) * past_rows[positions[hit]]
            found |= hit
        return aggregate, found

    def user_prior(self, user_id: int) -> np.ndarray | None:
        """``Suw(t)`` row for one user, or ``None`` without history.

        Falls back to the decayed carried-forward estimate when the user
        was seen before the current window (still an "evolving" user).
        """
        ids = np.array([user_id], dtype=np.int64)
        aggregate, found = self._history_prior(ids)
        if found[0]:
            return aggregate[0]
        state_ids, state_rows = self._user_state
        positions, hit = _locate(state_ids, ids)
        if hit[0]:
            return self.tau * state_rows[positions[0]]
        return None

    def _check_vocabulary(self, graph: TripartiteGraph) -> None:
        """Fail fast when feature rows cannot align across snapshots.

        A *grown* feature dimension is only meaningful when the snapshot
        was vectorized against the same append-only vocabulary as the
        previous ones (row ``i`` keeps denoting the same word).  A larger
        dimension coming from an independently fitted vocabulary would
        silently add decayed history rows onto unrelated words, so it is
        rejected; equal dimensions keep the legacy shared-vectorizer
        contract (shrinks are rejected in :meth:`feature_prior`).
        """
        vocabulary = graph.vectorizer.vocabulary
        if (
            self._sf_history
            and graph.num_features > self._sf_history[-1].shape[0]
            and vocabulary is not self._vocabulary_ref
        ):
            raise ValueError(
                "feature dimension grew but the snapshot was built against "
                "a different vocabulary object; online mode requires an "
                "append-only shared vocabulary across snapshots"
            )
        self._vocabulary_ref = vocabulary

    # ------------------------------------------------------------------ #
    # Streaming API
    # ------------------------------------------------------------------ #

    def partial_fit(self, graph: TripartiteGraph) -> OnlineStepResult:
        """Process one snapshot; updates the internal temporal state."""
        self._check_vocabulary(graph)
        user_ids = graph.corpus.user_ids
        ids = np.asarray(user_ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        snapshot_ids = ids[order]
        if np.any(snapshot_ids[1:] == snapshot_ids[:-1]):
            raise ValueError("snapshot corpus has duplicate user ids")
        state_ids, state_rows = self._user_state
        carried_at, evolving = _locate(state_ids, ids)
        new_rows = np.flatnonzero(~evolving)
        evolving_rows = np.flatnonzero(evolving)

        # --- warm starts (Algorithm 2, lines 1-2) ---
        sfw = self.feature_prior(graph.num_features)
        sf_init = sfw if sfw is not None else graph.sf0
        if sf_init is None:
            sf_init = self._rng.uniform(
                0.01, 1.0, size=(graph.num_features, self.num_classes)
            )
        elif sfw is not None and graph.sf0 is not None:
            # Words that appeared after the last snapshot have an all-zero
            # history row; seed them from the lexicon prior instead so the
            # warm start carries class semantics for them too.
            fresh_rows = ~sfw.any(axis=1)
            if fresh_rows.any():
                sf_init = sfw.copy()
                sf_init[fresh_rows] = graph.sf0[fresh_rows]

        su_init = self._rng.uniform(
            0.01, 1.0, size=(graph.num_users, self.num_classes)
        )
        su_prior = None
        if evolving_rows.size:
            # Suw(t): the lag sum for users inside the window, else the
            # decayed carried estimate (every evolving user has one).
            su_prior, found = self._history_prior(ids[evolving_rows])
            carried = self.tau * state_rows[carried_at[evolving_rows[~found]]]
            su_init[evolving_rows[found]] = np.maximum(su_prior[found], 1e-6)
            su_init[evolving_rows[~found]] = np.maximum(carried, 1e-6)
            su_prior[~found] = carried

        factors = warm_started_factors(
            graph.num_tweets,
            graph.num_users,
            sf_init,
            su_init=su_init,
            seed=self._rng,
            dtype=self._np_dtype,
        )

        result = self._optimize(
            graph, factors, sfw, su_prior, evolving_rows
        )

        # --- commit temporal state ---
        self._sf_history.append(result.factors.sf.copy())
        su_rows = np.ascontiguousarray(result.factors.su[order])
        self._su_history.append((snapshot_ids, su_rows))
        # The carried per-user state is an exponentially smoothed average of
        # row-normalized snapshot estimates.  A single snapshot sees few
        # tweets per user, so overwriting would make the global user
        # readout as noisy as the mini-batch baseline; smoothing implements
        # Observation 2 (user sentiment is stable over short horizons).
        totals = su_rows.sum(axis=1)
        smoothed = np.divide(
            su_rows, totals[:, None], out=su_rows.copy(),
            where=(totals > 0)[:, None],
        )
        previous_at, returning = _locate(state_ids, snapshot_ids)
        smoothed[returning] = (
            self.state_smoothing * state_rows[previous_at[returning]]
            + (1.0 - self.state_smoothing) * smoothed[returning]
        )
        # Users absent from this snapshot keep their carried rows.
        absent = ~_locate(snapshot_ids, state_ids)[1]
        merged_ids = np.concatenate([state_ids[absent], snapshot_ids])
        merged_order = np.argsort(merged_ids, kind="stable")
        self._user_state = (
            merged_ids[merged_order],
            np.concatenate([state_rows[absent], smoothed])[merged_order],
        )
        self._steps += 1

        return OnlineStepResult(
            snapshot_index=self._steps - 1,
            factors=result.factors,
            history=result.history,
            converged=result.converged,
            iterations=result.iterations,
            user_ids=user_ids,
            new_user_rows=new_rows,
            evolving_user_rows=evolving_rows,
        )

    # ------------------------------------------------------------------ #

    @dataclass
    class _OptimizeOutput:
        factors: FactorSet
        history: ConvergenceHistory
        converged: bool
        iterations: int

    def _optimize(
        self,
        graph: TripartiteGraph,
        factors: FactorSet,
        sfw: np.ndarray | None,
        su_prior: np.ndarray | None,
        evolving_rows: np.ndarray,
    ) -> "_OptimizeOutput":
        """Algorithm 2 inner loop (lines 3-8)."""
        graph = graph.astype(self._np_dtype)  # no-op in the float64 default
        factors = factors.astype(self._np_dtype)
        if sfw is not None:
            sfw = sfw.astype(self._np_dtype, copy=False)
        if su_prior is not None:
            su_prior = su_prior.astype(self._np_dtype, copy=False)
        plan = SweepPlan.for_solver(self, graph)
        with plan.open(
            factors, su_prior=su_prior, evolving_rows=evolving_rows,
            kernel=self.kernel, spmm=self.spmm,
            spmm_threads=self.spmm_threads,
        ) as solver:
            history, converged, iterations = solver.solve_online(
                self.weights,
                sfw if sfw is not None else graph.sf0,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
                patience=self.patience,
                track_history=self.track_history,
                su_prior_active=su_prior is not None,
            )
            merged = solver.merged_factors()
        self.last_telemetry = plan.telemetry
        return self._OptimizeOutput(
            factors=merged,
            history=history,
            converged=converged,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #
    # Global readouts
    # ------------------------------------------------------------------ #

    @property
    def current_feature_factor(self) -> np.ndarray | None:
        """The most recent ``Sf(t)`` (None before the first snapshot).

        Useful with
        :func:`repro.core.labeling.lexicon_column_alignment` to map
        cluster columns onto sentiment classes without ground truth.
        """
        if not self._sf_history:
            return None
        return self._sf_history[-1].copy()

    @property
    def seen_users(self) -> set[int]:
        """All user ids observed in any processed snapshot (a copy)."""
        return set(self._user_state[0].tolist())

    @property
    def steps(self) -> int:
        """Number of snapshots processed."""
        return self._steps

    def user_sentiment_rows(self) -> dict[int, np.ndarray]:
        """Latest sentiment vector per user (disappeared users included)."""
        state_ids, state_rows = self._user_state
        return dict(zip(state_ids.tolist(), state_rows.copy()))

    def user_sentiment_labels(self) -> dict[int, int]:
        """Latest hard sentiment class per user ever seen."""
        state_ids, state_rows = self._user_state
        labels = hard_assignments(state_rows)
        return dict(zip(state_ids.tolist(), labels.tolist()))
