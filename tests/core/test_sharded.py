"""Sharding invariants: 1-shard bit-identity, determinism, merge, edges.

The one-shard parity tests compare the solve loop with the sequential
reference loops in :mod:`tests.core.reference`, not with the plain
solvers (which run the same loop at one shard).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import sweep
from repro.core.objective import ObjectiveValue, compute_objective
from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sharded import (
    AUTO_USERS_PER_SHARD,
    ShardedOnlineTriClustering,
    ShardedTriClustering,
    resolve_shard_count,
)
from repro.data.corpus import TweetCorpus
from repro.data.stream import SnapshotStream
from repro.graph.tripartite import build_tripartite_graph
from repro.utils.matrices import hard_assignments
from tests.core.reference import (
    ReferenceOfflineTriClustering,
    ReferenceOnlineTriClustering,
    OBJECTIVE_RTOL,
    assert_totals_close,
    objective_gap,
    reference_objective,
)

FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")
MAX_ITER = 20


def assert_factors_equal(a, b):
    for name in FACTOR_NAMES:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


class TestOfflineBitIdentity:
    def test_one_shard_reproduces_plain_solver_bitwise(self, graph):
        plain = ReferenceOfflineTriClustering(
            seed=7, max_iterations=MAX_ITER
        ).fit(graph)
        sharded = ShardedTriClustering(
            seed=7, max_iterations=MAX_ITER, n_shards=1
        ).fit(graph)
        assert_factors_equal(plain.factors, sharded.factors)
        assert plain.history.totals == sharded.history.totals
        assert plain.iterations == sharded.iterations
        assert plain.converged == sharded.converged

    def test_one_shard_identity_without_prior(self, corpus):
        graph = build_tripartite_graph(corpus)  # no lexicon -> no Sf0
        plain = ReferenceOfflineTriClustering(
            seed=3, max_iterations=8
        ).fit(graph)
        sharded = ShardedTriClustering(
            seed=3, max_iterations=8, n_shards=1
        ).fit(graph)
        assert_factors_equal(plain.factors, sharded.factors)
        assert plain.history.totals == sharded.history.totals

    def test_one_shard_identity_with_worker_pool(self, graph):
        """A borrowed thread pool (the serving engine lends its classify
        pool to the solver) must not change the numbers at one shard."""
        from repro.utils.executor import WorkerPool

        reference = ReferenceOfflineTriClustering(
            seed=7, max_iterations=8
        ).fit(graph)
        solver = ShardedTriClustering(seed=7, max_iterations=8, n_shards=1)
        with WorkerPool(4, backend="thread") as pool:
            solver.pool = pool
            threaded = solver.fit(graph)
        assert solver.last_telemetry["rounds"] > 0
        assert_factors_equal(reference.factors, threaded.factors)
        assert reference.history.totals == threaded.history.totals


class TestMultiShardDeterminism:
    def test_same_seed_same_result(self, graph):
        runs = [
            ShardedTriClustering(
                seed=7, max_iterations=MAX_ITER, n_shards=3
            ).fit(graph)
            for _ in range(2)
        ]
        assert_factors_equal(runs[0].factors, runs[1].factors)
        assert runs[0].history.totals == runs[1].history.totals

    def test_threaded_matches_serial(self, graph):
        serial = ShardedTriClustering(
            seed=7, max_iterations=10, n_shards=3, max_workers=1
        ).fit(graph)
        threaded = ShardedTriClustering(
            seed=7, max_iterations=10, n_shards=3, max_workers=3
        ).fit(graph)
        assert_factors_equal(serial.factors, threaded.factors)
        assert serial.history.totals == threaded.history.totals

    def test_scatter_gather_round_trips_initial_factors(self, graph):
        """Row factors survive scatter -> merge untouched for any
        partition (initialization is global, then scattered)."""
        from repro.core.initialization import lexicon_seeded_factors
        from repro.core.sweep import ShardedSolver
        from repro.graph.partition import extract_shard_blocks, hash_partition
        from repro.utils.executor import WorkerPool

        factors = lexicon_seeded_factors(
            graph.num_tweets, graph.num_users, graph.sf0, seed=7
        )
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 3)
        )
        with WorkerPool(1) as pool:
            solver = ShardedSolver(sharded, factors.copy(), pool)
            merged = solver.merged_factors()
        np.testing.assert_array_equal(merged.sp, factors.sp)
        np.testing.assert_array_equal(merged.su, factors.su)
        np.testing.assert_array_equal(merged.sf, factors.sf)

    def test_objective_tolerance_vs_unsharded(self, graph):
        """Full-model objective of merged factors stays within the
        documented ceiling of the unsharded optimum (block-diagonal
        approximation drops cut edges)."""
        solver = OfflineTriClustering(seed=7, max_iterations=40)
        plain = solver.fit(graph)
        for n_shards in (2, 4):
            sharded = ShardedTriClustering(
                seed=7, max_iterations=40, n_shards=n_shards
            ).fit(graph)
            full = compute_objective(
                sharded.factors,
                graph.xp,
                graph.xu,
                graph.xr,
                graph.user_graph.laplacian,
                solver.weights,
                sf_prior=graph.sf0,
            ).total
            relative = abs(full - plain.final_objective) / plain.final_objective
            assert relative < 0.20, f"n_shards={n_shards}: {relative:.2%}"


def _backend_kwargs(request, backend: str) -> dict:
    """Solver kwargs for one backend cell of the determinism matrix.

    The socket cell talks to the session worker fleet (or the servers
    named by ``REPRO_SOCKET_WORKERS`` in the CI smoke job); the fixture
    is resolved lazily so the other cells never spawn workers.
    """
    if backend == "socket":
        return {
            "backend": "socket",
            "workers": request.getfixturevalue("socket_workers"),
        }
    return {"backend": backend, "max_workers": 2}


class TestBackendDeterminism:
    """Same seed ⇒ bit-identical factors on every execution backend.

    The socket backend ships shard blocks once, runs the sweep
    commands in worker processes (over TCP, possibly on other hosts)
    and returns only ``l×k`` pieces — none of which may change a single
    floating-point value (factors *or* objective traces) relative to
    the in-process backends.
    """

    BACKENDS = ["serial", "thread", "socket"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_offline_backends_bitwise_equal(
        self, graph, backend, n_shards, request
    ):
        if n_shards == 1:  # one shard: the sequential loop is the oracle
            reference = ReferenceOfflineTriClustering(
                seed=7, max_iterations=8
            ).fit(graph)
        else:
            reference = ShardedTriClustering(
                seed=7, max_iterations=8, n_shards=n_shards
            ).fit(graph)
        run = ShardedTriClustering(
            seed=7, max_iterations=8, n_shards=n_shards,
            **_backend_kwargs(request, backend),
        ).fit(graph)
        assert_factors_equal(reference.factors, run.factors)
        assert reference.history.totals == run.history.totals
        assert reference.iterations == run.iterations

    #: Reference online trajectories per shard count, computed once on
    #: the default backend and compared against every other cell.
    _ONLINE_REFERENCE: dict = {}

    def _online_reference(
        self, n_shards, corpus, shared_vectorizer, lexicon
    ) -> dict:
        if n_shards not in self._ONLINE_REFERENCE:
            if n_shards == 1:  # one shard: the sequential loop is the oracle
                solver = ReferenceOnlineTriClustering(
                    seed=7, max_iterations=6, track_history=True
                )
            else:
                solver = ShardedOnlineTriClustering(
                    seed=7, max_iterations=6, n_shards=n_shards,
                    track_history=True,
                )
            steps = []
            for snapshot in SnapshotStream(corpus, interval_days=30):
                graph = build_tripartite_graph(
                    snapshot.corpus,
                    vectorizer=shared_vectorizer,
                    lexicon=lexicon,
                )
                result = solver.partial_fit(graph)
                steps.append(
                    {
                        "factors": {
                            name: getattr(result.factors, name).copy()
                            for name in FACTOR_NAMES
                        },
                        "totals": list(result.history.totals),
                        "iterations": result.iterations,
                    }
                )
            self._ONLINE_REFERENCE[n_shards] = {
                "steps": steps,
                "labels": solver.user_sentiment_labels(),
            }
        return self._ONLINE_REFERENCE[n_shards]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_online_backends_bitwise_equal(
        self, corpus, shared_vectorizer, lexicon, backend, n_shards, request
    ):
        """The cross-backend property, online: every backend × shard
        count replays the reference Sp/Su/Sf/Hp/Hu trajectory bit for
        bit across a whole snapshot stream, and the objective trace bit
        for bit too (to the oracle objective's tolerance at one shard,
        where the reference is the sequential oracle)."""
        reference = self._online_reference(
            n_shards, corpus, shared_vectorizer, lexicon
        )
        run = ShardedOnlineTriClustering(
            seed=7, max_iterations=6, n_shards=n_shards, track_history=True,
            **_backend_kwargs(request, backend),
        )
        for expected, snapshot in zip(
            reference["steps"], SnapshotStream(corpus, interval_days=30)
        ):
            graph = build_tripartite_graph(
                snapshot.corpus, vectorizer=shared_vectorizer, lexicon=lexicon
            )
            result = run.partial_fit(graph)
            for name in FACTOR_NAMES:
                np.testing.assert_array_equal(
                    getattr(result.factors, name),
                    expected["factors"][name],
                    err_msg=name,
                )
            if n_shards == 1:  # the oracle's objective: to its tolerance
                assert_totals_close(result.history.totals, expected["totals"])
            else:
                assert list(result.history.totals) == expected["totals"]
            assert result.iterations == expected["iterations"]
        assert run.user_sentiment_labels() == reference["labels"]

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ShardedTriClustering(backend="cluster")
        with pytest.raises(ValueError, match="backend"):
            ShardedOnlineTriClustering(backend="gpu")

    @pytest.mark.parametrize(
        "solver_class", [OfflineTriClustering, OnlineTriClustering]
    )
    def test_rejects_removed_process_backend_by_name(self, solver_class):
        with pytest.raises(ValueError, match="backend='process' was removed"):
            solver_class(n_shards=2, backend="process")

    @pytest.mark.parametrize("max_workers", [0, -1, 2.5, "2", True])
    @pytest.mark.parametrize(
        "solver_class", [OfflineTriClustering, OnlineTriClustering]
    )
    def test_rejects_bad_max_workers_at_construction(
        self, solver_class, max_workers
    ):
        with pytest.raises(ValueError, match="max_workers"):
            solver_class(n_shards=2, max_workers=max_workers)


class TestConvergenceParity:
    """Converging solves hit the fused loop's rollback/lag machinery:
    the offline loop detects convergence one speculative pass late and
    must roll it back; the online loop must stop without one.  Both
    must replay the plain solver's trajectory bit for bit."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "socket"])
    def test_offline_converging_matches_plain_bitwise(
        self, graph, backend, request
    ):
        plain = ReferenceOfflineTriClustering(
            seed=7, max_iterations=60, tolerance=1e-3, patience=2
        ).fit(graph)
        assert plain.converged  # the rollback path is actually exercised
        run = ShardedTriClustering(
            seed=7, max_iterations=60, tolerance=1e-3, patience=2,
            n_shards=1, **_backend_kwargs(request, backend),
        ).fit(graph)
        assert_factors_equal(plain.factors, run.factors)
        assert plain.history.totals == run.history.totals
        assert run.converged
        assert plain.iterations == run.iterations

    @pytest.mark.parametrize("backend", ["serial", "thread", "socket"])
    def test_online_converging_matches_plain_bitwise(
        self, graph, backend, request
    ):
        plain = ReferenceOnlineTriClustering(
            seed=7, max_iterations=60, tolerance=1e-3, patience=2,
            track_history=True,
        ).partial_fit(graph)
        assert plain.converged
        run = ShardedOnlineTriClustering(
            seed=7, max_iterations=60, tolerance=1e-3, patience=2,
            track_history=True, n_shards=1,
            **_backend_kwargs(request, backend),
        ).partial_fit(graph)
        assert_factors_equal(plain.factors, run.factors)
        assert list(plain.history.totals) == list(run.history.totals)
        assert run.converged
        assert plain.iterations == run.iterations

    def test_multi_shard_converging_deterministic(self, graph):
        runs = [
            ShardedTriClustering(
                seed=7, max_iterations=60, tolerance=1e-3, patience=2,
                n_shards=3,
            ).fit(graph)
            for _ in range(2)
        ]
        assert_factors_equal(runs[0].factors, runs[1].factors)
        assert runs[0].history.totals == runs[1].history.totals
        assert runs[0].iterations == runs[1].iterations


class TestPoolTelemetry:
    """The fused loop's coordination cost, counted not asserted from
    vibes: one exchange round per sweep, the full ``Sf`` broadcast
    exactly once per solve (plus one for the prior), and one ``l×k``
    versioned update per ``Sf`` advance."""

    def test_offline_rounds_and_broadcasts(self, graph):
        solver = ShardedTriClustering(
            seed=7, max_iterations=6, tolerance=0.0, n_shards=2,
        )
        result = solver.fit(graph)
        assert result.iterations == 6
        telemetry = solver.last_telemetry
        # scatter + one fused exchange per sweep + the final objective
        # round (the lagged loop never records the last sweep in-loop)
        # + merge.
        assert telemetry["rounds"] == 1 + 6 + 1 + 1
        # Full broadcasts: Sf once, its prior once — never per sweep.
        assert telemetry["shared_sets"] == 2
        # One l×k versioned advance per Sf step.
        assert telemetry["shared_updates"] == 6
        assert telemetry["commands"] >= telemetry["rounds"]

    def test_online_rounds_and_broadcasts(self, graph):
        solver = ShardedOnlineTriClustering(
            seed=7, max_iterations=4, tolerance=0.0, track_history=True,
            n_shards=2,
        )
        step = solver.partial_fit(graph)
        assert step.iterations == 4
        telemetry = solver.last_telemetry
        # scatter + priming contribution round + one fused exchange per
        # sweep + merge (every sweep is evaluated in-loop, so there is
        # no trailing objective round).
        assert telemetry["rounds"] == 1 + 1 + 4 + 1
        assert telemetry["shared_sets"] == 2
        assert telemetry["shared_updates"] == 4

    @staticmethod
    def _socket_downlink(solver_class, graph, workers, sweeps):
        solver = solver_class(
            seed=7, max_iterations=sweeps, tolerance=0.0, n_shards=2,
            backend="socket", workers=workers,
        )
        if solver_class is ShardedTriClustering:
            solver.fit(graph)
        else:
            solver.partial_fit(graph)
        telemetry = solver.last_telemetry
        assert telemetry["bytes_received"] > 0
        assert telemetry["shared_sets"] == 2
        assert telemetry["shared_updates"] == sweeps
        return telemetry["bytes_sent"]

    def _assert_one_update_per_sweep(self, solver_class, graph, workers):
        """Per-sweep downlink, read as the byte difference between a
        2- and a 6-sweep solve, is one ``l×k`` update per worker: under
        the two full-``Sf`` sends per shard per sweep (pass + objective
        command) of the resend-everything regime, and equal on every
        sweep."""
        sf_bytes = graph.num_features * 3 * 8
        sent = {
            sweeps: self._socket_downlink(solver_class, graph, workers, sweeps)
            for sweeps in (2, 6, 10)
        }
        per_sweep = (sent[6] - sent[2]) / 4
        assert sent[10] - sent[6] == sent[6] - sent[2]
        n_workers = 2
        assert n_workers * sf_bytes <= per_sweep < 1.5 * n_workers * sf_bytes

    def test_socket_backend_moves_fewer_bytes_than_resending_sf(
        self, graph, socket_workers
    ):
        """On the socket backend the per-sweep downlink is the l×k
        update op, not a full Sf broadcast per command."""
        self._assert_one_update_per_sweep(
            ShardedTriClustering, graph, socket_workers
        )
        solver = ShardedTriClustering(
            seed=7, max_iterations=6, tolerance=0.0, n_shards=2,
            backend="socket", workers=socket_workers,
        )
        solver.fit(graph)
        telemetry = solver.last_telemetry
        assert telemetry["rounds"] == 1 + 6 + 1 + 1
        assert telemetry["send_seconds"] >= 0.0
        assert telemetry["wait_seconds"] >= 0.0

    def test_socket_backend_online_moves_one_update_per_sweep(
        self, graph, socket_workers
    ):
        self._assert_one_update_per_sweep(
            ShardedOnlineTriClustering, graph, socket_workers
        )

    def test_engine_snapshot_report_carries_telemetry(self, corpus, lexicon):
        from repro.data.stream import iter_tweet_batches
        from repro.engine import EngineConfig, StreamingSentimentEngine

        config = EngineConfig(
            seed=7,
            solver={"max_iterations": 3},
            sharding={"n_shards": 2},
        )
        _, _, tweets = next(iter(iter_tweet_batches(corpus, interval_days=30)))
        with StreamingSentimentEngine(config, lexicon=lexicon) as engine:
            engine.ingest(tweets, users=corpus.profiles_for(tweets))
            report = engine.advance_snapshot()
        telemetry = report.pool_telemetry
        assert telemetry is not None
        assert telemetry["rounds"] >= 3
        assert telemetry["shared_sets"] == 2

    def test_socket_backend_requires_workers(self):
        with pytest.raises(ValueError, match="worker"):
            ShardedTriClustering(backend="socket")
        with pytest.raises(ValueError, match="socket"):
            ShardedOnlineTriClustering(workers=["127.0.0.1:7500"])


class TestAutoShardCount:
    def test_resolve_heuristic(self):
        # Too few users for a second shard -> 1, regardless of workers.
        assert resolve_shard_count("auto", AUTO_USERS_PER_SHARD - 1, 8) == 1
        # Capped by the worker count...
        assert resolve_shard_count("auto", 100 * AUTO_USERS_PER_SHARD, 4) == 4
        # ...and by the users-per-shard floor.
        assert resolve_shard_count("auto", 3 * AUTO_USERS_PER_SHARD, 8) == 3
        # Integers pass through untouched.
        assert resolve_shard_count(5, 10, 2) == 5

    def test_auto_accepted_and_recorded_in_plan(self, graph):
        solver = ShardedTriClustering(
            seed=7, max_iterations=4, n_shards="auto", max_workers=2
        )
        result = solver.fit(graph)
        assert np.isfinite(result.final_objective)
        expected = resolve_shard_count("auto", graph.num_users, 2)
        assert solver.last_plan.n_shards == expected

    def test_auto_matches_equivalent_fixed_count(self, graph):
        fixed = resolve_shard_count("auto", graph.num_users, 2)
        auto = ShardedTriClustering(
            seed=7, max_iterations=6, n_shards="auto", max_workers=2
        ).fit(graph)
        explicit = ShardedTriClustering(
            seed=7, max_iterations=6, n_shards=fixed, max_workers=2
        ).fit(graph)
        assert_factors_equal(auto.factors, explicit.factors)

    def test_rejects_other_strings(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedTriClustering(n_shards="many")


class TestMergeCorrectness:
    def test_user_rows_scatter_exactly(self, graph):
        solver = ShardedTriClustering(seed=7, max_iterations=6, n_shards=3)
        result = solver.fit(graph)
        plan = solver.last_plan
        assert plan is not None and plan.n_shards == 3
        # Every user/tweet row is owned by exactly one shard and the
        # merged matrices carry each shard's rows untouched.
        su, sp = result.factors.su, result.factors.sp
        assert su.shape == (graph.num_users, 3)
        assert sp.shape == (graph.num_tweets, 3)
        assert np.all(su.sum(axis=1) > 0)  # no dropped rows
        merged_labels = hard_assignments(su)
        for block in plan.blocks:
            block_labels = merged_labels[block.user_rows]
            assert block_labels.shape[0] == block.num_users

    def test_consensus_association_is_positive_and_stationary(self, graph):
        result = ShardedTriClustering(
            seed=7, max_iterations=10, n_shards=3
        ).fit(graph)
        for name in ("hp", "hu"):
            matrix = getattr(result.factors, name)
            assert matrix.shape == (3, 3)
            assert np.all(matrix >= 0)
            assert np.all(np.isfinite(matrix))
            assert matrix.max() > 0


class TestEdgeCases:
    def test_more_shards_than_users_runs(self, graph):
        result = ShardedTriClustering(
            seed=7, max_iterations=4, n_shards=graph.num_users + 3
        ).fit(graph)
        for name in FACTOR_NAMES:
            assert np.all(np.isfinite(getattr(result.factors, name)))
        assert np.isfinite(result.final_objective)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedTriClustering(n_shards=0)


class TestOnlineBitIdentity:
    def _snapshots(self, corpus, shared_vectorizer, lexicon):
        for snapshot in SnapshotStream(corpus, interval_days=30):
            yield build_tripartite_graph(
                snapshot.corpus,
                vectorizer=shared_vectorizer,
                lexicon=lexicon,
            )

    def test_one_shard_stream_bitwise(
        self, corpus, shared_vectorizer, lexicon
    ):
        plain = ReferenceOnlineTriClustering(seed=7, max_iterations=10)
        sharded = ShardedOnlineTriClustering(
            seed=7, max_iterations=10, n_shards=1
        )
        steps = 0
        for graph in self._snapshots(corpus, shared_vectorizer, lexicon):
            a = plain.partial_fit(graph)
            b = sharded.partial_fit(graph)
            assert_factors_equal(a.factors, b.factors)
            assert_totals_close(b.history.totals, a.history.totals)
            np.testing.assert_array_equal(a.new_user_rows, b.new_user_rows)
            np.testing.assert_array_equal(
                a.evolving_user_rows, b.evolving_user_rows
            )
            steps += 1
        assert steps >= 3
        assert plain.user_sentiment_labels() == sharded.user_sentiment_labels()
        rows_a = plain.user_sentiment_rows()
        rows_b = sharded.user_sentiment_rows()
        for uid in rows_a:
            np.testing.assert_array_equal(rows_a[uid], rows_b[uid])

    def test_multi_shard_stream_deterministic_and_merged(
        self, corpus, shared_vectorizer, lexicon
    ):
        solvers = [
            ShardedOnlineTriClustering(seed=7, max_iterations=8, n_shards=3)
            for _ in range(2)
        ]
        seen = set()
        for graph in self._snapshots(corpus, shared_vectorizer, lexicon):
            results = [solver.partial_fit(graph) for solver in solvers]
            assert_factors_equal(results[0].factors, results[1].factors)
            seen |= set(graph.corpus.user_ids)
        assert solvers[0].user_sentiment_labels() == solvers[1].user_sentiment_labels()
        # Per-shard user sentiments merge into one global readout that
        # covers every user ever seen.
        assert set(solvers[0].user_sentiment_labels()) == seen


OBJECTIVE_TERMS = (
    "tweet_loss", "user_loss", "retweet_loss", "lexicon_loss",
    "graph_loss", "temporal_loss",
)


def _summed(parts) -> ObjectiveValue:
    """Shard parts reduced as the solve loop reduces them."""
    if len(parts) == 1:
        return parts[0]
    return ObjectiveValue(
        **{term: sum(getattr(p, term) for p in parts) for term in OBJECTIVE_TERMS}
    )


class TestObjectiveOracleParity:
    """Every term of the per-sweep objective history against
    :func:`~tests.core.reference.reference_objective`, the former
    expansion ``Σ (Xᵀ·(A·H)) ∘ B``, evaluated on the very same shard
    iterates: the tweet and user losses to :data:`OBJECTIVE_RTOL`,
    every other term bit for bit.  The shard objective is wrapped so
    each evaluation also runs the oracle; a serial pool keeps the shard
    parts in rank order for the reduction."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        calls = []

        def recording(factors, xp, xu, xr, laplacian, weights, **options):
            value = compute_objective(
                factors, xp, xu, xr, laplacian, weights, **options
            )
            calls.append(
                (value, reference_objective(
                    factors, xp, xu, xr, laplacian, weights, **options
                ))
            )
            return value

        monkeypatch.setattr(sweep, "compute_objective", recording)
        return calls

    @staticmethod
    def _check(history, calls, n_shards, dtype):
        assert history.records
        assert len(calls) == n_shards * len(history.records)
        rtol = OBJECTIVE_RTOL[np.dtype(dtype)]
        for index, record in enumerate(history.records):
            group = calls[index * n_shards:(index + 1) * n_shards]
            value = _summed([value for value, _ in group])
            oracle = _summed([oracle for _, oracle in group])
            assert record.objective == value  # the history is the reduction
            for term in ("retweet_loss", "lexicon_loss", "graph_loss",
                         "temporal_loss"):
                assert getattr(value, term) == getattr(oracle, term), term
            assert value.regularizer_losses == oracle.regularizer_losses
            assert objective_gap(value, oracle) <= rtol

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_offline_history(self, graph, recorded, n_shards, dtype):
        solver = OfflineTriClustering(
            seed=7, max_iterations=12, track_history=True, dtype=dtype,
            n_shards=n_shards, backend="serial",
        )
        result = solver.fit(graph)
        if n_shards > 1:  # the cut-edge terms are part of the check
            assert solver.last_telemetry["halo_updates"] > 0
        self._check(result.history, recorded, n_shards, dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_online_history(
        self, corpus, shared_vectorizer, lexicon, recorded, n_shards, dtype
    ):
        """Three snapshots, so the later ones carry evolving users and
        the temporal term."""
        solver = OnlineTriClustering(
            seed=7, max_iterations=8, track_history=True, dtype=dtype,
            n_shards=n_shards, backend="serial",
        )
        snapshots = list(SnapshotStream(corpus, interval_days=30))[:3]
        temporal = False
        for snapshot in snapshots:
            step = solver.partial_fit(
                build_tripartite_graph(
                    snapshot.corpus, vectorizer=shared_vectorizer,
                    lexicon=lexicon,
                )
            )
            self._check(step.history, recorded, n_shards, dtype)
            temporal |= step.history.final.objective.temporal_loss > 0
            recorded.clear()
        assert temporal

    def test_regularizer_stack_history(self, graph, recorded):
        """The Section 7 stack: its values join the history unchanged."""
        from repro.core.regularizers import (
            Diversity,
            GraphSmoothness,
            PriorCloseness,
            Sparsity,
        )
        from repro.core.unified import UnifiedTriClustering

        result = UnifiedTriClustering(
            regularizers=[
                PriorCloseness("sf", graph.sf0, 0.05),
                GraphSmoothness("su", graph.user_graph.adjacency, 0.8),
                Sparsity("sp", 0.05),
                Diversity("sf", 0.5),
            ],
            max_iterations=12, tolerance=0.0, seed=7,
        ).fit(graph)
        assert all(result.regularizer_values)
        self._check(result.history, recorded, 1, "float64")

    @pytest.mark.parametrize("kind", ["offline", "online"])
    def test_empty_shard_history(
        self, corpus, shared_vectorizer, lexicon, recorded, kind
    ):
        """One author at two shards: the other shard's block is empty,
        and its objective part (all zero) still reduces in."""
        author = corpus.tweets[0].user_id
        single = TweetCorpus(
            tweets=[
                dataclasses.replace(t, retweet_of=None)
                for t in corpus.tweets if t.user_id == author
            ],
            users={author: corpus.users[author]},
        )
        graph = build_tripartite_graph(
            single, vectorizer=shared_vectorizer, lexicon=lexicon
        )
        options = dict(
            seed=7, max_iterations=6, track_history=True, n_shards=2,
            backend="serial",
        )
        if kind == "offline":
            history = OfflineTriClustering(**options).fit(graph).history
        else:
            history = OnlineTriClustering(**options).partial_fit(graph).history
        assert any(
            value.tweet_loss == value.user_loss == 0.0 for value, _ in recorded
        )
        self._check(history, recorded, 2, "float64")

    @pytest.mark.parametrize("kind", ["offline", "online"])
    def test_socket_history_matches_in_process(self, graph, kind, request):
        """Worker-resident sweep caches (no wrapper reaches them) replay
        the checked in-process history bit for bit."""
        histories = []
        for backend in ("serial", "socket"):
            options = dict(
                seed=7, max_iterations=8, track_history=True, n_shards=2,
                **_backend_kwargs(request, backend),
            )
            if kind == "offline":
                result = OfflineTriClustering(**options).fit(graph)
            else:
                result = OnlineTriClustering(**options).partial_fit(graph)
            histories.append(result.history)
        serial, socket = histories
        assert [r.objective for r in serial.records] == [
            r.objective for r in socket.records
        ]
