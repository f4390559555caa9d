"""The one solve loop: engines kept in process, round counts, bad input.

Every solver runs :mod:`repro.core.sweep`; the plain solvers are its
one-shard case.  These tests pin what that sharing must not lose:
custom spmm engines and kernels see the calls on in-process backends
(out-of-process payloads pin registered names instead), the default
one-shard path costs exactly one pool round per sweep plus three, and
non-finite or negative input is rejected with an error that names the
matrix instead of producing non-finite factors.
"""

import numpy as np
import pytest

from repro.core.kernels import Kernel
from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedOnlineTriClustering, ShardedTriClustering
from repro.core.spmm import SpmmEngine
from repro.core.sweep import _shard_state_payload
from repro.graph.tripartite import TripartiteGraph
from tests.core.reference import ReferenceOfflineTriClustering
from tests.graph.test_tripartite import corrupted_parts

FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")


class CountingSpmm(SpmmEngine):
    """An unregistered engine that counts its products."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def matmul(self, x, dense):
        self.calls += 1
        return super().matmul(x, dense)


class CountingKernel(Kernel):
    """An unregistered kernel that counts its update tails."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def multiply_tail(self, s, numerator, denominator):
        self.calls += 1
        return super().multiply_tail(s, numerator, denominator)


def _solve(kind: str, graph, **kwargs):
    if kind == "offline":
        return ShardedTriClustering(seed=7, max_iterations=3, **kwargs).fit(
            graph
        )
    return ShardedOnlineTriClustering(
        seed=7, max_iterations=3, **kwargs
    ).partial_fit(graph)


class TestCustomEngines:
    @pytest.mark.parametrize("kind", ["offline", "online"])
    def test_plain_solvers_use_custom_engines(self, graph, kind):
        spmm, kernel = CountingSpmm(), CountingKernel()
        cls = OfflineTriClustering if kind == "offline" else OnlineTriClustering
        solver = cls(seed=7, max_iterations=3, spmm=spmm, kernel=kernel)
        (solver.fit if kind == "offline" else solver.partial_fit)(graph)
        assert spmm.calls > 0
        assert kernel.calls > 0

    def test_converged_fit_runs_no_speculative_pass(self, graph):
        """One in-process shard tests convergence before the lagged
        exchange's extra pass, so a converged fit does exactly the
        sequential loop's work — less the three sparse products per
        objective (``Xpᵀ·Sp``, ``Xuᵀ·Su``, ``Xr·Sp``) that the solver's
        objective reads back from its pass and the oracle's recomputes."""
        counts = []
        for cls in (ReferenceOfflineTriClustering, OfflineTriClustering):
            spmm, kernel = CountingSpmm(), CountingKernel()
            result = cls(
                seed=7, max_iterations=60, tolerance=1e-3, patience=2,
                spmm=spmm, kernel=kernel,
            ).fit(graph)
            assert result.converged
            counts.append(
                (result.iterations, len(result.history.records),
                 spmm.calls, kernel.calls)
            )
        iterations, evaluations, oracle_spmm, oracle_kernel = counts[0]
        assert counts[1] == (
            iterations, evaluations, oracle_spmm - 3 * evaluations,
            oracle_kernel,
        )

    @pytest.mark.parametrize("kind", ["offline", "online"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_in_process_backends_use_custom_engines(
        self, graph, kind, n_shards, backend
    ):
        spmm, kernel = CountingSpmm(), CountingKernel()
        result = _solve(
            kind, graph, n_shards=n_shards, backend=backend, max_workers=2,
            spmm=spmm, kernel=kernel,
        )
        assert spmm.calls > 0
        assert kernel.calls > 0
        # Engines and kernels are bit-identical: counting changes nothing.
        reference = _solve(
            kind, graph, n_shards=n_shards, backend=backend, max_workers=2,
            spmm="scipy", kernel="numpy",
        )
        for name in FACTOR_NAMES:
            np.testing.assert_array_equal(
                getattr(result.factors, name),
                getattr(reference.factors, name),
                err_msg=name,
            )

    def test_socket_workers_use_default_engines(self, graph, socket_workers):
        """Workers sweep with the default kernel and engine; the
        coordinator's counting instances see no shard work."""
        spmm, kernel = CountingSpmm(), CountingKernel()
        result = _solve(
            "online", graph, n_shards=2, backend="socket", spmm=spmm,
            kernel=kernel, workers=socket_workers,
        )
        assert spmm.calls == 0
        assert kernel.calls == 0
        reference = _solve("online", graph, n_shards=2, backend="serial")
        for name in FACTOR_NAMES:
            np.testing.assert_array_equal(
                getattr(result.factors, name),
                getattr(reference.factors, name),
                err_msg=name,
            )

    def test_remote_payload_carries_no_engines(self, graph):
        """The socket shipping form holds no kernel or engine; the
        worker's state gets the default pair."""
        from repro.core.kernels import default_kernel
        from repro.core.spmm import default_spmm
        from repro.core.sweep import SweepPlan, _shard_state_from_payload

        plan = SweepPlan.for_solver(OfflineTriClustering(), graph)
        solver = OfflineTriClustering(seed=7)
        factors = solver._initial_factors(graph, np.random.default_rng(0), None)
        with plan.open(
            factors, spmm=CountingSpmm(), kernel=CountingKernel()
        ):
            (state,) = plan.pool._impl._states
            payload = _shard_state_payload(state)
        assert len(payload) == 8
        assert not any(
            isinstance(part, (str, CountingKernel, CountingSpmm))
            for part in payload
        )
        rebuilt = _shard_state_from_payload(payload)
        assert rebuilt.kernel is default_kernel()
        assert rebuilt.cache.spmm is default_spmm()


class TestRoundsPerSolve:
    """One pool round per sweep plus scatter, prime/final-objective and
    merge — the invariant ``benchmarks/check_telemetry.py`` enforces
    for pooled cells, here on the default one-shard path."""

    def test_offline_default_path(self, graph):
        solver = OfflineTriClustering(seed=7, max_iterations=15)
        result = solver.fit(graph)
        telemetry = solver.last_telemetry
        assert telemetry["rounds"] == result.iterations + 3
        assert telemetry["shared_sets"] == 2
        assert telemetry["shared_updates"] == result.iterations

    def test_offline_converging_path(self, graph):
        solver = OfflineTriClustering(
            seed=7, max_iterations=60, tolerance=1e-3, patience=2
        )
        result = solver.fit(graph)
        assert result.converged
        assert solver.last_telemetry["rounds"] == result.iterations + 3

    def test_online_default_path(self, corpus, shared_vectorizer, lexicon):
        from repro.data.stream import SnapshotStream
        from repro.graph.tripartite import build_tripartite_graph

        solver = OnlineTriClustering(seed=7, max_iterations=15)
        for snapshot in SnapshotStream(corpus, interval_days=30):
            graph = build_tripartite_graph(
                snapshot.corpus, vectorizer=shared_vectorizer, lexicon=lexicon
            )
            step = solver.partial_fit(graph)
            telemetry = solver.last_telemetry
            assert telemetry["rounds"] == step.iterations + 3
            assert telemetry["shared_sets"] == 2
            assert telemetry["shared_updates"] == step.iterations


class TestRejectsBadInput:
    """NaN, inf or negative weights never reach a solve: the graph
    rejects them at construction, naming the matrix."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("name", ["Xp", "Xu", "Xr", "Gu"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("kind", ["offline", "online"])
    def test_solvers_never_see_bad_weights(
        self, graph, kind, n_shards, name, value
    ):
        with pytest.raises(ValueError, match=name):
            _solve(
                kind, TripartiteGraph(**corrupted_parts(graph, name, value)),
                n_shards=n_shards,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["offline", "online"])
    def test_solvers_never_see_non_finite_prior(self, graph, kind, value):
        with pytest.raises(ValueError, match="Sf0"):
            _solve(
                kind,
                TripartiteGraph(**corrupted_parts(graph, "Sf0", value)),
                n_shards=1,
            )
