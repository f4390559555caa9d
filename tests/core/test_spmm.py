"""The spmm engine: registry, products, solver determinism.

The contracts under test, in the order :mod:`repro.core.spmm` documents
them:

1. Registry validation: ``"auto"`` and ``"scipy"`` are the one engine,
   and the removed ``"threads"``/``"numba"`` engines and ``spmm_threads``
   budgets are refused by name.
2. Engine products are the scipy expression, in float64 and float32.
3. Solver-level float64 factors are one model whether the engine is
   named ``"auto"``, ``"scipy"`` or passed as an instance — offline,
   online, and sharded across serial/thread/socket backends and shard
   counts (socket workers sweep with the default engine).
4. ``SolverConfig`` carries the knobs (names only) and round-trips them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedTriClustering
from repro.core.spmm import (
    SPMM_ENGINES,
    SpmmEngine,
    default_spmm,
    resolve_spmm,
    validate_spmm,
    validate_spmm_threads,
)
from repro.data.stream import SnapshotStream
from repro.engine.config import EngineConfig, SolverConfig
from repro.graph.tripartite import build_tripartite_graph

#: Rows of the product operands.
ROWS = 6144

FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")


def random_csr(rows, cols, seed, density=0.05, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = sp.random(rows, cols, density=density, format="csr", random_state=rng)
    return x.astype(dtype)


class TestRegistry:
    def test_known_names_validate(self):
        for name in SPMM_ENGINES:
            validate_spmm(name)
        validate_spmm(SpmmEngine())

    def test_unknown_spmm_rejected(self):
        with pytest.raises(ValueError, match="spmm must be one of"):
            validate_spmm("blas")

    def test_removed_threads_engine_refused_by_name(self):
        assert SPMM_ENGINES == ("auto", "scipy")
        with pytest.raises(ValueError, match="'threads' was removed"):
            validate_spmm("threads")

    def test_removed_numba_engine_refused_by_name(self):
        with pytest.raises(ValueError, match="spmm='numba' was removed"):
            resolve_spmm("numba")
        for solver in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(ValueError, match="spmm='numba' was removed"):
                solver(spmm="numba")

    @pytest.mark.parametrize("threads", [None])
    def test_valid_thread_budgets(self, threads):
        validate_spmm_threads(threads)

    @pytest.mark.parametrize("threads", [0, -1, True, 1.5, "2"])
    def test_invalid_thread_budgets(self, threads):
        with pytest.raises(ValueError, match="spmm_threads"):
            validate_spmm_threads(threads)

    @pytest.mark.parametrize("threads", [1, 2, 64])
    def test_removed_thread_budgets_refused_by_name(self, threads):
        message = f"spmm_threads={threads} was removed"
        with pytest.raises(ValueError, match=message):
            resolve_spmm("auto", threads)
        for solver in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(ValueError, match=message):
                solver(spmm_threads=threads)

    def test_resolve_instance_passthrough(self):
        engine = SpmmEngine()
        assert resolve_spmm(engine) is engine

    def test_scipy_resolution_is_shared(self):
        assert resolve_spmm("scipy") is resolve_spmm("scipy")
        assert resolve_spmm("scipy") is default_spmm()
        assert resolve_spmm("auto", None) is default_spmm()


class TestProductBitIdentity:
    """Engine products equal ``np.asarray(x @ dense)`` to the bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_csr_product(self, dtype):
        x = random_csr(ROWS, 64, seed=11, dtype=dtype)
        dense = (
            np.random.default_rng(12).standard_normal((64, 3)).astype(dtype)
        )
        reference = np.asarray(x @ dense)
        produced = resolve_spmm("auto").matmul(x, dense)
        assert produced.dtype == reference.dtype
        np.testing.assert_array_equal(produced, reference)

    def test_zero_row_matrix(self):
        x = sp.csr_matrix((0, 5))
        dense = np.ones((5, 3))
        out = resolve_spmm("auto").matmul(x, dense)
        assert out.shape == (0, 3)


def offline_factors(graph, **overrides):
    params = dict(seed=7, max_iterations=8, tolerance=0.0)
    params.update(overrides)
    return OfflineTriClustering(**params).fit(graph).factors


def assert_factors_equal(left, right):
    for name in FACTOR_NAMES:
        np.testing.assert_array_equal(getattr(left, name), getattr(right, name))


class TestSolverLevelDeterminism:
    """The acceptance matrix: every engine spelling is one model."""

    def test_offline_auto_equals_scipy(self, graph):
        reference = offline_factors(graph, spmm="scipy")
        produced = offline_factors(graph, spmm="auto")
        assert_factors_equal(produced, reference)

    def test_engine_instance_equals_name(self, graph):
        by_name = offline_factors(graph, spmm="auto")
        by_instance = offline_factors(graph, spmm=SpmmEngine())
        assert_factors_equal(by_instance, by_name)

    def test_online_auto_equals_scipy(
        self, corpus, shared_vectorizer, lexicon
    ):
        solvers = {
            name: OnlineTriClustering(max_iterations=8, seed=7, spmm=name)
            for name in ("scipy", "auto")
        }
        snapshots = 0
        for snapshot in SnapshotStream(corpus, interval_days=21):
            g = build_tripartite_graph(
                snapshot.corpus,
                vectorizer=shared_vectorizer,
                lexicon=lexicon,
            )
            steps = {
                name: solver.partial_fit(g)
                for name, solver in solvers.items()
            }
            assert_factors_equal(
                steps["auto"].factors, steps["scipy"].factors
            )
            snapshots += 1
            if snapshots >= 2:
                break
        assert snapshots >= 2

    @pytest.mark.parametrize("backend", ["serial", "thread", "socket"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_instance_equals_scipy(
        self, graph, backend, n_shards, request
    ):
        """An engine instance (kept in process, replaced by the default
        engine on socket workers) gives the named engine's bits."""
        workers = (
            request.getfixturevalue("socket_workers")
            if backend == "socket"
            else None
        )

        def factors(spmm):
            return ShardedTriClustering(
                n_shards=n_shards,
                backend=backend,
                workers=workers,
                seed=7,
                max_iterations=5,
                tolerance=0.0,
                spmm=spmm,
            ).fit(graph).factors

        reference = factors("scipy")
        produced = factors(SpmmEngine())
        assert_factors_equal(produced, reference)


class TestSolverConfig:
    def test_defaults_validate(self):
        config = SolverConfig()
        assert config.spmm == "auto"
        assert config.spmm_threads is None

    def test_unknown_spmm_rejected(self):
        with pytest.raises(ValueError, match="spmm must be one of"):
            SolverConfig(spmm="blas")

    def test_instance_rejected_names_only(self):
        with pytest.raises(ValueError, match="must be a string"):
            SolverConfig(spmm=SpmmEngine())

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError, match="spmm_threads"):
            SolverConfig(spmm_threads=0)

    def test_round_trip(self):
        config = EngineConfig(solver={"spmm": "scipy"})
        restored = EngineConfig.from_dict(config.to_dict())
        assert restored.solver.spmm == "scipy"
        assert restored.solver.spmm_threads is None
