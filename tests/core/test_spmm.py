"""Spmm engines: registry, product bit-identity, solver determinism.

The contracts under test, in the order :mod:`repro.core.spmm` documents
them:

1. Registry validation and ``"auto"`` resolution (numba when importable,
   scipy otherwise; an explicit ``"numba"`` without numba is an error,
   never a silent fallback; the removed ``"threads"`` engine is refused
   by name).
2. Engine products are float64 (and float32) bit-identical to the scipy
   reference at any thread budget, including every guarded fallback
   (non-CSR, dense, 1-d operand, small row counts).
3. Solver-level float64 factors are one model across engines and thread
   budgets — offline, online, and sharded across serial/thread/socket
   backends and shard counts — because the engine knob is speed-only.
4. ``SolverConfig`` carries the knobs (names only) and round-trips them.

The product and solver matrices run ``spmm="auto"`` at each thread
budget: numba's ``prange`` row loop where numba is installed (the CI
with-numba leg), the scipy reference otherwise.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.kernels import numba_available
from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedTriClustering
from repro.core.spmm import (
    SPMM_ENGINES,
    ScipySpmmEngine,
    SpmmEngine,
    _resolve_threads,
    default_spmm,
    get_spmm,
    resolve_spmm,
    resolve_spmm_name,
    validate_spmm,
    validate_spmm_threads,
)
from repro.data.stream import SnapshotStream
from repro.engine.config import EngineConfig, SolverConfig
from repro.graph.tripartite import build_tripartite_graph

#: The thread budgets the acceptance matrix pins (1 = serial, 2/4 =
#: genuinely partitioned rows under the numba engine).
THREADS = (1, 2, 4)

#: Rows of the product operands: enough for every thread to own many.
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
        validate_spmm(ScipySpmmEngine())

    def test_unknown_spmm_rejected(self):
        with pytest.raises(ValueError, match="spmm must be one of"):
            validate_spmm("blas")

    def test_removed_threads_engine_refused_by_name(self):
        assert SPMM_ENGINES == ("auto", "scipy", "numba")
        with pytest.raises(ValueError, match="'threads' was removed"):
            validate_spmm("threads")

    @pytest.mark.parametrize("threads", [None, 1, 2, 64])
    def test_valid_thread_budgets(self, threads):
        validate_spmm_threads(threads)

    @pytest.mark.parametrize("threads", [0, -1, True, 1.5, "2"])
    def test_invalid_thread_budgets(self, threads):
        with pytest.raises(ValueError, match="spmm_threads"):
            validate_spmm_threads(threads)

    def test_resolve_instance_passthrough(self):
        engine = ScipySpmmEngine()
        assert resolve_spmm(engine) is engine

    def test_scipy_resolution_is_shared(self):
        assert resolve_spmm("scipy") is resolve_spmm("scipy")
        assert resolve_spmm("scipy") is default_spmm()

    def test_auto_matches_host(self):
        expected = "numba" if numba_available() else "scipy"
        assert resolve_spmm("auto").name == expected
        assert resolve_spmm_name("auto") == expected

    def test_custom_instance_resolves_to_scipy_name(self):
        class Custom(SpmmEngine):
            name = "custom"

        assert resolve_spmm_name(Custom()) == "scipy"
        assert resolve_spmm_name(ScipySpmmEngine()) == "scipy"

    def test_concrete_names_pin_through(self):
        for name in ("scipy", "numba") if numba_available() else ("scipy",):
            assert resolve_spmm_name(name) == name
            assert get_spmm(name, 2).name == name

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_explicit_numba_without_numba_raises(self):
        with pytest.raises(RuntimeError, match="numba is not importable"):
            resolve_spmm("numba")

    def test_env_override_sets_thread_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMM_THREADS", "3")
        assert _resolve_threads(None) == 3
        monkeypatch.delenv("REPRO_SPMM_THREADS")
        assert _resolve_threads(5) == 5


class TestProductBitIdentity:
    """Engine products equal ``np.asarray(x @ dense)`` to the bit."""

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_threaded_csr_product(self, threads, dtype):
        x = random_csr(ROWS, 64, seed=11, dtype=dtype)
        dense = (
            np.random.default_rng(12).standard_normal((64, 3)).astype(dtype)
        )
        reference = np.asarray(x @ dense)
        produced = resolve_spmm("auto", threads).matmul(x, dense)
        assert produced.dtype == reference.dtype
        np.testing.assert_array_equal(produced, reference)

    def test_threaded_product_with_empty_rows(self):
        # Zero-nnz rows: each row's accumulation starts and ends empty.
        x = random_csr(ROWS, 32, seed=13, density=0.001)
        dense = np.random.default_rng(14).standard_normal((32, 3))
        np.testing.assert_array_equal(
            resolve_spmm("auto", 4).matmul(x, dense),
            np.asarray(x @ dense),
        )

    @pytest.mark.parametrize(
        "operand",
        ["csc", "dense", "small", "vector"],
    )
    def test_guarded_fallbacks_match_scipy(self, operand):
        rng = np.random.default_rng(15)
        x = random_csr(7 if operand == "small" else ROWS, 16, seed=16)
        if operand == "csc":
            x = x.tocsc()
        elif operand == "dense":
            x = x.toarray()
        dense = (
            rng.standard_normal(16)
            if operand == "vector"
            else rng.standard_normal((16, 3))
        )
        engine = resolve_spmm("auto", 4)
        np.testing.assert_array_equal(
            engine.matmul(x, dense), np.asarray(x @ dense)
        )

    def test_zero_row_matrix(self):
        x = sp.csr_matrix((0, 5))
        dense = np.ones((5, 3))
        out = resolve_spmm("auto", 2).matmul(x, dense)
        assert out.shape == (0, 3)


def offline_factors(graph, **overrides):
    params = dict(seed=7, max_iterations=8, tolerance=0.0)
    params.update(overrides)
    return OfflineTriClustering(**params).fit(graph).factors


def assert_factors_equal(left, right):
    for name in FACTOR_NAMES:
        np.testing.assert_array_equal(getattr(left, name), getattr(right, name))


class TestSolverLevelDeterminism:
    """The acceptance matrix: engines are speed-only at solver level."""

    @pytest.mark.parametrize("threads", THREADS)
    def test_offline_threads_equals_scipy(self, graph, threads):
        reference = offline_factors(graph, spmm="scipy")
        produced = offline_factors(graph, spmm="auto", spmm_threads=threads)
        assert_factors_equal(produced, reference)

    def test_engine_instance_equals_name(self, graph):
        by_name = offline_factors(graph, spmm="auto", spmm_threads=2)
        by_instance = offline_factors(graph, spmm=resolve_spmm("auto", 2))
        assert_factors_equal(by_instance, by_name)

    def test_online_threads_equals_scipy(
        self, corpus, shared_vectorizer, lexicon
    ):
        solvers = {
            name: OnlineTriClustering(
                max_iterations=8, seed=7, spmm=name, spmm_threads=2
            )
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
    def test_sharded_threads_equals_scipy(
        self, graph, backend, n_shards, request
    ):
        workers = (
            request.getfixturevalue("socket_workers")
            if backend == "socket"
            else None
        )

        def factors(spmm, **extra):
            return ShardedTriClustering(
                n_shards=n_shards,
                backend=backend,
                workers=workers,
                seed=7,
                max_iterations=5,
                tolerance=0.0,
                spmm=spmm,
                **extra,
            ).fit(graph).factors

        reference = factors("scipy")
        produced = factors("auto", spmm_threads=2)
        assert_factors_equal(produced, reference)

    @pytest.mark.parametrize("threads", THREADS)
    def test_sharded_thread_count_is_bit_neutral(self, graph, threads):
        def factors(**extra):
            return ShardedTriClustering(
                n_shards=2,
                backend="thread",
                seed=7,
                max_iterations=5,
                tolerance=0.0,
                **extra,
            ).fit(graph).factors

        reference = factors(spmm="scipy")
        produced = factors(spmm="auto", spmm_threads=threads)
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
            SolverConfig(spmm=ScipySpmmEngine())

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError, match="spmm_threads"):
            SolverConfig(spmm_threads=0)

    def test_round_trip(self):
        config = EngineConfig(
            solver={"spmm": "scipy", "spmm_threads": 4}
        )
        restored = EngineConfig.from_dict(config.to_dict())
        assert restored.solver.spmm == "scipy"
        assert restored.solver.spmm_threads == 4
