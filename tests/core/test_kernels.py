"""Sweep kernels: registry, fused-tail bit-identity, float32 mode.

The contracts under test, in the order the module documents them:

1. Kernel/dtype registry validation: ``"auto"`` and ``"numpy"`` are
   the one kernel, and the removed ``"numba"`` kernel and thread budget
   are refused by name.
2. The fused tails evaluate the exact IEEE operation sequence of the
   historical ``safe_sqrt_ratio`` chains — bitwise, in both dtypes,
   including the clamp edge cases — and never mutate their inputs.
3. Solver-level float64 results are one model whether the kernel is
   named or passed as an instance (bit-identical factors).
4. float32 is a speed/memory mode, not a different algorithm: factors
   come out float32 end to end, the objective trajectory tracks float64
   within a documented tolerance (offline and online), and checkpoints
   round-trip the dtype.
"""

import numpy as np
import pytest

from repro.core.kernels import (
    DTYPES,
    KERNELS,
    Kernel,
    cast_matrix,
    default_kernel,
    resolve_dtype,
    resolve_kernel,
    validate_dtype,
    validate_kernel,
)
from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedTriClustering
from repro.data.stream import SnapshotStream
from repro.graph.tripartite import build_tripartite_graph
from repro.utils.matrices import safe_sqrt_ratio

DTYPE_OBJS = (np.float64, np.float32)

#: Documented float32-vs-float64 objective tolerance at test scale.
#: (The benchmark documents the scale-dependent envelope: drift grows
#: with accumulation length, ~1e-3 at 20k users, <1% at bench scales.)
F32_TRACE_RTOL = 2e-3


def tail_operands(seed, rows=257, k=3, dtype=np.float64):
    """Random tail inputs exercising both clamps.

    Numerators get a sprinkling of negatives (the ``max(·, 0)`` leg);
    denominators a sprinkling of exact zeros (the ``max(·, EPS)`` leg).
    """
    rng = np.random.default_rng(seed)

    def mat(negatives=False, zeros=False):
        a = rng.uniform(0.01, 2.0, (rows, k))
        if negatives:
            a[rng.random((rows, k)) < 0.25] *= -1.0
        if zeros:
            a[rng.random((rows, k)) < 0.25] = 0.0
        return a.astype(dtype)

    return dict(
        s=mat(),
        numerator=mat(negatives=True),
        denominator=mat(zeros=True),
        extra=mat(),
        prior=mat(),
    )


class TestRegistry:
    def test_known_names_validate(self):
        for name in KERNELS:
            validate_kernel(name)
        validate_kernel(Kernel())

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            validate_kernel("fortran")

    def test_dtypes(self):
        for name in DTYPES:
            validate_dtype(name)
            assert resolve_dtype(name) == np.dtype(name)
        with pytest.raises(ValueError, match="dtype"):
            validate_dtype("float16")

    def test_resolve_instance_passthrough(self):
        kernel = Kernel()
        assert resolve_kernel(kernel) is kernel

    def test_numpy_resolution_is_shared(self):
        assert KERNELS == ("auto", "numpy")
        assert resolve_kernel("numpy") is resolve_kernel("numpy")
        assert resolve_kernel("auto") is default_kernel()
        assert default_kernel().name == "numpy"

    def test_removed_numba_kernel_refused_by_name(self):
        with pytest.raises(ValueError, match="kernel='numba' was removed"):
            validate_kernel("numba")
        with pytest.raises(ValueError, match="kernel='numba' was removed"):
            resolve_kernel("numba")
        for solver in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(ValueError, match="kernel='numba' was removed"):
                solver(kernel="numba")

    def test_removed_thread_budget_refused_by_name(self):
        assert resolve_kernel("auto", threads=None) is default_kernel()
        with pytest.raises(ValueError, match="spmm_threads=2 was removed"):
            resolve_kernel("auto", threads=2)

    def test_cast_matrix(self):
        a = np.ones((3, 2))
        assert cast_matrix(a, np.dtype("float64")) is a
        assert cast_matrix(a, np.dtype("float32")).dtype == np.float32
        assert cast_matrix(None, np.dtype("float32")) is None


class TestFusedTailsMatchLegacyChains:
    """The fused tails are the historical expressions, bit for bit."""

    @pytest.mark.parametrize("dtype", DTYPE_OBJS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiply_tail(self, seed, dtype):
        ops = tail_operands(seed, dtype=dtype)
        fused = Kernel().multiply_tail(
            ops["s"], ops["numerator"].copy(), ops["denominator"].copy()
        )
        legacy = ops["s"] * safe_sqrt_ratio(
            ops["numerator"], ops["denominator"]
        )
        np.testing.assert_array_equal(fused, legacy)
        assert fused.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPE_OBJS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_projector_tail(self, seed, dtype):
        ops = tail_operands(seed, dtype=dtype)
        fused = Kernel().projector_tail(
            ops["s"], ops["numerator"].copy(), ops["denominator"].copy()
        )
        legacy = ops["s"] * safe_sqrt_ratio(
            ops["numerator"], ops["denominator"]
        )
        np.testing.assert_array_equal(fused, legacy)

    @pytest.mark.parametrize("dtype", DTYPE_OBJS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_graph_tail(self, seed, dtype):
        ops = tail_operands(seed, dtype=dtype)
        beta = 0.8
        fused = Kernel().graph_tail(
            ops["s"], ops["numerator"], ops["denominator"],
            ops["extra"], ops["prior"], beta,
        )
        legacy = ops["s"] * safe_sqrt_ratio(
            ops["numerator"] + beta * ops["extra"],
            ops["denominator"] + beta * ops["prior"],
        )
        np.testing.assert_array_equal(fused, legacy)
        assert fused.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPE_OBJS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prior_tail(self, seed, dtype):
        ops = tail_operands(seed, dtype=dtype)
        alpha = 0.05
        fused = Kernel().prior_tail(
            ops["s"], ops["numerator"], ops["denominator"],
            ops["prior"], alpha,
        )
        legacy = ops["s"] * safe_sqrt_ratio(
            ops["numerator"] + alpha * ops["prior"],
            ops["denominator"] + alpha * ops["s"],
        )
        np.testing.assert_array_equal(fused, legacy)

    @pytest.mark.parametrize("dtype", DTYPE_OBJS)
    def test_accumulate_is_in_place_sum(self, dtype):
        ops = tail_operands(3, dtype=dtype)
        acc = ops["numerator"].copy()
        expected = ops["numerator"] + ops["extra"]
        out = Kernel().accumulate(acc, ops["extra"])
        assert out is acc  # fused: adds into the caller-owned buffer
        np.testing.assert_array_equal(out, expected)

    def test_tails_do_not_mutate_protected_inputs(self):
        ops = tail_operands(4)
        s = ops["s"].copy()
        gu_su, du_su = ops["extra"].copy(), ops["prior"].copy()
        Kernel().graph_tail(
            ops["s"], ops["numerator"], ops["denominator"],
            ops["extra"], ops["prior"], 0.5,
        )
        np.testing.assert_array_equal(ops["s"], s)
        np.testing.assert_array_equal(ops["extra"], gu_su)
        np.testing.assert_array_equal(ops["prior"], du_su)


def offline_factors(graph, **overrides):
    params = dict(seed=7, max_iterations=8, tolerance=0.0)
    params.update(overrides)
    return OfflineTriClustering(**params).fit(graph).factors


FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")


class TestSolverLevelIdentity:
    def test_kernel_instance_equals_name(self, graph):
        by_name = offline_factors(graph, kernel="numpy")
        by_instance = offline_factors(graph, kernel=Kernel())
        for name in FACTOR_NAMES:
            np.testing.assert_array_equal(
                getattr(by_name, name), getattr(by_instance, name)
            )


class TestFloat32Mode:
    def test_dtype_threads_through_offline(self, graph):
        factors = offline_factors(graph, dtype="float32")
        for name in FACTOR_NAMES:
            assert getattr(factors, name).dtype == np.float32
        default = offline_factors(graph)
        for name in FACTOR_NAMES:
            assert getattr(default, name).dtype == np.float64

    def test_offline_objective_trace_tracks_float64(self, graph):
        def totals(dtype):
            result = OfflineTriClustering(
                seed=7, max_iterations=10, tolerance=0.0, dtype=dtype
            ).fit(graph)
            return np.array(
                [rec.objective.total for rec in result.history.records]
            )

        t64, t32 = totals("float64"), totals("float32")
        assert t64.shape == t32.shape
        np.testing.assert_allclose(t32, t64, rtol=F32_TRACE_RTOL)

    def test_online_trace_tracks_float64(
        self, corpus, shared_vectorizer, lexicon
    ):
        solvers = {
            dtype: OnlineTriClustering(
                max_iterations=10, seed=7, dtype=dtype
            )
            for dtype in ("float64", "float32")
        }
        snapshots = 0
        for snapshot in SnapshotStream(corpus, interval_days=21):
            g = build_tripartite_graph(
                snapshot.corpus,
                vectorizer=shared_vectorizer,
                lexicon=lexicon,
            )
            steps = {
                dtype: solver.partial_fit(g)
                for dtype, solver in solvers.items()
            }
            assert steps["float32"].factors.su.dtype == np.float32
            totals = {
                dtype: np.array(
                    [rec.objective.total for rec in step.history.records]
                )
                for dtype, step in steps.items()
            }
            np.testing.assert_allclose(
                totals["float32"], totals["float64"], rtol=F32_TRACE_RTOL
            )
            snapshots += 1
            if snapshots >= 3:
                break
        assert snapshots >= 2

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_sharded_float32_matches_serial_backend(self, graph, backend):
        def factors(chosen_backend):
            return ShardedTriClustering(
                n_shards=2,
                backend=chosen_backend,
                seed=7,
                max_iterations=6,
                tolerance=0.0,
                dtype="float32",
            ).fit(graph).factors

        reference = factors("serial")
        other = factors(backend)
        for name in FACTOR_NAMES:
            assert getattr(other, name).dtype == np.float32
            np.testing.assert_array_equal(
                getattr(other, name), getattr(reference, name)
            )
