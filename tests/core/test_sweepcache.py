"""SweepCache: reuse accounting + behavioural equivalence regression.

The acceptance bar for the cache refactor is strict: threading a
``SweepCache`` through the update kernels must not change solver output
at all (the cached path evaluates the same expressions on the same
inputs, so factors should match the uncached path to well below 1e-10).
"""

import numpy as np
import pytest

from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sweepcache import SweepCache
from repro.core.updates import (
    update_hp,
    update_hu,
    update_sf,
    update_sp,
    update_su_online,
)
from tests.core.test_updates import make_problem

#: Update styles the parametrized tests below run (their ids name it);
#: the projector closed form is the only one.
STYLES = ("projector",)


class TestMemoization:
    def test_reuses_product_for_same_factor(self):
        f, xp, xu, xr, gu, du, sf0 = make_problem(0)
        cache = SweepCache(xp, xu)
        first = cache.xp_sf(f["sf"])
        second = cache.xp_sf(f["sf"])
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_recomputes_when_factor_changes(self):
        f, xp, xu, xr, gu, du, sf0 = make_problem(0)
        cache = SweepCache(xp, xu)
        old = cache.xp_sf(f["sf"])
        new_sf = f["sf"] * 2.0
        fresh = cache.xp_sf(new_sf)
        assert fresh is not old
        np.testing.assert_allclose(fresh, 2.0 * old)

    def test_gram_slots_are_independent(self):
        f, xp, xu, xr, gu, du, sf0 = make_problem(1)
        cache = SweepCache(xp, xu)
        gram_sf = cache.gram("sf", f["sf"])
        gram_sp = cache.gram("sp", f["sp"])
        np.testing.assert_allclose(gram_sf, f["sf"].T @ f["sf"])
        np.testing.assert_allclose(gram_sp, f["sp"].T @ f["sp"])

    def test_full_sweep_hits_shared_products(self):
        """One Algorithm-1-order sweep reuses Xp·Sf, Xu·Sf and Sfᵀ·Sf."""
        f, xp, xu, xr, gu, du, sf0 = make_problem(2)
        cache = SweepCache(xp, xu)
        sp_new = update_sp(
            f["sp"], f["sf"], f["hp"], f["su"], xp, xr, cache=cache
        )
        update_hp(f["hp"], sp_new, f["sf"], xp, cache=cache)
        su_new = update_su_online(
            f["su"], f["sf"], f["hu"], sp_new, xu, xr, gu, du, 0.8,
            cache=cache,
        )
        update_hu(f["hu"], su_new, f["sf"], xu, cache=cache)
        # xp_sf (hp reuses sp's), xu_sf (hu reuses su's), gram sf (hu
        # reuses hp's).
        assert cache.hits >= 3


class TestKernelEquivalence:
    """Cached and uncached kernels return bit-identical results."""

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_kernel(self, style, seed):
        f, xp, xu, xr, gu, du, sf0 = make_problem(seed)
        cache = SweepCache(xp, xu)
        pairs = [
            (
                update_sp(f["sp"], f["sf"], f["hp"], f["su"], xp, xr),
                update_sp(
                    f["sp"], f["sf"], f["hp"], f["su"], xp, xr, cache=cache
                ),
            ),
            (
                update_su_online(
                    f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8
                ),
                update_su_online(
                    f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8,
                    cache=cache,
                ),
            ),
            (
                update_sf(
                    f["sf"], f["sp"], f["hp"], f["su"], f["hu"], xp, xu,
                    sf0, 0.05,
                ),
                update_sf(
                    f["sf"], f["sp"], f["hp"], f["su"], f["hu"], xp, xu,
                    sf0, 0.05, cache=cache,
                ),
            ),
            (
                update_hp(f["hp"], f["sp"], f["sf"], xp),
                update_hp(f["hp"], f["sp"], f["sf"], xp, cache=cache),
            ),
            (
                update_hu(f["hu"], f["su"], f["sf"], xu),
                update_hu(f["hu"], f["su"], f["sf"], xu, cache=cache),
            ),
            (
                update_su_online(
                    f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du,
                    0.8, 0.2, f["su"][:2] * 0.9, np.array([0, 1]),
                ),
                update_su_online(
                    f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du,
                    0.8, 0.2, f["su"][:2] * 0.9, np.array([0, 1]),
                    cache=cache,
                ),
            ),
        ]
        for plain, cached in pairs:
            np.testing.assert_allclose(plain, cached, rtol=0.0, atol=1e-10)


class TestSolverEquivalence:
    """Full solver runs match the uncached kernels' trajectories.

    The solvers now always construct a SweepCache internally, so the
    reference trajectory is replayed here with bare kernel calls in the
    same sweep order.
    """

    @pytest.mark.parametrize("style", STYLES)
    def test_offline_fit_matches_manual_sweeps(self, graph, style):
        iterations = 8
        solver = OfflineTriClustering(
            max_iterations=iterations,
            tolerance=0.0,
            seed=7,
            track_history=False,
        )
        result = solver.fit(graph)

        # Replay without any cache, starting from the identical init.
        from repro.core.initialization import lexicon_seeded_factors
        from repro.utils.rng import spawn_rng

        factors = lexicon_seeded_factors(
            graph.num_tweets, graph.num_users, graph.sf0, seed=spawn_rng(7)
        )
        xp, xu, xr = graph.xp, graph.xu, graph.xr
        gu = graph.user_graph.adjacency
        du = graph.user_graph.degree_matrix
        for _ in range(iterations):
            factors.sp = update_sp(
                factors.sp, factors.sf, factors.hp, factors.su, xp, xr
            )
            factors.hp = update_hp(factors.hp, factors.sp, factors.sf, xp)
            factors.su = update_su_online(
                factors.su, factors.sf, factors.hu, factors.sp, xu, xr,
                gu, du, 0.8,
            )
            factors.hu = update_hu(factors.hu, factors.su, factors.sf, xu)
            factors.sf = update_sf(
                factors.sf, factors.sp, factors.hp, factors.su, factors.hu,
                xp, xu, graph.sf0, 0.05,
            )

        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_allclose(
                getattr(result.factors, name),
                getattr(factors, name),
                rtol=0.0,
                atol=1e-10,
                err_msg=f"factor {name} diverged from uncached trajectory",
            )

    def test_online_partial_fit_matches_across_snapshots(
        self, corpus, shared_vectorizer, lexicon
    ):
        """Two independently seeded solvers agree step by step.

        (Both use the internal cache; this guards the online wiring —
        warm starts, priors and row bookkeeping — against cache-related
        regressions.)
        """
        from repro.data.stream import SnapshotStream
        from repro.graph.tripartite import build_tripartite_graph

        solver_a = OnlineTriClustering(max_iterations=15, seed=7)
        solver_b = OnlineTriClustering(max_iterations=15, seed=7)
        for snapshot in SnapshotStream(corpus, interval_days=21):
            g = build_tripartite_graph(
                snapshot.corpus, vectorizer=shared_vectorizer, lexicon=lexicon
            )
            step_a = solver_a.partial_fit(g)
            step_b = solver_b.partial_fit(g)
            np.testing.assert_allclose(
                step_a.factors.su, step_b.factors.su, rtol=0.0, atol=1e-10
            )
            np.testing.assert_allclose(
                step_a.factors.sf, step_b.factors.sf, rtol=0.0, atol=1e-10
            )


class TestTransposeBudgetBoundary:
    """Both layout choices at the exact working-set threshold.

    The policy is ``operand_rows * itemsize <= TRANSPOSE_OPERAND_BUDGET``
    (inclusive): a budget equal to the working set materializes the CSR
    transpose, one byte less falls back to the lazy CSC view.  Either
    side must produce bitwise-equal update results — the budget is a
    speed knob, never a semantics knob.
    """

    @staticmethod
    def _working_set(x):
        return x.shape[0] * x.dtype.itemsize

    def test_accessors_flip_at_exact_threshold(self, monkeypatch):
        from repro.core import sweepcache as sweepcache_module

        f, xp, xu, xr, gu, du, sf0 = make_problem(3)
        threshold = self._working_set(xp)
        monkeypatch.setattr(
            sweepcache_module, "TRANSPOSE_OPERAND_BUDGET", threshold
        )
        at_budget = SweepCache(xp, xu, xr)
        materialized = at_budget.xp_T()
        assert materialized is not None
        assert materialized.format == "csr"
        assert at_budget.xp_T() is materialized  # per-solve, built once

        monkeypatch.setattr(
            sweepcache_module, "TRANSPOSE_OPERAND_BUDGET", threshold - 1
        )
        past_budget = SweepCache(xp, xu, xr)
        assert past_budget.xp_T() is None

    def test_sweep_bitwise_equal_either_side(self, monkeypatch):
        from repro.core import sweepcache as sweepcache_module

        f, xp, xu, xr, gu, du, sf0 = make_problem(4)
        threshold = max(
            self._working_set(xp),
            self._working_set(xu),
            self._working_set(xr),
        )

        def sweep(budget):
            monkeypatch.setattr(
                sweepcache_module, "TRANSPOSE_OPERAND_BUDGET", budget
            )
            cache = SweepCache(xp, xu, xr)
            sp_new = update_sp(
                f["sp"], f["sf"], f["hp"], f["su"], xp, xr, cache=cache
            )
            su_new = update_su_online(
                f["su"], f["sf"], f["hu"], sp_new, xu, xr, gu, du,
                beta=0.8, cache=cache,
            )
            sf_new = update_sf(
                f["sf"], sp_new, f["hp"], su_new, f["hu"], xp, xu,
                sf_prior=sf0, alpha=0.9, cache=cache,
            )
            return sp_new, su_new, sf_new

        materialized = sweep(threshold)
        lazy = sweep(threshold - 1)
        for csr_result, csc_result in zip(materialized, lazy):
            np.testing.assert_array_equal(csr_result, csc_result)

    def test_prefers_csr_engine_overrides_budget(self, monkeypatch):
        """A row-parallel spmm engine pins the CSR layout at any budget."""
        from repro.core import sweepcache as sweepcache_module
        from repro.core.spmm import SpmmEngine

        class RowParallelEngine(SpmmEngine):
            prefers_csr = True

        monkeypatch.setattr(
            sweepcache_module, "TRANSPOSE_OPERAND_BUDGET", 0
        )
        f, xp, xu, xr, gu, du, sf0 = make_problem(5)
        assert SweepCache(xp, xu, xr).xp_T() is None  # budget alone: lazy
        cache = SweepCache(xp, xu, xr, spmm=RowParallelEngine())
        for accessor in (cache.xp_T, cache.xu_T, cache.xr_T):
            transpose = accessor()
            assert transpose is not None
            assert transpose.format == "csr"
