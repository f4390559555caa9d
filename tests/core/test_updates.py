"""Unit + property tests for the multiplicative update kernels.

Key invariants:

- every update preserves non-negativity and finiteness;
- exact factorizations are (near) fixed points;
- the plain ``Hp``/``Hu`` updates never increase their sub-objective
  (the provable part of the paper's convergence claim);
- the projector-style full sweep decreases the total objective on real
  data (tested in test_offline.py at the solver level).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import trifactor_loss
from repro.core.updates import (
    update_hp,
    update_hu,
    update_sf,
    update_sp,
    update_su_online,
)

DIMENSIONS = dict(n=8, m=5, l=10, k=3)


def make_problem(seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    n, m, l, k = DIMENSIONS.values()
    xp = sp.random(n, l, density=density, random_state=seed, format="csr")
    xu = sp.random(m, l, density=density, random_state=seed + 1, format="csr")
    xr = sp.random(m, n, density=density, random_state=seed + 2, format="csr")
    adjacency = rng.random((m, m))
    adjacency = (adjacency + adjacency.T) / 2
    np.fill_diagonal(adjacency, 0.0)
    gu = sp.csr_matrix(adjacency)
    du = sp.diags(np.asarray(gu.sum(axis=1)).ravel()).tocsr()
    factors = dict(
        sf=rng.uniform(0.01, 1.0, (l, k)),
        sp=rng.uniform(0.01, 1.0, (n, k)),
        su=rng.uniform(0.01, 1.0, (m, k)),
        hp=rng.uniform(0.01, 1.0, (k, k)),
        hu=rng.uniform(0.01, 1.0, (k, k)),
    )
    sf0 = np.full((l, k), 1.0 / k)
    return factors, xp, xu, xr, gu, du, sf0


#: Update styles the parametrized tests below run (their ids name it);
#: the projector closed form is the only one.
STYLES = ("projector",)


class TestNonNegativityAndFiniteness:
    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_updates(self, style, seed):
        f, xp, xu, xr, gu, du, sf0 = make_problem(seed)
        new_sp = update_sp(f["sp"], f["sf"], f["hp"], f["su"], xp, xr)
        new_su = update_su_online(
            f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8
        )
        new_sf = update_sf(
            f["sf"], f["sp"], f["hp"], f["su"], f["hu"], xp, xu, sf0, 0.05,
        )
        new_hp = update_hp(f["hp"], f["sp"], f["sf"], xp)
        new_hu = update_hu(f["hu"], f["su"], f["sf"], xu)
        for matrix in (new_sp, new_su, new_sf, new_hp, new_hu):
            assert np.all(matrix >= 0.0)
            assert np.all(np.isfinite(matrix))

    @pytest.mark.parametrize("style", STYLES)
    def test_iterated_updates_stay_finite(self, style):
        f, xp, xu, xr, gu, du, sf0 = make_problem(3)
        for _ in range(50):
            f["sp"] = update_sp(f["sp"], f["sf"], f["hp"], f["su"], xp, xr)
            f["hp"] = update_hp(f["hp"], f["sp"], f["sf"], xp)
            f["su"] = update_su_online(
                f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8
            )
            f["hu"] = update_hu(f["hu"], f["su"], f["sf"], xu)
            f["sf"] = update_sf(
                f["sf"], f["sp"], f["hp"], f["su"], f["hu"], xp, xu, sf0,
                0.05,
            )
        for matrix in f.values():
            assert np.all(np.isfinite(matrix))
            assert np.all(matrix >= 0.0)


class TestHMonotonicity:
    """The plain NMF updates must never increase their sub-objective."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_hp_non_increasing(self, seed):
        f, xp, _, _, _, _, _ = make_problem(seed)
        before = trifactor_loss(xp, f["sp"], f["hp"], f["sf"])
        hp = f["hp"]
        for _ in range(5):
            hp = update_hp(hp, f["sp"], f["sf"], xp)
            after = trifactor_loss(xp, f["sp"], hp, f["sf"])
            assert after <= before * (1 + 1e-9)
            before = after

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_hu_non_increasing(self, seed):
        f, _, xu, _, _, _, _ = make_problem(seed)
        before = trifactor_loss(xu, f["su"], f["hu"], f["sf"])
        hu = f["hu"]
        for _ in range(5):
            hu = update_hu(hu, f["su"], f["sf"], xu)
            after = trifactor_loss(xu, f["su"], hu, f["sf"])
            assert after <= before * (1 + 1e-9)
            before = after


class TestFixedPoints:
    def test_zero_entries_stay_zero(self):
        f, xp, xu, xr, gu, du, sf0 = make_problem(0)
        f["sp"][0, :] = 0.0
        new_sp = update_sp(f["sp"], f["sf"], f["hp"], f["su"], xp, xr)
        assert np.all(new_sp[0, :] == 0.0)

    def test_hp_fixed_point_at_exact_fit(self):
        rng = np.random.default_rng(5)
        n, l, k = 6, 8, 3
        sp_factor = rng.uniform(0.1, 1.0, (n, k))
        sf = rng.uniform(0.1, 1.0, (l, k))
        hp = rng.uniform(0.1, 1.0, (k, k))
        xp = sp_factor @ hp @ sf.T  # exact factorization
        new_hp = update_hp(hp, sp_factor, sf, xp)
        assert np.allclose(new_hp, hp, rtol=1e-6)


class TestOnlineUserUpdate:
    def test_matches_offline_without_temporal_terms(self):
        """Without prior rows the update is the offline Eq. (11)."""
        f, xp, xu, xr, gu, du, sf0 = make_problem(1)
        su, beta = f["su"], 0.8
        attraction = (xu @ f["sf"]) @ f["hu"].T + xr @ f["sp"]
        numerator = attraction + beta * (gu @ su)
        denominator = su @ (su.T @ attraction) + beta * (du @ su)
        offline = su * np.sqrt(np.maximum(numerator, 0.0) / denominator)
        online = update_su_online(
            f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, beta,
            gamma=0.0, su_prior=None, evolving_rows=None,
        )
        assert np.allclose(offline, online)

    def test_temporal_term_pulls_toward_prior(self):
        f, xp, xu, xr, gu, du, sf0 = make_problem(2)
        rows = np.array([0, 1])
        prior = np.full((2, 3), 5.0)  # prior far above current values
        without = update_su_online(
            f["su"].copy(), f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8,
            gamma=0.0, su_prior=None, evolving_rows=None,
        )
        with_temporal = update_su_online(
            f["su"].copy(), f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8,
            gamma=5.0, su_prior=prior, evolving_rows=rows,
        )
        # evolving rows move up toward the large prior
        assert np.all(with_temporal[rows] >= without[rows] - 1e-12)
        # non-evolving rows are untouched by the temporal term
        assert np.allclose(with_temporal[2:], without[2:])

    @pytest.mark.parametrize("style", STYLES)
    def test_nonnegative_with_temporal(self, style):
        f, xp, xu, xr, gu, du, sf0 = make_problem(4)
        rows = np.array([0, 2])
        prior = np.abs(np.random.default_rng(0).normal(size=(2, 3)))
        out = update_su_online(
            f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8,
            gamma=0.3, su_prior=prior, evolving_rows=rows,
        )
        assert np.all(out >= 0.0)
        assert np.all(np.isfinite(out))


class TestAlphaPrior:
    def test_alpha_pulls_sf_toward_prior(self):
        f, xp, xu, xr, gu, du, _ = make_problem(6)
        sf0 = np.zeros_like(f["sf"])
        sf0[:, 0] = 1.0  # prior concentrates mass on column 0
        weak = update_sf(
            f["sf"].copy(), f["sp"], f["hp"], f["su"], f["hu"], xp, xu,
            sf0, alpha=0.0,
        )
        strong = update_sf(
            f["sf"].copy(), f["sp"], f["hp"], f["su"], f["hu"], xp, xu,
            sf0, alpha=100.0,
        )
        # Under a strong prior, column 0 mass share grows relative to the
        # unregularized update.
        share_weak = weak[:, 0].sum() / weak.sum()
        share_strong = strong[:, 0].sum() / strong.sum()
        assert share_strong > share_weak

    def test_none_prior_equals_zero_alpha(self):
        f, xp, xu, xr, gu, du, sf0 = make_problem(7)
        a = update_sf(
            f["sf"].copy(), f["sp"], f["hp"], f["su"], f["hu"], xp, xu,
            None, alpha=0.5,
        )
        b = update_sf(
            f["sf"].copy(), f["sp"], f["hp"], f["su"], f["hu"], xp, xu,
            sf0, alpha=0.0,
        )
        assert np.allclose(a, b)


class TestPropertyBased:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_sweep_preserves_invariants_for_any_seed(self, seed):
        f, xp, xu, xr, gu, du, sf0 = make_problem(seed % 100)
        sp_new = update_sp(f["sp"], f["sf"], f["hp"], f["su"], xp, xr)
        su_new = update_su_online(
            f["su"], f["sf"], f["hu"], f["sp"], xu, xr, gu, du, 0.8
        )
        assert np.all(sp_new >= 0) and np.all(np.isfinite(sp_new))
        assert np.all(su_new >= 0) and np.all(np.isfinite(su_new))
