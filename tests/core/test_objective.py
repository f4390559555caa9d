"""Tests for objective computation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.objective import (
    ObjectiveWeights,
    bifactor_loss,
    compute_objective,
    graph_penalty,
    trifactor_loss,
)
from repro.core.state import FactorSet


@pytest.fixture()
def setup(rng):
    n, m, l, k = 8, 5, 10, 3
    xp = sp.random(n, l, density=0.4, random_state=1, format="csr")
    xu = sp.random(m, l, density=0.4, random_state=2, format="csr")
    xr = sp.random(m, n, density=0.4, random_state=3, format="csr")
    adjacency = rng.random((m, m))
    adjacency = (adjacency + adjacency.T) / 2
    np.fill_diagonal(adjacency, 0.0)
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    factors = FactorSet(
        sf=rng.random((l, k)),
        sp=rng.random((n, k)),
        su=rng.random((m, k)),
        hp=rng.random((k, k)),
        hu=rng.random((k, k)),
    )
    return factors, xp, xu, xr, sp.csr_matrix(laplacian)


class TestWeights:
    def test_defaults(self):
        weights = ObjectiveWeights()
        assert weights.alpha == 0.05
        assert weights.beta == 0.8
        assert weights.gamma == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(alpha=-0.1)


class TestLossKernels:
    def test_trifactor_matches_dense(self, setup):
        factors, xp, _, _, _ = setup
        dense = xp.toarray()
        expected = float(
            np.sum((dense - factors.sp @ factors.hp @ factors.sf.T) ** 2)
        )
        assert trifactor_loss(
            xp, factors.sp, factors.hp, factors.sf
        ) == pytest.approx(expected)
        assert trifactor_loss(
            dense, factors.sp, factors.hp, factors.sf
        ) == pytest.approx(expected)

    def test_bifactor_matches_dense(self, setup):
        factors, _, _, xr, _ = setup
        dense = xr.toarray()
        expected = float(np.sum((dense - factors.su @ factors.sp.T) ** 2))
        assert bifactor_loss(xr, factors.su, factors.sp) == pytest.approx(
            expected
        )

    def test_zero_loss_at_exact_factorization(self, rng):
        a = rng.random((6, 3))
        h = rng.random((3, 3))
        b = rng.random((7, 3))
        x = a @ h @ b.T
        assert trifactor_loss(x, a, h, b) == pytest.approx(0.0, abs=1e-8)

    def test_graph_penalty_matches_trace(self, setup):
        factors, _, _, _, laplacian = setup
        expected = float(
            np.trace(factors.su.T @ laplacian.toarray() @ factors.su)
        )
        assert graph_penalty(factors.su, laplacian) == pytest.approx(expected)


class TestComputeObjective:
    def test_total_is_sum_of_components(self, setup):
        factors, xp, xu, xr, laplacian = setup
        weights = ObjectiveWeights(alpha=0.1, beta=0.5, gamma=0.2)
        sf_prior = np.full_like(factors.sf, 0.3)
        su_prior = factors.su[:2] * 0.9
        value = compute_objective(
            factors, xp, xu, xr, laplacian, weights,
            sf_prior=sf_prior,
            su_prior=su_prior,
            su_prior_rows=np.array([0, 1]),
        )
        total = (
            value.tweet_loss
            + value.user_loss
            + value.retweet_loss
            + value.lexicon_loss
            + value.graph_loss
            + value.temporal_loss
        )
        assert value.total == pytest.approx(total)
        assert value.lexicon_loss > 0
        assert value.temporal_loss > 0

    def test_components_nonnegative(self, setup):
        factors, xp, xu, xr, laplacian = setup
        value = compute_objective(
            factors, xp, xu, xr, laplacian, ObjectiveWeights()
        )
        for field in (
            "tweet_loss", "user_loss", "retweet_loss",
            "lexicon_loss", "graph_loss", "temporal_loss",
        ):
            assert getattr(value, field) >= 0.0

    def test_priors_optional(self, setup):
        factors, xp, xu, xr, laplacian = setup
        value = compute_objective(
            factors, xp, xu, xr, laplacian, ObjectiveWeights()
        )
        assert value.lexicon_loss == 0.0
        assert value.temporal_loss == 0.0

    def test_zero_weights_drop_terms(self, setup):
        factors, xp, xu, xr, laplacian = setup
        weights = ObjectiveWeights(alpha=0.0, beta=0.0, gamma=0.0)
        value = compute_objective(
            factors, xp, xu, xr, laplacian, weights,
            sf_prior=np.zeros_like(factors.sf),
        )
        assert value.lexicon_loss == 0.0
        assert value.graph_loss == 0.0


class TestObjectiveStatics:
    """The precomputed-constants bundle must be bit-neutral: the plain
    offline/online solvers now evaluate every sweep through it."""

    def test_statics_path_bit_identical(self, setup):
        from repro.core.objective import ObjectiveStatics

        factors, xp, xu, xr, laplacian = setup
        weights = ObjectiveWeights(alpha=0.1, beta=0.5, gamma=0.2)
        sf_prior = np.full_like(factors.sf, 0.3)
        statics = ObjectiveStatics.from_matrices(xp, xu, xr)
        lazy = compute_objective(
            factors, xp, xu, xr, laplacian, weights, sf_prior=sf_prior
        )
        bundled = compute_objective(
            factors, xp, xu, xr, laplacian, weights, sf_prior=sf_prior,
            statics=statics,
        )
        assert lazy == bundled  # frozen dataclass: exact field equality

    def test_shared_grams_bit_identical(self, setup):
        """Computing each factor gram once (or taking it from a sweep
        cache that already holds it) changes no bits of any term."""
        from repro.core.objective import ObjectiveStatics
        from repro.core.sweepcache import SweepCache

        factors, xp, xu, xr, laplacian = setup
        weights = ObjectiveWeights(alpha=0.1, beta=0.5, gamma=0.2)
        sf_prior = np.full_like(factors.sf, 0.3)
        statics = ObjectiveStatics.from_matrices(xp, xu, xr)
        # Every gram recomputed in place, term by term.
        sf, spf, su, hp, hu = (
            factors.sf, factors.sp, factors.su, factors.hp, factors.hu
        )
        expected = (
            max(
                statics.xp_sq
                - 2.0 * float(np.sum((statics.xp_T @ (spf @ hp)) * sf))
                + float(np.trace((sf.T @ sf) @ (hp.T @ (spf.T @ spf) @ hp))),
                0.0,
            ),
            max(
                statics.xu_sq
                - 2.0 * float(np.sum((statics.xu_T @ (su @ hu)) * sf))
                + float(np.trace((sf.T @ sf) @ (hu.T @ (su.T @ su) @ hu))),
                0.0,
            ),
            max(
                statics.xr_sq
                - 2.0 * float(np.sum((xr @ spf) * su))
                + float(np.trace((su.T @ su) @ (spf.T @ spf))),
                0.0,
            ),
        )
        cache = SweepCache(xp, xu, xr)
        cache.gram("sp", spf)  # held over from an update rule
        for value in (
            compute_objective(
                factors, xp, xu, xr, laplacian, weights, sf_prior=sf_prior,
                statics=statics,
            ),
            compute_objective(
                factors, xp, xu, xr, laplacian, weights, sf_prior=sf_prior,
                statics=statics, cache=cache,
            ),
        ):
            assert (
                value.tweet_loss, value.user_loss, value.retweet_loss
            ) == expected
        assert cache.hits == 1

    def test_solver_history_matches_lazy_recomputation(self, graph):
        """A fitted trajectory's recorded objectives equal a from-scratch
        lazy evaluation of the final factors (statics threading through
        OfflineTriClustering changed no numbers)."""
        from repro.core.offline import OfflineTriClustering

        result = OfflineTriClustering(seed=3, max_iterations=5).fit(graph)
        lazy = compute_objective(
            result.factors,
            graph.xp,
            graph.xu,
            graph.xr,
            graph.user_graph.laplacian,
            OfflineTriClustering(seed=3).weights,
            sf_prior=graph.sf0,
        )
        assert result.history.final.objective == lazy
