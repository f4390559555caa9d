"""Independent oracle: the sequential Algorithm 1/2 loops, written out.

The solvers run every sweep through the shared solve loop of
:mod:`repro.core.sweep` (one shard for the plain solvers).  These
subclasses replace that loop with the straightforward single-block
sweep — the update calls in the paper's order, one objective
evaluation after each sweep, and the final-record / convergence
bookkeeping — so parity tests compare the solve loop with
something other than itself.  Initialization, temporal state and
readouts are inherited unchanged.

:class:`DictTemporalState` is the second oracle: the online solver's
temporal user bookkeeping (new/evolving split, ``Suw`` priors, ``Su``
history commit and smoothed carried state) as the per-user dict loops
it was first written as, for parity with the array-native state.

:class:`ReferenceUnifiedTriClustering` is the third: the Section 7
unified solver's own sweep loop (its regularizer folding, objective,
initialization and convergence test), as it ran before the solver
moved onto the shared solve loop.

:func:`reference_objective` is the fourth: Eq. (1)/(19) with the cross
terms written as ``⟨X, A·H·Bᵀ⟩ = Σ (Xᵀ·(A·H)) ∘ B`` over an explicit
CSR transpose, as the solvers evaluated it before their objective read
``XᵀA`` back from the sweep's own products.  The two expansions agree
to round-off (:data:`OBJECTIVE_RTOL`), so the oracle loops above, which
evaluate it with norms and transposes they build themselves, replay the
solvers' factors and iteration counts bit for bit and their objective
traces to that tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.convergence import ConvergenceHistory
from repro.core.kernels import resolve_kernel
from repro.core.initialization import (
    lexicon_seeded_factors,
    random_factors,
    warm_started_factors,
)
from repro.core.objective import (
    ObjectiveValue,
    bifactor_loss,
    graph_penalty,
)
from repro.core.offline import OfflineTriClustering, TriClusteringResult
from repro.core.online import OnlineStepResult, OnlineTriClustering
from repro.core.sharded import ShardedOnlineTriClustering
from repro.core.spmm import resolve_spmm
from repro.core.state import FactorSet
from repro.core.sweepcache import SweepCache
from repro.core.unified import UnifiedTriClustering
from repro.core.updates import (
    _project,
    update_hp,
    update_hu,
    update_sf,
    update_sp,
    update_su_online,
)
from repro.graph.tripartite import TripartiteGraph
from repro.utils.matrices import frobenius_sq, hard_assignments
from repro.utils.rng import spawn_rng

#: Largest relative gap allowed between an objective term of the solvers
#: and the same term of :func:`reference_objective`, per dtype.  The
#: tweet and user losses differ by where the rounding of the cross term
#: falls (``(XᵀA)·H`` against ``Xᵀ(A·H)``); every other term is bitwise
#: equal.  The gap is measured against the total objective, because a
#: loss of ``‖X‖² − 2·cross + gram`` inherits the rounding of its
#: largest part, not of its (much smaller) value.  On the test corpus
#: (offline and online, 1/2/4 shards, up to 60 sweeps) the largest gap
#: is 3.9e-16 in float64 and 1.3e-7 in float32.
OBJECTIVE_RTOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-6}


def _transpose(x):
    return x.T.tocsr() if sp.issparse(x) else np.asarray(x).T


def _product(x, dense, spmm):
    return spmm.matmul(x, dense) if spmm is not None else np.asarray(x @ dense)


def _reference_trifactor(x, a, h, b, x_sq=None, x_T=None, spmm=None):
    """``||X − A·H·Bᵀ||²`` with the cross term ``Σ (Xᵀ·(A·H)) ∘ B``."""
    ah = a @ h
    if x_T is None:
        x_T = _transpose(x)
    cross = float(np.sum(_product(x_T, ah, spmm) * b))
    gram = (b.T @ b) @ (h.T @ (a.T @ a) @ h)
    if x_sq is None:
        x_sq = frobenius_sq(x)
    return max(x_sq - 2.0 * cross + float(np.trace(gram)), 0.0)


def reference_objective(
    factors: FactorSet,
    xp,
    xu,
    xr,
    laplacian,
    weights,
    sf_prior=None,
    su_prior=None,
    su_prior_rows=None,
    spmm=None,
    gu_halo=None,
    su_halo=None,
    regularizers=(),
    norms: tuple | None = None,
    transposes: tuple | None = None,
    **_ignored,
) -> ObjectiveValue:
    """:func:`~repro.core.objective.compute_objective` in its former
    expansion, from the data matrices alone.

    ``norms`` optionally supplies ``(‖Xp‖², ‖Xu‖², ‖Xr‖²)`` and
    ``transposes`` ``(Xpᵀ, Xuᵀ)`` (the oracle loops build them once per
    solve); other keyword arguments of ``compute_objective`` (its
    ``cache``) are accepted and ignored.
    """
    xp_sq, xu_sq, xr_sq = norms if norms is not None else (None,) * 3
    xp_T, xu_T = transposes if transposes is not None else (None, None)
    lexicon_loss = 0.0
    if sf_prior is not None and weights.alpha > 0:
        diff = factors.sf - sf_prior
        lexicon_loss = weights.alpha * float(np.sum(diff * diff))
    graph_loss = 0.0
    if weights.beta > 0:
        penalty = graph_penalty(factors.su, laplacian, spmm=spmm)
        if gu_halo is not None and su_halo is not None and gu_halo.nnz:
            penalty -= float(
                np.sum(factors.su * _product(gu_halo, su_halo, spmm))
            )
        graph_loss = weights.beta * penalty
    temporal_loss = 0.0
    if su_prior is not None and weights.gamma > 0:
        rows = (
            su_prior_rows
            if su_prior_rows is not None
            else np.arange(factors.su.shape[0])
        )
        diff = factors.su[rows] - su_prior
        temporal_loss = weights.gamma * float(np.sum(diff * diff))
    return ObjectiveValue(
        tweet_loss=_reference_trifactor(
            xp, factors.sp, factors.hp, factors.sf, xp_sq, xp_T, spmm
        ),
        user_loss=_reference_trifactor(
            xu, factors.su, factors.hu, factors.sf, xu_sq, xu_T, spmm
        ),
        retweet_loss=bifactor_loss(
            xr, factors.su, factors.sp, x_sq=xr_sq, spmm=spmm
        ),
        lexicon_loss=lexicon_loss,
        graph_loss=graph_loss,
        temporal_loss=temporal_loss,
        regularizer_losses=tuple(
            regularizer.objective(factors) for regularizer in regularizers
        ),
    )


def objective_gap(value: ObjectiveValue, oracle: ObjectiveValue) -> float:
    """Largest gap of any term of ``value`` from ``oracle``, relative to
    the oracle's total (see :data:`OBJECTIVE_RTOL`)."""
    terms = (
        "tweet_loss", "user_loss", "retweet_loss", "lexicon_loss",
        "graph_loss", "temporal_loss",
    )
    gaps = [abs(getattr(value, t) - getattr(oracle, t)) for t in terms]
    gaps += [
        abs(a - b)
        for a, b in zip(value.regularizer_losses, oracle.regularizer_losses)
    ]
    return max(gaps) / max(abs(oracle.total), 1e-300)


def assert_totals_close(totals, oracle_totals) -> None:
    """Float64 objective traces equal to :data:`OBJECTIVE_RTOL` of the
    oracle's."""
    assert len(totals) == len(oracle_totals)
    np.testing.assert_allclose(
        totals, oracle_totals, rtol=OBJECTIVE_RTOL[np.dtype(np.float64)],
        atol=0,
    )


def _oracle_objective(xp, xu, xr):
    """:func:`reference_objective` over norms and CSR transposes built
    once for one solve."""
    norms = tuple(frobenius_sq(x) for x in (xp, xu, xr))
    transposes = (_transpose(xp), _transpose(xu))

    def evaluate(factors, laplacian, weights, **options):
        return reference_objective(
            factors, xp, xu, xr, laplacian, weights,
            norms=norms, transposes=transposes, **options,
        )

    return evaluate


class ReferenceOfflineTriClustering(OfflineTriClustering):
    """Algorithm 1 as one sequential loop over the whole graph."""

    def fit(
        self,
        graph: TripartiteGraph,
        initial_factors: FactorSet | None = None,
    ) -> TriClusteringResult:
        rng = spawn_rng(self.seed)
        kernel = resolve_kernel(self.kernel, threads=self.spmm_threads)
        spmm_engine = resolve_spmm(self.spmm, self.spmm_threads)
        graph = graph.astype(self._np_dtype)
        xp, xu, xr = graph.xp, graph.xu, graph.xr
        gu = graph.user_graph.adjacency
        du = graph.user_graph.degree_matrix
        laplacian = graph.user_graph.laplacian
        sf0 = graph.sf0

        self._validate_prior(graph)
        factors = self._initial_factors(graph, rng, initial_factors).astype(
            self._np_dtype
        )

        history = ConvergenceHistory()
        converged = False
        iterations_run = 0
        cache = SweepCache(xp, xu, xr, spmm=spmm_engine)
        evaluate = _oracle_objective(xp, xu, xr)

        def objective():
            return evaluate(
                factors, laplacian, self.weights,
                sf_prior=sf0, spmm=spmm_engine,
            )

        for iteration in range(self.max_iterations):
            # Algorithm 1 order: Sp, Hp, Su, Hu, Sf.
            factors.sp = update_sp(
                factors.sp, factors.sf, factors.hp, factors.su, xp, xr,
                cache=cache, kernel=kernel,
            )
            factors.hp = update_hp(
                factors.hp, factors.sp, factors.sf, xp, cache=cache,
                kernel=kernel,
            )
            factors.su = update_su_online(
                factors.su, factors.sf, factors.hu, factors.sp, xu, xr,
                gu, du, self.weights.beta, cache=cache, kernel=kernel,
            )
            factors.hu = update_hu(
                factors.hu, factors.su, factors.sf, xu, cache=cache,
                kernel=kernel,
            )
            factors.sf = update_sf(
                factors.sf, factors.sp, factors.hp, factors.su, factors.hu,
                xp, xu, sf0, self.weights.alpha, cache=cache, kernel=kernel,
            )
            iterations_run = iteration + 1

            if self.track_history or self.tolerance > 0:
                history.append(objective())
                if history.converged(self.tolerance, window=self.patience):
                    converged = True
                    break

        if not history.records:
            history.append(objective())
        return TriClusteringResult(
            factors=factors,
            history=history,
            converged=converged,
            iterations=iterations_run,
        )


class ReferenceOnlineTriClustering(OnlineTriClustering):
    """Algorithm 2 with each snapshot's inner loop written out."""

    def _optimize(
        self,
        graph: TripartiteGraph,
        factors: FactorSet,
        sfw: np.ndarray | None,
        su_prior: np.ndarray | None,
        evolving_rows: np.ndarray,
    ) -> OnlineTriClustering._OptimizeOutput:
        kernel = resolve_kernel(self.kernel, threads=self.spmm_threads)
        spmm_engine = resolve_spmm(self.spmm, self.spmm_threads)
        graph = graph.astype(self._np_dtype)
        factors = factors.astype(self._np_dtype)
        if sfw is not None:
            sfw = sfw.astype(self._np_dtype, copy=False)
        if su_prior is not None:
            su_prior = su_prior.astype(self._np_dtype, copy=False)
        xp, xu, xr = graph.xp, graph.xu, graph.xr
        gu = graph.user_graph.adjacency
        du = graph.user_graph.degree_matrix
        laplacian = graph.user_graph.laplacian
        sf_prior = sfw if sfw is not None else graph.sf0

        history = ConvergenceHistory()
        converged = False
        iterations_run = 0
        cache = SweepCache(xp, xu, xr, spmm=spmm_engine)
        evaluate = _oracle_objective(xp, xu, xr)

        def objective():
            return evaluate(
                factors, laplacian, self.weights,
                sf_prior=sf_prior,
                su_prior=su_prior,
                su_prior_rows=evolving_rows if su_prior is not None else None,
                spmm=spmm_engine,
            )

        for iteration in range(self.max_iterations):
            # Algorithm 2 order: Sf, Sp, Hp, Hu, Su.
            factors.sf = update_sf(
                factors.sf, factors.sp, factors.hp, factors.su, factors.hu,
                xp, xu, sf_prior, self.weights.alpha,
                cache=cache, kernel=kernel,
            )
            factors.sp = update_sp(
                factors.sp, factors.sf, factors.hp, factors.su, xp, xr,
                cache=cache, kernel=kernel,
            )
            factors.hp = update_hp(
                factors.hp, factors.sp, factors.sf, xp, cache=cache,
                kernel=kernel,
            )
            factors.hu = update_hu(
                factors.hu, factors.su, factors.sf, xu, cache=cache,
                kernel=kernel,
            )
            factors.su = update_su_online(
                factors.su, factors.sf, factors.hu, factors.sp, xu, xr,
                gu, du, self.weights.beta, self.weights.gamma,
                su_prior, evolving_rows, cache=cache, kernel=kernel,
            )
            iterations_run = iteration + 1

            if self.track_history or self.tolerance > 0:
                history.append(objective())
                if history.converged(self.tolerance, window=self.patience):
                    converged = True
                    break

        if not history.records:
            history.append(objective())
        return self._OptimizeOutput(
            factors=factors,
            history=history,
            converged=converged,
            iterations=iterations_run,
        )


class DictTemporalState:
    """Online temporal user state as per-user dicts and Python loops.

    Mixed in ahead of an online solver class, it replaces the solver's
    user bookkeeping — ``Su`` history as ``{user_id: row}`` dicts, the
    carried state as one such dict, seen users as a set — while the
    snapshot solve (``_optimize``) and the ``Sf`` history stay the
    solver's own.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._su_history: deque[dict[int, np.ndarray]] = deque(
            maxlen=self.window - 1
        )
        self._user_state: dict[int, np.ndarray] = {}
        self._seen_users: set[int] = set()

    def user_prior(self, user_id: int) -> np.ndarray | None:
        aggregate = np.zeros(self.num_classes)
        found = False
        for lag, su_past in enumerate(reversed(self._su_history), start=1):
            row = su_past.get(user_id)
            if row is not None:
                aggregate += (self.tau ** lag) * row
                found = True
        if found:
            return aggregate
        carried = self._user_state.get(user_id)
        if carried is not None:
            return self.tau * carried
        return None

    def partial_fit(self, graph: TripartiteGraph) -> OnlineStepResult:
        self._check_vocabulary(graph)
        corpus = graph.corpus
        user_ids = corpus.user_ids
        current = set(user_ids)
        new_rows = np.array(
            [i for i, uid in enumerate(user_ids) if uid not in self._seen_users],
            dtype=np.int64,
        )
        evolving_rows = np.array(
            [i for i, uid in enumerate(user_ids) if uid in self._seen_users],
            dtype=np.int64,
        )

        sfw = self.feature_prior(graph.num_features)
        sf_init = sfw if sfw is not None else graph.sf0
        if sf_init is None:
            sf_init = self._rng.uniform(
                0.01, 1.0, size=(graph.num_features, self.num_classes)
            )
        elif sfw is not None and graph.sf0 is not None:
            fresh_rows = ~sfw.any(axis=1)
            if fresh_rows.any():
                sf_init = sfw.copy()
                sf_init[fresh_rows] = graph.sf0[fresh_rows]

        su_prior_rows: list[np.ndarray] = []
        su_init = self._rng.uniform(
            0.01, 1.0, size=(graph.num_users, self.num_classes)
        )
        kept_evolving: list[int] = []
        for row in evolving_rows:
            prior = self.user_prior(user_ids[int(row)])
            if prior is not None:
                su_init[int(row)] = np.maximum(prior, 1e-6)
                su_prior_rows.append(prior)
                kept_evolving.append(int(row))
        evolving_rows = np.array(kept_evolving, dtype=np.int64)
        su_prior = (
            np.vstack(su_prior_rows) if su_prior_rows else None
        )

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

        self._sf_history.append(result.factors.sf.copy())
        su_snapshot = {
            uid: result.factors.su[i].copy() for i, uid in enumerate(user_ids)
        }
        self._su_history.append(su_snapshot)
        for uid, row in su_snapshot.items():
            total = row.sum()
            normalized = row / total if total > 0 else row
            previous = self._user_state.get(uid)
            if previous is None:
                self._user_state[uid] = normalized
            else:
                self._user_state[uid] = (
                    self.state_smoothing * previous
                    + (1.0 - self.state_smoothing) * normalized
                )
        self._seen_users |= current
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

    @property
    def seen_users(self) -> set[int]:
        return set(self._seen_users)

    def user_sentiment_rows(self) -> dict[int, np.ndarray]:
        return {uid: row.copy() for uid, row in self._user_state.items()}

    def user_sentiment_labels(self) -> dict[int, int]:
        if not self._user_state:
            return {}
        uids = sorted(self._user_state)
        matrix = np.vstack([self._user_state[uid] for uid in uids])
        labels = hard_assignments(matrix)
        return {uid: int(label) for uid, label in zip(uids, labels)}


class DictStateOnlineTriClustering(DictTemporalState, OnlineTriClustering):
    """The plain online solver with dict-based temporal user state."""


class DictStateShardedOnlineTriClustering(
    DictTemporalState, ShardedOnlineTriClustering
):
    """The sharded online solver with dict-based temporal user state."""


@dataclass
class ReferenceUnifiedResult:
    """Output of a unified fit (the former ``UnifiedResult``)."""

    factors: FactorSet
    totals: list[float]
    regularizer_values: list[dict[str, float]]
    iterations: int
    converged: bool

    def tweet_sentiments(self) -> np.ndarray:
        return self.factors.tweet_clusters()

    def user_sentiments(self) -> np.ndarray:
        return self.factors.user_clusters()

    def feature_sentiments(self) -> np.ndarray:
        return self.factors.feature_clusters()


class ReferenceUnifiedTriClustering(UnifiedTriClustering):
    """The unified solver's own sequential sweep loop."""

    def fit(
        self,
        graph: TripartiteGraph,
        initial_factors: FactorSet | None = None,
    ) -> ReferenceUnifiedResult:
        """Run the unified solver on a tripartite graph."""
        rng = spawn_rng(self.seed)
        xp, xu, xr = graph.xp, graph.xu, graph.xr

        if initial_factors is not None:
            factors = initial_factors.copy()
        elif graph.sf0 is not None and graph.sf0.shape[1] == self.num_classes:
            factors = lexicon_seeded_factors(
                graph.num_tweets, graph.num_users, graph.sf0, seed=rng
            )
        else:
            factors = random_factors(
                graph.num_tweets,
                graph.num_users,
                graph.num_features,
                self.num_classes,
                seed=rng,
            )

        totals: list[float] = []
        regularizer_values: list[dict[str, float]] = []
        converged = False
        iterations_run = 0
        kernel = resolve_kernel(self.kernel, threads=self.spmm_threads)
        spmm_engine = resolve_spmm(self.spmm, self.spmm_threads)
        cache = SweepCache(xp, xu, xr, spmm=spmm_engine)
        for iteration in range(self.max_iterations):
            self._sweep(factors, xp, xu, xr, cache, kernel)
            iterations_run = iteration + 1

            total, values = self._objective(
                factors, xp, xu, xr, spmm_engine
            )
            totals.append(total)
            regularizer_values.append(values)
            if self._converged(totals):
                converged = True
                break

        return ReferenceUnifiedResult(
            factors=factors,
            totals=totals,
            regularizer_values=regularizer_values,
            iterations=iterations_run,
            converged=converged,
        )

    # ------------------------------------------------------------------ #

    def _sweep(
        self, factors: FactorSet, xp, xu, xr, cache: SweepCache, kernel
    ) -> None:
        """One full update sweep in Algorithm 1's order."""
        # Sp: attraction from words and retweeters.
        xr_T = cache.xr_T()
        attraction = cache.xp_sf(factors.sf) @ factors.hp.T + cache.dot(
            xr.T if xr_T is None else xr_T, factors.su
        )
        numerator, denominator = self._regularized(
            "sp", factors, attraction, _project(factors.sp, attraction)
        )
        factors.sp = kernel.multiply_tail(factors.sp, numerator, denominator)

        factors.hp = update_hp(
            factors.hp, factors.sp, factors.sf, xp, cache=cache, kernel=kernel
        )

        # Su: attraction from words and posted/retweeted tweets.
        attraction = cache.xu_sf(factors.sf) @ factors.hu.T + cache.dot(
            xr, factors.sp
        )
        numerator, denominator = self._regularized(
            "su", factors, attraction, _project(factors.su, attraction)
        )
        factors.su = kernel.multiply_tail(factors.su, numerator, denominator)

        factors.hu = update_hu(
            factors.hu, factors.su, factors.sf, xu, cache=cache, kernel=kernel
        )

        # Sf: attraction from tweet and user usage.
        xp_T, xu_T = cache.xp_T(), cache.xu_T()
        attraction = cache.dot(
            xp.T if xp_T is None else xp_T, factors.sp
        ) @ factors.hp + cache.dot(
            xu.T if xu_T is None else xu_T, factors.su
        ) @ factors.hu
        numerator, denominator = self._regularized(
            "sf", factors, attraction, _project(factors.sf, attraction)
        )
        factors.sf = kernel.multiply_tail(factors.sf, numerator, denominator)

    def _regularized(
        self,
        target: str,
        factors: FactorSet,
        numerator: np.ndarray,
        denominator: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold matching regularizers into an update's terms."""
        for regularizer in self.regularizers:
            if regularizer.target != target or regularizer.weight == 0.0:
                continue
            extra_numerator, extra_denominator = regularizer.update_terms(
                factors
            )
            numerator = numerator + extra_numerator
            denominator = denominator + extra_denominator
        return numerator, denominator

    def _objective(
        self, factors: FactorSet, xp, xu, xr, spmm=None
    ) -> tuple[float, dict[str, float]]:
        total = (
            _reference_trifactor(xp, factors.sp, factors.hp, factors.sf, spmm=spmm)
            + _reference_trifactor(xu, factors.su, factors.hu, factors.sf, spmm=spmm)
            + bifactor_loss(xr, factors.su, factors.sp, spmm=spmm)
        )
        values: dict[str, float] = {}
        for index, regularizer in enumerate(self.regularizers):
            value = regularizer.objective(factors)
            key = f"{type(regularizer).__name__.lower()}_{regularizer.target}_{index}"
            values[key] = value
            total += value
        return total, values

    def _converged(self, totals: list[float]) -> bool:
        if len(totals) < self.patience + 1:
            return False
        for offset in range(self.patience):
            current = totals[-1 - offset]
            previous = totals[-2 - offset]
            if abs(previous - current) >= self.tolerance * max(
                abs(previous), 1e-30
            ):
                return False
        return True
