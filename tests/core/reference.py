"""Independent oracle: the sequential Algorithm 1/2 loops, written out.

The solvers run every sweep through the shared solve loop of
:mod:`repro.core.sweep` (one shard for the plain solvers).  These
subclasses replace that loop with the straightforward single-block
sweep — the update calls in the paper's order, one objective
evaluation after each sweep, and the ``objective_every`` / final-record
/ convergence bookkeeping — so parity tests compare the solve loop with
something other than itself.  Initialization, temporal state and
readouts are inherited unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import ConvergenceHistory
from repro.core.kernels import resolve_kernel
from repro.core.objective import ObjectiveStatics, compute_objective
from repro.core.offline import OfflineTriClustering, TriClusteringResult
from repro.core.online import OnlineTriClustering
from repro.core.spmm import resolve_spmm
from repro.core.state import FactorSet
from repro.core.sweepcache import SweepCache
from repro.core.updates import (
    update_hp,
    update_hu,
    update_sf,
    update_sp,
    update_su_online,
)
from repro.graph.tripartite import TripartiteGraph
from repro.utils.rng import spawn_rng


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
        statics = ObjectiveStatics.from_matrices(xp, xu, xr)
        cache = SweepCache(
            xp, xu, xr, xp_T=statics.xp_T, xu_T=statics.xu_T,
            spmm=spmm_engine,
        )

        def objective():
            return compute_objective(
                factors, xp, xu, xr, laplacian, self.weights,
                sf_prior=sf0, statics=statics, spmm=spmm_engine,
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

            if (
                (self.track_history or self.tolerance > 0)
                and iterations_run % self.objective_every == 0
            ):
                history.append(objective())
                if history.converged(self.tolerance, window=self.patience):
                    converged = True
                    break

        if (
            (self.track_history or self.tolerance > 0)
            and iterations_run % self.objective_every != 0
        ):
            history.append(objective())
            if history.converged(self.tolerance, window=self.patience):
                converged = True
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
        statics = ObjectiveStatics.from_matrices(xp, xu, xr)
        cache = SweepCache(
            xp, xu, xr, xp_T=statics.xp_T, xu_T=statics.xu_T,
            spmm=spmm_engine,
        )

        def objective():
            return compute_objective(
                factors, xp, xu, xr, laplacian, self.weights,
                sf_prior=sf_prior,
                su_prior=su_prior,
                su_prior_rows=evolving_rows if su_prior is not None else None,
                statics=statics,
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

            if (
                (self.track_history or self.tolerance > 0)
                and iterations_run % self.objective_every == 0
            ):
                history.append(objective())
                if history.converged(self.tolerance, window=self.patience):
                    converged = True
                    break

        if (
            (self.track_history or self.tolerance > 0)
            and iterations_run % self.objective_every != 0
        ):
            history.append(objective())
            if history.converged(self.tolerance, window=self.patience):
                converged = True
        if not history.records:
            history.append(objective())
        return self._OptimizeOutput(
            factors=factors,
            history=history,
            converged=converged,
            iterations=iterations_run,
        )
