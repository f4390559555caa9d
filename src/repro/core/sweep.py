"""The one solve loop: multiplicative sweeps over a user partition.

The multiplicative sweeps of Algorithms 1 and 2 are row-separable in
everything except the feature factor: ``Sp``/``Hp`` touch only tweet
rows, ``Su``/``Hu`` only user rows, and the ``Sf`` numerator
``XuᵀSuHu + XpᵀSpHp`` is a *sum over those rows*.  Partitioning users
(tweets follow their author) therefore yields shards that sweep their
own factor blocks independently and contribute an additive ``l×k``
piece to the global ``Sf`` update, which is reduced and applied once
per sweep.  Every solver runs this loop: the plain
:class:`~repro.core.offline.OfflineTriClustering` /
:class:`~repro.core.online.OnlineTriClustering` are its one-shard case
(a single block that reuses the graph's own matrices, solved inline on
a serial pool); the :mod:`repro.core.sharded` subclasses only plan more
shards and another pool.  The Section 7
:class:`~repro.core.unified.UnifiedTriClustering` is the one-shard
offline solve with a regularizer stack: each regularizer's update terms
join its target's ``Sp``/``Su`` update in the pass and the shared ``Sf``
step, and its value joins the shard objective, all in stack order.

Model semantics at more than one shard:

- With ``halo="on"`` (the sharded default) the graph regularizer sees
  the **full** ``Gu``: cross-shard edges are retained as per-shard halo
  blocks and each sweep's fused exchange carries the boundary ``Su``
  rows both ways (workers publish their post-pass boundary rows with
  the reply, the coordinator gathers the global boundary stack in fixed
  shard-rank order and hands each shard its ghost-row slice with the
  next command) — O(cut-edges × k) payload, zero extra rounds.  What
  remains approximate is block-diagonal ``Hp``/``Hu``/projectors and
  dropped ``Xr`` cut entries.  ``halo="off"`` restores the legacy
  block-diagonal approximation (cut ``Gu`` edges dropped too, tallied
  in :class:`~repro.graph.partition.ShardedGraph`).  Either way runs
  are seed-deterministic for a fixed ``(seed, n_shards)`` — users are
  hash-partitioned by id, initialization is global-then-scattered and
  reductions are ordered.
- After the last sweep, per-shard ``Hp``/``Hu`` are distilled into one
  global pair by :data:`CONSENSUS_ITERATIONS` steps of the *global*
  Eq. (12)/(13) updates on the reduced numerators
  (``Σ_s Sp_sᵀXp_sSf`` etc.), so the merged
  :class:`~repro.core.state.FactorSet` serves classify traffic exactly
  like a one-shard one.

Execution backends: every shard interaction is expressed as a picklable
module-level *command* run against shard state held by the
:class:`~repro.utils.executor.WorkerPool` (``backend="serial"|"thread"|
"process"|"socket"``).  States are scattered **once per solve**; the
two out-of-process backends (forked workers over a socketpair, remote
workers over TCP — one framing, one exchange) receive compact
:meth:`~repro.graph.partition.ShardBlock.to_payload` CSR pieces plus
*names* of the kernel and spmm engine (``"scipy"`` or ``"numba"``,
pinned by the coordinator, so ``"auto"`` resolves once), while
in-process states keep the resolved kernel and engine *instances*.
``Sf`` itself is a version-keyed *shared resident*
(:meth:`~repro.utils.executor.WorkerPool.share`): the full matrix is
broadcast exactly once per solve, and each sweep then runs a **single
fused exchange** — the coordinator stages the reduced ``l×k``
contribution as a versioned update (every holder, mirror and worker
alike, advances its resident copy through the identical
:func:`~repro.core.updates.apply_sf_update`), and the shard pass plus
the one-sweep-lagged objective evaluation ride one command.  Per-sweep
IPC is therefore one exchange round and ``O(l·k)`` per shard, never
``O(nnz)``.  Results are bit-identical across backends: the commands
are the same functions, replies are collected into shard order, and
all reductions run on the caller.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.convergence import ConvergenceHistory
from repro.core.kernels import Kernel, get_kernel, resolve_kernel, resolve_kernel_name
from repro.core.objective import ObjectiveValue, ObjectiveWeights, compute_objective
from repro.core.regularizers import Regularizer, stack_terms
from repro.core.spmm import SpmmEngine, get_spmm, resolve_spmm, resolve_spmm_name
from repro.core.state import FactorSet
from repro.core.sweepcache import SweepCache
from repro.core.updates import (
    apply_sf_update,
    sf_sweep_contribution,
    update_hp,
    update_hu,
    update_sp,
    update_su_online,
)
from repro.graph.partition import (
    ShardBlock,
    ShardedGraph,
    UserPartition,
    extract_shard_blocks,
)
from repro.graph.tripartite import TripartiteGraph
from repro.utils.executor import WorkerPool
from repro.utils.matrices import safe_sqrt_ratio
from repro.utils.threads import affinity_core_count

#: Iterations of the global Eq. (12)/(13) updates used to distill one
#: ``Hp``/``Hu`` pair from per-shard factors at merge time.  The problem
#: is a k×k convex quadratic, so this converges in a handful of steps.
CONSENSUS_ITERATIONS = 25


@dataclass
class _ShardState:
    """One shard's live factors plus its sweep-local context.

    Lives wherever the pool's backend keeps resident state: the solver
    process for serial/thread, the owning worker for process/socket.
    Mutated in place by the sweep commands below.
    """

    block: ShardBlock
    sp: np.ndarray
    su: np.ndarray
    hp: np.ndarray
    hu: np.ndarray
    #: The sweep cache; its ``spmm`` is the shard's product engine.
    cache: SweepCache
    #: The resolved sweep kernel (resolved once per solve).
    kernel: Kernel
    #: Thread budget the kernel and engine were resolved with; shipped
    #: with their names so a worker resolves the same pair locally
    #: (``None`` defers to the worker's installed fair-share default).
    threads: int | None = None
    su_prior: np.ndarray | None = None
    evolving_rows: np.ndarray | None = None
    #: Exchanged neighbour ``Su`` rows aligned with the block's halo
    #: (ghost) columns, refreshed from the coordinator's boundary stack
    #: at every exchange; ``None`` when the solve runs without a halo.
    su_halo: np.ndarray | None = None
    #: The Section 7 regularizer stack folded into the offline pass and
    #: the objective (one in-process shard only: it indexes global rows).
    regularizers: tuple[Regularizer, ...] = ()
    #: Pre-pass ``(sp, su, hp, hu, su_halo)`` kept by the fused offline
    #: command whenever its objective may trigger convergence, so the
    #: merge can roll back the one speculative extra pass (halo rows
    #: included — a rolled-back objective must not mix pre-sweep
    #: factors with post-sweep neighbour rows).  Plain references
    #: suffice: every update returns a fresh array and never writes
    #: into its inputs.
    saved: tuple | None = None


# --------------------------------------------------------------------- #
# Shard commands (picklable module-level functions)
#
# Everything the solver asks of a shard crosses the WorkerPool as one of
# these functions plus small arguments (the global ``Sf``, the weights,
# a prior).  Returns are factor-sized (``l×k`` contributions, k×k merge
# terms, scalar objective parts) — never shard blocks.
# --------------------------------------------------------------------- #


def _shard_state_payload(state: _ShardState) -> tuple:
    """Compact once-per-scatter shipping form of a shard state.

    Kernel and engine travel as pinned names: instances hold thread
    pools / compiled functions and never cross the pickle boundary, so
    an unregistered instance ships as its reference implementation.
    """
    return (
        state.block.to_payload(),
        state.sp,
        state.su,
        state.hp,
        state.hu,
        state.su_prior,
        state.evolving_rows,
        resolve_kernel_name(state.kernel),
        resolve_spmm_name(state.cache.spmm),
        state.threads,
        state.su_halo,
    )


def _shard_state_from_payload(payload: tuple) -> _ShardState:
    (
        block_payload, sp, su, hp, hu, su_prior, evolving_rows, kernel,
        spmm, threads, su_halo,
    ) = payload
    block = ShardBlock.from_payload(block_payload)
    return _ShardState(
        block=block,
        sp=sp,
        su=su,
        hp=hp,
        hu=hu,
        cache=_shard_cache(block, get_spmm(spmm, threads)),
        kernel=get_kernel(kernel, threads=threads),
        threads=threads,
        su_prior=su_prior,
        evolving_rows=evolving_rows,
        su_halo=su_halo,
    )


def _shard_cache(block: ShardBlock, spmm: SpmmEngine) -> SweepCache:
    """A shard's sweep cache, sharing the block's CSR transposes."""
    return SweepCache(
        block.xp, block.xu, block.xr, xp_T=block.xp_T, xu_T=block.xu_T,
        spmm=spmm,
    )


def _shard_contribution(state: _ShardState) -> np.ndarray:
    """The shard's additive ``l×k`` piece of the ``Sf`` numerator.

    The transposes go through the cache accessors rather than straight
    off the block, so the working-set layout policy applies (large
    blocks stream the lazy CSC view; either path is bitwise identical).
    """
    return sf_sweep_contribution(
        state.sp, state.hp, state.su, state.hu,
        state.block.xp, state.block.xu,
        xp_T=state.cache.xp_T(), xu_T=state.cache.xu_T(),
        spmm=state.cache.spmm,
    )


def _shard_offline_pass(
    state: _ShardState, sf: np.ndarray, weights: ObjectiveWeights
) -> np.ndarray:
    """Algorithm 1 order within one shard: Sp, Hp, Su, Hu (then Sf)."""
    block, cache, kernel = state.block, state.cache, state.kernel
    if block.num_tweets:
        state.sp = update_sp(
            state.sp, sf, state.hp, state.su, block.xp, block.xr,
            cache=cache, kernel=kernel,
            regularization=stack_terms(
                state.regularizers, "sp", _factor_view(sf, state)
            ),
        )
        state.hp = update_hp(
            state.hp, state.sp, sf, block.xp, cache=cache, kernel=kernel
        )
    if block.num_users:
        state.su = update_su_online(
            state.su, sf, state.hu, state.sp, block.xu, block.xr,
            block.gu, block.du, weights.beta,
            cache=cache, kernel=kernel,
            gu_halo=block.gu_halo, su_halo=state.su_halo,
            regularization=stack_terms(
                state.regularizers, "su", _factor_view(sf, state)
            ),
        )
        state.hu = update_hu(
            state.hu, state.su, sf, block.xu, cache=cache, kernel=kernel
        )
    return _shard_contribution(state)


def _shard_online_pass(
    state: _ShardState, sf: np.ndarray, weights: ObjectiveWeights
) -> np.ndarray:
    """Algorithm 2 order within one shard: (Sf first) Sp, Hp, Hu, Su."""
    block, cache, kernel = state.block, state.cache, state.kernel
    if block.num_tweets:
        state.sp = update_sp(
            state.sp, sf, state.hp, state.su, block.xp, block.xr,
            cache=cache, kernel=kernel,
        )
        state.hp = update_hp(
            state.hp, state.sp, sf, block.xp, cache=cache, kernel=kernel
        )
    if block.num_users:
        state.hu = update_hu(
            state.hu, state.su, sf, block.xu, cache=cache, kernel=kernel
        )
        state.su = update_su_online(
            state.su, sf, state.hu, state.sp, block.xu, block.xr,
            block.gu, block.du, weights.beta, weights.gamma,
            state.su_prior, state.evolving_rows,
            cache=cache, kernel=kernel,
            gu_halo=block.gu_halo, su_halo=state.su_halo,
        )
    return _shard_contribution(state)


def _factor_view(sf: np.ndarray, state: _ShardState | None) -> FactorSet:
    """The shard's current factors as a :class:`FactorSet`, unchecked.

    The arrays come straight out of the update rules, and the initial
    and merged factor sets are validated, so the per-sweep objective
    and regularizer terms skip the shape and non-negativity scan of
    ``FactorSet.__init__``.  Without a state the view holds ``Sf`` only
    (the shared ``Sf`` step's regularizers read nothing else).
    """
    view = object.__new__(FactorSet)
    view.sf = sf
    if state is not None:
        view.sp, view.su = state.sp, state.su
        view.hp, view.hu = state.hp, state.hu
    return view


def _shard_objective(
    state: _ShardState,
    sf: np.ndarray,
    weights: ObjectiveWeights,
    sf_prior,
    su_prior_active: bool,
    halo: np.ndarray | None = None,
) -> ObjectiveValue:
    """One shard's objective terms on its current factors.

    ``halo`` refreshes the exchanged neighbour rows first when given —
    an objective-only round after the final pass must see the *final*
    boundary rows, not the ones delivered before that pass, or the
    graph cross term would mix pre- and post-sweep factors.
    """
    if halo is not None:
        state.su_halo = halo
    block = state.block
    return compute_objective(
        _factor_view(sf, state),
        block.xp,
        block.xu,
        block.xr,
        block.laplacian,
        weights,
        sf_prior=sf_prior,
        su_prior=state.su_prior if su_prior_active else None,
        su_prior_rows=state.evolving_rows if su_prior_active else None,
        statics=block.statics,
        spmm=state.cache.spmm,
        gu_halo=block.gu_halo,
        su_halo=state.su_halo,
        cache=state.cache,
        regularizers=state.regularizers,
    )


def _shared_sf_step(
    sf: np.ndarray,
    total: np.ndarray,
    sf_prior,
    alpha: float,
    kernel: Kernel | str,
    threads: int | None,
    regularizers: Sequence[Regularizer],
) -> np.ndarray:
    """Versioned-resident ``Sf`` step: advance a holder's copy.

    Run identically on the coordinator's mirror and on every worker
    holding the ``"sf"`` shared resident, so only the reduced ``l×k``
    contribution crosses the wire per sweep — never ``Sf`` itself.
    Out-of-process holders receive the kernel's pinned name and resolve
    it locally; the tails are bit-identical across implementations and
    thread budgets, so every holder lands on the same bits.
    ``regularizers`` is the solve's stack; its ``Sf`` terms join the step.
    """
    if isinstance(kernel, str):
        kernel = get_kernel(kernel, threads=threads)
    return apply_sf_update(
        sf, total, sf_prior, alpha, kernel=kernel,
        regularization=stack_terms(regularizers, "sf", _factor_view(sf, None)),
    )


def _shard_boundary(state: _ShardState) -> np.ndarray | None:
    """The shard's published boundary ``Su`` rows (``None`` halo-off).

    A fancy-indexed copy, so the reply never aliases the live factor
    the next pass replaces.
    """
    boundary_local = state.block.boundary_local
    if boundary_local is None:
        return None
    return state.su[boundary_local]


def _shard_offline_pass_with_objective(
    state: _ShardState,
    sf: np.ndarray,
    weights: ObjectiveWeights,
    sf_prior,
    su_prior_active: bool,
    evaluate: bool,
    stop: Callable[[ObjectiveValue], bool] | None = None,
    halo: np.ndarray | None = None,
) -> tuple:
    """Fused Algorithm 1 exchange: lagged objective, then the pass.

    Algorithm 1 evaluates the objective *after* each sweep's ``Sf``
    step — i.e. on the same iterate this command sees *before* running
    its pass.  Evaluating first therefore reports the previous sweep's
    objective (a one-sweep lag the coordinator accounts for), letting a
    converging solve pay one exchange per sweep instead of two.  When
    ``evaluate`` is set the pre-pass factors are kept so convergence
    can roll back the speculative extra pass bit-exactly.  ``stop``
    (one in-process shard only, whose objective is the whole total)
    tests convergence on the spot: a converged solve then skips the
    speculative pass instead of rolling it back.

    ``halo`` piggybacks the cut-edge exchange on this same round: it
    carries every neighbour's *previous-pass* boundary rows — exactly
    the iterate the lagged objective needs, and exactly the remote
    values a Jacobi-style ``Su`` update over the full graph would read
    during this pass.  The reply returns this shard's post-pass
    boundary rows for the coordinator to redistribute next exchange.
    """
    if halo is not None:
        state.su_halo = halo
    objective = None
    if evaluate:
        objective = _shard_objective(
            state, sf, weights, sf_prior, su_prior_active
        )
        if stop is not None and stop(objective):
            return objective, None, _shard_boundary(state)
        state.saved = (state.sp, state.su, state.hp, state.hu, state.su_halo)
    contribution = _shard_offline_pass(state, sf, weights)
    return objective, contribution, _shard_boundary(state)


def _shard_online_pass_with_objective(
    state: _ShardState,
    sf: np.ndarray,
    weights: ObjectiveWeights,
    sf_prior,
    su_prior_active: bool,
    evaluate: bool,
    halo: np.ndarray | None = None,
) -> tuple:
    """Fused Algorithm 2 exchange: the pass, then the current objective.

    Algorithm 2 updates ``Sf`` *before* the row factors, so the staged
    shared-resident step has already advanced this holder's ``Sf`` by
    the time the command runs — pass and objective both see the current
    iterate and no lag or rollback is needed.

    ``halo`` delivers the neighbours' pre-pass boundary rows (the
    values the pass's graph term reads); the fused objective therefore
    sees cross-shard terms one sweep stale — the per-sweep convergence
    trace's documented skew, identical on every backend.  A trailing
    objective-only round (see :meth:`ShardedSolver.objective`) always
    re-delivers fresh rows, so recorded *final* objectives are exact.
    """
    if halo is not None:
        state.su_halo = halo
    contribution = _shard_online_pass(state, sf, weights)
    objective = (
        _shard_objective(state, sf, weights, sf_prior, su_prior_active)
        if evaluate
        else None
    )
    return objective, contribution, _shard_boundary(state)


def _shard_merge_upload(
    state: _ShardState, sf: np.ndarray, rollback: bool, terms: bool
) -> dict:
    """End-of-solve upload: final row factors + reduced consensus terms.

    The consensus fixed point needs only ``SᵀXSf`` and ``SᵀS`` summed
    over shards, so those k×k terms are computed where the blocks live
    (and only when there is more than one shard to reconcile); the row
    factors themselves must cross once anyway (they are the merged
    model).  ``rollback`` restores the pre-pass factors kept by the
    fused offline command when convergence fired one exchange after the
    converged iterate — halo rows included, so any later objective
    evaluation sees neighbour rows consistent with the rolled-back
    factors.
    """
    if rollback:
        (
            state.sp, state.su, state.hp, state.hu, state.su_halo,
        ) = state.saved
    state.saved = None
    upload: dict = {
        "sp": state.sp, "su": state.su, "hp": state.hp, "hu": state.hu
    }
    if not terms:
        return upload
    block = state.block
    for which, rows, factor, data in (
        ("hp", block.num_tweets, state.sp, block.xp),
        ("hu", block.num_users, state.su, block.xu),
    ):
        if rows:
            upload[f"{which}_terms"] = (
                rows, factor.T @ state.cache.dot(data, sf), factor.T @ factor
            )
        else:
            upload[f"{which}_terms"] = None
    return upload


class ShardedSolver:
    """Orchestrates offline and online sweeps over a sharded graph.

    Bound to one :class:`~repro.graph.partition.ShardedGraph` and one
    initial :class:`FactorSet` (scattered row-wise onto the shards).
    The driving solver calls :meth:`solve_offline` / :meth:`solve_online`
    once (they own the convergence loop, fusing each sweep's pass,
    ``Sf`` step, and objective into a single exchange) and
    :meth:`merged_factors` once at the end.  All shard interaction goes
    through the supplied :class:`~repro.utils.executor.WorkerPool` as
    module-level commands against states scattered at construction —
    the pool's backend decides whether those states live on this
    process's heap (serial/thread), pinned inside worker processes, or
    pinned inside remote socket workers.
    Reductions run on the calling thread in shard order, so results are
    deterministic under any scheduling and identical across backends.

    ``kernel``/``spmm`` take a name (``"auto"`` included) or an
    instance and are resolved once here.  In-process states use the
    resolved instances, so a custom :class:`~repro.core.kernels.Kernel`
    or :class:`~repro.core.spmm.SpmmEngine` sees every call; the
    out-of-process payload pins their names instead.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        factors: FactorSet,
        pool: WorkerPool,
        su_prior: np.ndarray | None = None,
        evolving_rows: np.ndarray | None = None,
        kernel: object = "numpy",
        spmm: object = "scipy",
        spmm_threads: int | None = None,
        regularizers: Sequence[Regularizer] = (),
    ) -> None:
        if (
            spmm_threads is None
            # repro-lint: disable=REP006 -- fair-share thread budget applies
            # only to the in-process thread backend; pool.backend was
            # validated by WorkerPool.
            and pool.backend == "thread"
            and pool.max_workers is not None
            and pool.max_workers > 1
        ):
            # Thread-backend shards share this process: give each
            # concurrently running shard its fair share of the cores so
            # W shards × T spmm threads never oversubscribes.  (The
            # serial backend keeps the full budget; process/socket
            # workers install their own fair-share default at startup.)
            concurrent = max(1, min(len(sharded.blocks), pool.max_workers))
            spmm_threads = max(1, affinity_core_count() // concurrent)
        resolved_kernel = resolve_kernel(kernel, threads=spmm_threads)
        engine = resolve_spmm(spmm, spmm_threads)
        # Out-of-process holders receive shared residents as tokens and
        # the Sf step's kernel as its pinned name; in-process commands
        # take the mirror's arrays and the kernel instance directly.
        self._remote = pool.remote
        if regularizers and (self._remote or len(sharded.blocks) > 1):
            raise ValueError("a regularizer stack needs a one-shard in-process solve")
        self._sf_kernel: Kernel | str = (
            resolve_kernel_name(resolved_kernel) if self._remote
            else resolved_kernel
        )
        self._kernel_threads = spmm_threads
        self._regularizers = tuple(regularizers)
        self.sharded = sharded
        self.pool = pool
        self.num_shards = len(sharded.blocks)

        assignments = sharded.partition.assignments
        local_index = np.empty(sharded.graph.num_users, dtype=np.int64)
        for block in sharded.blocks:
            local_index[block.user_rows] = np.arange(block.num_users)

        # Halo bookkeeping: the global boundary stack concatenates every
        # shard's published rows in shard-rank order, and each shard's
        # gather index maps its ghost columns into that stack — fixed at
        # construction, so redistribution is deterministic fancy
        # indexing at any backend or thread count.  A partition with no
        # cut edges (or extracted halo-off) degenerates to the legacy
        # no-halo exchange.
        self._halo = any(
            block.gu_halo is not None and block.gu_halo.nnz
            for block in sharded.blocks
        )
        self._halo_stack: np.ndarray | None = None
        self._halo_saved: np.ndarray | None = None
        if self._halo:
            offsets = np.zeros(self.num_shards + 1, dtype=np.int64)
            for position, block in enumerate(sharded.blocks):
                offsets[position + 1] = (
                    offsets[position] + block.boundary_local.shape[0]
                )
            self._halo_gather = [
                offsets[block.halo_owner] + block.halo_source
                for block in sharded.blocks
            ]
            self._halo_stack = np.concatenate(
                [
                    factors.su[block.user_rows[block.boundary_local]]
                    for block in sharded.blocks
                ]
            )

        states: list[_ShardState] = []
        for block in sharded.blocks:
            if su_prior is not None and evolving_rows is not None:
                selected = assignments[evolving_rows] == block.index
                shard_evolving = local_index[evolving_rows[selected]]
                shard_prior: np.ndarray | None = su_prior[selected]
            else:
                shard_evolving = np.empty(0, dtype=np.int64)
                shard_prior = None
            states.append(
                _ShardState(
                    block=block,
                    sp=factors.sp[block.tweet_rows],
                    su=factors.su[block.user_rows],
                    hp=factors.hp.copy(),
                    hu=factors.hu.copy(),
                    cache=_shard_cache(block, engine),
                    kernel=resolved_kernel,
                    threads=spmm_threads,
                    su_prior=shard_prior,
                    evolving_rows=shard_evolving,
                    su_halo=(
                        self._halo_stack[self._halo_gather[block.index]]
                        if self._halo
                        else None
                    ),
                    regularizers=self._regularizers,
                )
            )
        # One shipment per solve; sweeps exchange only l×k pieces.
        self.epoch = pool.scatter(
            states,
            to_payload=_shard_state_payload,
            from_payload=_shard_state_from_payload,
        )
        # Sf is a versioned shared resident: broadcast in full exactly
        # once here, advanced by staged l×k updates afterwards.
        pool.share("sf", factors.sf)
        self._contributions: Sequence[np.ndarray] = ()
        self._reduce_buffer: np.ndarray | None = None
        self._rollback = False

    @property
    def sf(self) -> np.ndarray:
        """The coordinator's mirror of the shared-resident ``Sf``."""
        return self.pool.shared_value("sf")

    def _shared_arg(self, name: str):
        """A shared resident as a command argument: a token for
        out-of-process holders, the mirror's value in process."""
        if self._remote:
            return self.pool.shared_ref(name)
        return self.pool.shared_value(name)

    def _shard_args(self, weights: ObjectiveWeights, *rest) -> list[tuple]:
        """Per-shard ``(Sf, weights, sf_prior, *rest, halo)`` arguments.

        Every term of Eq. (1)/(19) except the α prior is row-separable;
        the prior depends only on the global ``Sf``, so shard 0 counts
        it exactly once and the others evaluate with ``sf_prior=None``.
        """
        sf, prior = self._shared_arg("sf"), self._shared_arg("sf_prior")
        return [
            (sf, weights, prior if index == 0 else None, *rest, halo)
            for index, halo in enumerate(self._halo_args())
        ]

    def _halo_args(self) -> list:
        """Per-shard ghost-row slices for one exchange (halo-off: Nones).

        Slices are gathered from the current boundary stack in fixed
        shard-rank order and ride the exchange as command arguments —
        the halo costs bytes on the fused round, never an extra round.
        """
        if not self._halo:
            return [None] * self.num_shards
        slices = [self._halo_stack[gather] for gather in self._halo_gather]
        self.pool.telemetry.halo_bytes += sum(s.nbytes for s in slices)
        return slices

    def _consume_halo(self, boundaries: Sequence) -> None:
        """Rebuild the boundary stack from one exchange's replies."""
        if not self._halo:
            return
        # Keep the previously delivered stack: offline convergence may
        # roll this exchange's speculative pass back, and the stack must
        # roll back with the factors it was exchanged against.
        self._halo_saved = self._halo_stack
        self._halo_stack = np.concatenate(boundaries)
        telemetry = self.pool.telemetry
        telemetry.halo_updates += 1
        telemetry.halo_bytes += self._halo_stack.nbytes

    # ------------------------------------------------------------------ #
    # Solve loops (fused sweep + objective exchanges)
    # ------------------------------------------------------------------ #

    def solve_offline(
        self,
        weights: ObjectiveWeights,
        sf_prior,
        *,
        max_iterations: int,
        tolerance: float,
        patience: int,
        track_history: bool,
    ) -> tuple[ConvergenceHistory, bool, int]:
        """Run Algorithm 1 to convergence, one exchange per sweep.

        Exchange ``i`` (0-based) stages the ``Sf`` step for sweep ``i``
        (nothing on the first), evaluates the *previous* sweep's
        objective against the pre-pass factors (keeping them), and runs
        sweep ``i+1``'s pass.  The one-sweep lag means convergence
        detected at exchange ``i`` converged at sweep ``i`` — the
        speculative pass ``i+1`` is rolled back at merge time (one
        in-process shard tests convergence itself and never runs it)
        and ``Sf`` is simply not advanced, so the record sequence,
        factors and iteration count are those of the paper's sequential
        loop bit for bit.
        """
        self.pool.share("sf_prior", sf_prior)
        evaluate = track_history or tolerance > 0
        history = ConvergenceHistory()
        converged = False
        iterations_run = 0
        self._rollback = False
        stop = None
        if self.num_shards == 1 and not self._remote and tolerance > 0:
            stop = partial(history.converged, tolerance, patience)
        for iteration in range(max_iterations):
            if iteration > 0:
                self._advance_sf(weights)
            fuse = evaluate and iteration >= 1
            objective = self._exchange(
                _shard_offline_pass_with_objective, weights, False, fuse,
                stop,
            )
            if objective is not None:
                history.append(objective)
                if history.converged(tolerance, window=patience):
                    converged = True
                    iterations_run = iteration
                    self._rollback = stop is None
                    break
            iterations_run = iteration + 1
        if not converged:
            # The last sweep's Sf step and objective are still pending
            # (the lag never catches up inside the loop).
            self._advance_sf(weights)
            history.append(self.objective(weights))
            if evaluate and history.converged(tolerance, window=patience):
                converged = True
        return history, converged, iterations_run

    def solve_online(
        self,
        weights: ObjectiveWeights,
        sf_prior,
        *,
        max_iterations: int,
        tolerance: float,
        patience: int,
        track_history: bool,
        su_prior_active: bool = False,
    ) -> tuple[ConvergenceHistory, bool, int]:
        """Run Algorithm 2 to convergence, one exchange per sweep.

        Algorithm 2 advances ``Sf`` *before* the row factors, so after
        a priming exchange for the initial contributions each fused
        exchange stages the ``Sf`` step, runs the pass, and evaluates
        the objective on the very same iterate — no lag, no rollback.
        """
        self.pool.share("sf_prior", sf_prior)
        evaluate = track_history or tolerance > 0
        history = ConvergenceHistory()
        converged = False
        iterations_run = 0
        self._contributions = self.pool.run_resident(
            _shard_contribution, [()] * self.num_shards
        )
        for iteration in range(max_iterations):
            self._advance_sf(weights)
            objective = self._exchange(
                _shard_online_pass_with_objective, weights, su_prior_active,
                evaluate,
            )
            iterations_run = iteration + 1
            if objective is not None:
                history.append(objective)
                if history.converged(tolerance, window=patience):
                    converged = True
                    break
        if not evaluate:
            history.append(self.objective(weights, su_prior_active))
        return history, converged, iterations_run

    def _exchange(
        self,
        command,
        weights: ObjectiveWeights,
        su_prior_active: bool,
        evaluate: bool,
        *rest,
    ) -> ObjectiveValue | None:
        """One fused round of a pass command on every shard.

        ``rest`` are further command arguments (the offline command's
        ``stop``).  Keeps the shards' ``Sf`` contributions for the next
        step, redistributes their boundary rows, and returns the reduced
        objective when ``evaluate`` is set.
        """
        replies = self.pool.run_resident(
            command,
            self._shard_args(weights, su_prior_active, evaluate, *rest),
        )
        objectives, self._contributions, boundaries = zip(*replies)
        self._consume_halo(boundaries)
        return self._reduce_objective(objectives) if evaluate else None

    def _advance_sf(self, weights: ObjectiveWeights) -> None:
        """Stage the versioned ``Sf`` step from the reduced contributions.

        Only the ``l×k`` total crosses the wire; every holder (the
        coordinator's mirror eagerly, each worker on its next exchange)
        applies the identical :func:`_shared_sf_step`.
        """
        self.pool.share_update(
            "sf",
            _shared_sf_step,
            self._reduce_contributions(),
            self._shared_arg("sf_prior"),
            weights.alpha,
            self._sf_kernel,
            self._kernel_threads,
            self._regularizers,
        )

    def _reduce_contributions(self) -> np.ndarray:
        parts = self._contributions
        if len(parts) == 1:
            return parts[0]
        # Accumulate into one preallocated buffer, same pairwise order
        # as the naive left fold (bit-identical).  The buffer is safe to
        # reuse: the mirror consumes it eagerly and the staged update op
        # is serialized during the next exchange's send, before the next
        # reduction overwrites it.
        total = self._reduce_buffer
        if (
            total is None
            or total.shape != parts[0].shape
            or total.dtype != parts[0].dtype
        ):
            total = self._reduce_buffer = np.empty_like(parts[0])
        np.copyto(total, parts[0])
        for part in parts[1:]:
            np.add(total, part, out=total)
        return total

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #

    def objective(
        self,
        weights: ObjectiveWeights,
        su_prior_active: bool = False,
    ) -> ObjectiveValue:
        """Current objective, reduced over shards (objective-only round).

        Requires a prior :meth:`solve_offline`/:meth:`solve_online`
        call on this solver (they install the ``"sf_prior"`` shared
        resident the evaluation references).  Halo solves re-deliver
        the current boundary stack so the cross-shard graph term is
        evaluated against the same iterate as the local terms.
        """
        parts = self.pool.run_resident(
            _shard_objective, self._shard_args(weights, su_prior_active)
        )
        return self._reduce_objective(parts)

    def _reduce_objective(
        self, parts: Sequence[ObjectiveValue]
    ) -> ObjectiveValue:
        if len(parts) == 1:
            return parts[0]
        return ObjectiveValue(
            tweet_loss=sum(p.tweet_loss for p in parts),
            user_loss=sum(p.user_loss for p in parts),
            retweet_loss=sum(p.retweet_loss for p in parts),
            lexicon_loss=sum(p.lexicon_loss for p in parts),
            graph_loss=sum(p.graph_loss for p in parts),
            temporal_loss=sum(p.temporal_loss for p in parts),
        )

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #

    def merged_factors(self) -> FactorSet:
        """Scatter shard rows back and distill global ``Hp``/``Hu``.

        Consumes any pending convergence rollback left by
        :meth:`solve_offline` (the speculative extra pass is undone on
        the shards before their factors are uploaded).  One shard's
        upload *is* the model: its rows cover the graph in order and its
        ``Hp``/``Hu`` are already global.
        """
        uploads = self.pool.run_resident(
            _shard_merge_upload,
            [(self._shared_arg("sf"), self._rollback, self.num_shards > 1)]
            * self.num_shards,
        )
        if self._rollback and self._halo:
            # The shards just restored their pre-pass factors; the
            # coordinator's boundary stack rolls back alongside so a
            # later objective round redistributes matching rows.
            self._halo_stack = self._halo_saved
        self._rollback = False
        if self.num_shards == 1:
            (upload,) = uploads
            return FactorSet(
                sf=self.sf, sp=upload["sp"], su=upload["su"],
                hp=upload["hp"], hu=upload["hu"],
            )
        graph = self.sharded.graph
        num_classes = self.sf.shape[1]
        sp = np.zeros((graph.num_tweets, num_classes), dtype=self.sf.dtype)
        su = np.zeros((graph.num_users, num_classes), dtype=self.sf.dtype)
        for block, upload in zip(self.sharded.blocks, uploads):
            sp[block.tweet_rows] = upload["sp"]
            su[block.user_rows] = upload["su"]
        hp = self._consensus_association("hp", uploads)
        hu = self._consensus_association("hu", uploads)
        return FactorSet(sf=self.sf, sp=sp, su=su, hp=hp, hu=hu)

    def _consensus_association(
        self, which: str, uploads: list[dict]
    ) -> np.ndarray:
        """Global Eq. (12)/(13) fixed point from reduced shard terms.

        With shard factors fixed, the global numerator ``SᵀXSf`` and
        gram ``SᵀS`` decompose over shards exactly, so each shard
        uploads its k×k terms and iterating the plain multiplicative
        update from the size-weighted mean of the shard associations
        converges to the one ``k×k`` matrix that best explains the
        *whole* dataset given the merged entity factors.
        """
        sf = self.sf
        num_classes = sf.shape[1]
        sfT_sf = sf.T @ sf
        numerator = np.zeros((num_classes, num_classes), dtype=sf.dtype)
        gram = np.zeros((num_classes, num_classes), dtype=sf.dtype)
        weighted = np.zeros((num_classes, num_classes), dtype=sf.dtype)
        total_rows = 0
        for upload in uploads:
            terms = upload[f"{which}_terms"]
            if terms is None:
                continue
            rows, numerator_term, gram_term = terms
            numerator += numerator_term
            gram += gram_term
            weighted += rows * upload[which]
            total_rows += rows
        if total_rows == 0:
            return np.eye(num_classes, dtype=sf.dtype)
        association = weighted / total_rows
        for _ in range(CONSENSUS_ITERATIONS):
            association = association * safe_sqrt_ratio(
                numerator, gram @ association @ sfT_sf
            )
        return association


# --------------------------------------------------------------------- #
# Planning: what a solve runs on
# --------------------------------------------------------------------- #


@dataclass
class SweepPlan:
    """The shard blocks of one solve and the pool that holds them.

    The plain solvers plan :meth:`one_shard`; the sharded subclasses
    plan a partition and (optionally) a borrowed pool.  :meth:`open`
    runs the solve's :class:`ShardedSolver` and cleans the pool up.
    """

    sharded: ShardedGraph
    pool: WorkerPool
    #: ``True``: the solve owns the pool and shuts it down afterwards.
    #: ``False``: the pool is borrowed (e.g. the serving engine's); only
    #: its graph-sized resident shard states are released.
    owns_pool: bool = True
    #: Pool traffic/timing delta of the solve (a
    #: :meth:`~repro.utils.executor.PoolTelemetry.delta` dict), set when
    #: the solve inside :meth:`open` completes.
    telemetry: dict | None = field(default=None, init=False)

    @classmethod
    def one_shard(cls, graph: TripartiteGraph) -> SweepPlan:
        """The whole graph as one block, solved inline on a serial pool."""
        partition = UserPartition(
            n_shards=1, assignments=np.zeros(graph.num_users, dtype=np.int64)
        )
        return cls(
            extract_shard_blocks(graph, partition),
            WorkerPool(1, backend="serial"),
        )

    @contextmanager
    def open(self, factors: FactorSet, **options) -> Iterator[ShardedSolver]:
        """Scatter ``factors`` onto the plan's pool for one solve.

        ``options`` are :class:`ShardedSolver`'s keyword arguments.
        """
        try:
            before = self.pool.telemetry.snapshot()
            yield ShardedSolver(self.sharded, factors, self.pool, **options)
            self.telemetry = self.pool.telemetry.delta(before)
        finally:
            if self.owns_pool:
                self.pool.shutdown()
            else:
                self.pool.discard_resident()
