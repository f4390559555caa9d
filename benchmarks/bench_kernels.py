"""Sweep-kernel benchmark: kernel × dtype × backend × shard-count matrix.

Measures what the fused kernels of :mod:`repro.core.kernels`, the opt-in
float32 mode, and the :class:`~repro.core.sweepcache.SweepCache`
transpose-layout policy buy at realistic scale, against an in-benchmark
emulation of the *pre-kernel* solver:

- ``legacy/float64`` — :class:`_LegacyKernel` reproduces the original
  update tails verbatim (``s * safe_sqrt_ratio(num, den)`` with every
  intermediate materialized, allocating attraction sums) and a
  monkeypatch pins the sweep cache to the lazy ``.T`` product views the
  old code used.  This cell is the baseline all speedups are normalized
  against.
- ``numpy/float64`` — the fused buffer-chained tails, in-place
  attraction accumulation, and the working-set transpose policy.
  **Bit-identical** to legacy by construction; the benchmark asserts the
  final factors are bitwise equal, so this column is pure overhead
  reduction, not a different model.
- ``numba/float64`` — single-pass compiled tails (skipped when numba is
  not importable; ``kernel="auto"`` falls back to numpy).  Also asserted
  bit-identical.
- ``*/float32`` — the opt-in halved-bandwidth mode; tracked against
  float64 on the final objective (documented tolerance, not identity).

The spmm phase measures the pluggable sparse·dense engine layer of
:mod:`repro.core.spmm` the same two ways: an *isolated* microbench of
the sweep's dominant CSR×dense product (``Xp·Sf`` at the scale's real
shapes, best-of reps, bitwise equality to scipy asserted per engine),
and the *whole-sweep marginal* per engine (same measurement protocol as
the kernel cells, float64 factors asserted bit-identical to the scipy
engine).  Without numba the scipy reference is the only engine and
these phases record its baseline; with numba the compiled ``prange``
engine is the headline on a multi-core host and must simply not
regress on a 1-core one (the ``host`` block records which regime
produced the numbers).

Two speedup readouts per cell, deliberately separated:

- ``seconds_per_sweep`` — *marginal* wall-clock per sweep, measured as
  ``(t(BASE_SWEEPS + SWEEPS) − t(BASE_SWEEPS)) / SWEEPS`` so per-solve
  fixed costs (initialization, the data-matrix norms and transposes,
  the single objective evaluation) cannot dilute or inflate the ratio.
  Each cell takes ``SAMPLES`` such ``(lo, hi)`` fit pairs, round-robin
  across the phase's cells so host drift lands on every cell alike, and
  reports their median (``_q1``/``_q3`` hold the quartiles); one pair
  alone swings up to ~2x between back-to-back runs on a 2-core host.  This
  is the honest end-to-end number — and it is Amdahl-limited: scipy's
  sparse·dense products are an instruction-bound scalar loop whose
  cost is nearly dtype-independent, and they dominate the sweep at
  scale.
- ``per_sweep_kernel_ms`` (the ``tails`` section) — per-sweep time spent
  in the element-wise kernel layer itself: the five update tails of one
  Algorithm-1 sweep replayed at the scale's real factor shapes.  This
  isolates the code the kernel layer actually replaced; the ≥2x claim
  is made — and asserted — here, where the kernels are the whole
  workload rather than a slice of it.

The transpose phase times the three transposed products of a sweep —
``Xpᵀ·Sp`` and ``Xuᵀ·Su`` (the ``Sf`` attraction) and ``Xrᵀ·Su`` (the
retweet term of the ``Sp`` update) — in isolation both ways the sweep
cache can run them: the lazy ``.T`` (CSC) view and the materialized CSR
transpose.  Each row records which form the cache's working-set policy
(:data:`~repro.core.sweepcache.TRANSPOSE_OPERAND_BUDGET`) picks at that
shape, so the table shows whether the policy pays at each scale.  One
more table runs the same three products at the shape of one shard of
the ``solve-sharded`` perfbench workload (a 2-shard split of a
20k-user snapshot), and a last one times that shard's online pass
against the per-sweep objective evaluated on the state it left, with
the spmm products each runs (:func:`_objective_cells`).

The sharded phase re-runs the fused solver through
``backend × n_shards`` (``SAMPLES`` fits per cell, round-robin, median
and quartiles) to locate the scale where a multi-shard config first
beats the 1-shard wall clock ("crossover").  On a single-core host
that win can only come from *dropped work* (cross-shard ``Xr`` entries
fall out of the sharded model) plus smaller per-shard working sets,
not parallelism — the ``host`` block in the JSON records which regime
produced the numbers.

``peak_rss_mb`` is the process high-water mark (``ru_maxrss``) read
after each cell's first sample — monotone across cells by construction,
so it is the footprint ceiling of everything up to and including that
cell, not a per-cell delta.

Scales are user counts (``REPRO_KERNELS_SCALES`` overrides, e.g.
``REPRO_KERNELS_SCALES=500`` for the CI smoke job).  The full matrix at
the default scales (up to 240k users / ~1M tweets) runs minutes and is
marked ``offci``; CI runs only :func:`test_kernel_smoke`, which executes
the same harness at toy scale and checks every equality claim without
gating on timing.

Emits ``benchmarks/results/bench_kernels.json`` plus the usual table.
"""

import json
import os
import resource
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.kernels import NumpyKernel, get_kernel, numba_available
from repro.core.objective import ObjectiveWeights
from repro.core.offline import OfflineTriClustering
from repro.core.spmm import SpmmEngine, resolve_spmm
from repro.core.sweep import _shard_objective, _shard_online_pass, _ShardState
from repro.core.sweepcache import TRANSPOSE_OPERAND_BUDGET, SweepCache
from repro.data.synthetic import SyntheticCorpus, synthesize_graph
from repro.experiments.reporting import (
    describe_host,
    format_table,
    results_dir,
    write_result,
)
from repro.graph.partition import extract_shard_blocks, hash_partition
from repro.graph.tripartite import TripartiteGraph
from repro.utils.matrices import safe_sqrt_ratio
from repro.utils.rng import spawn_rng
from repro.utils.threads import host_info, spmm_thread_default

#: Marginal-measurement window: per-sweep cost is the wall-clock delta
#: between a ``BASE_SWEEPS`` fit and a ``BASE_SWEEPS + SWEEPS`` fit,
#: divided by ``SWEEPS``.  Fixed sweep counts (tolerance=0, history off)
#: keep every cell on the same arithmetic volume, never convergence luck.
SWEEPS = 5
BASE_SWEEPS = 2

#: Timed samples per whole-solve and sharded cell (a ``(lo, hi)`` fit
#: pair, or one sharded fit), taken round-robin across a phase's cells;
#: cells report the median and the quartiles.
SAMPLES = 5

SEED = 7

#: Default user-count scales; the top end is ~1M tweets.
DEFAULT_SCALES = (20_000, 80_000, 240_000)

#: Sharded-phase execution matrix.
BACKEND_SHARDS = (
    ("serial", 1),
    ("thread", 2),
    ("thread", 4),
)

#: Best-of repetitions for the tail microbenchmark.
TAIL_REPS = 5

#: Best-of repetitions for the isolated spmm microbenchmark.
SPMM_REPS = 5

#: Timed repetitions (median) for the isolated transpose-layout cells.
TRANSPOSE_REPS = 30

#: The ``solve-sharded`` perfbench workload's graphs: users per
#: snapshot and the snapshots cut from one synthesized population.
SOLVE_SHARDED_USERS = 20_000
SOLVE_SHARDED_SNAPSHOTS = 6


def bench_scales() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_KERNELS_SCALES")
    if not raw:
        return DEFAULT_SCALES
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


class _LegacyKernel(NumpyKernel):
    """The pre-fusion update tails, for an honest in-tree baseline.

    Reproduces the original expressions verbatim — every ``maximum``/
    ``divide``/``sqrt``/``multiply`` materializing a fresh array, and the
    attraction sums allocating instead of accumulating in place — so
    ``legacy`` cells measure the solver this PR replaced.  Same IEEE op
    order as the fused tails, hence bit-identical results in float64
    (asserted by the benchmark and the kernel test-suite).
    """

    name = "legacy"

    def accumulate(self, acc, update):
        return acc + update

    def multiply_tail(self, s, numerator, denominator):
        return s * safe_sqrt_ratio(numerator, denominator)

    def graph_terms(self, attraction, projection, gu_su, du_su, beta):
        return attraction + beta * gu_su, projection + beta * du_su

    def prior_tail(self, sf, attraction, projection, prior, alpha):
        numerator = attraction + alpha * prior
        denominator = projection + alpha * sf
        return sf * safe_sqrt_ratio(numerator, denominator)


@contextmanager
def _legacy_transposes():
    """Blind the sweep cache to materialized transposes.

    With ``xr_T``/``xp_T``/``xu_T`` returning ``None`` every update
    falls back to the lazy ``.T`` (CSC) views, exactly the pre-PR
    product path regardless of what the working-set policy would choose.
    (Bitwise-neutral either way — this only keeps the baseline's
    *timing* faithful.)
    """
    saved = (SweepCache.xr_T, SweepCache.xp_T, SweepCache.xu_T)
    SweepCache.xr_T = lambda self: None
    SweepCache.xp_T = lambda self: None
    SweepCache.xu_T = lambda self: None
    try:
        yield
    finally:
        SweepCache.xr_T, SweepCache.xp_T, SweepCache.xu_T = saved


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spread(samples) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of ``samples``."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return float(median), float(q1), float(q3)


def _fit(graph, kernel, dtype, sweeps, legacy: bool = False,
         n_shards: int = 1, backend: str = "thread",
         spmm: str = "auto", spmm_threads: int | None = None):
    """One fixed-sweep fit; returns (result, elapsed_seconds)."""
    solver = OfflineTriClustering(
        seed=SEED,
        max_iterations=sweeps,
        tolerance=0.0,
        track_history=False,
        kernel=kernel,
        dtype=dtype,
        spmm=spmm,
        spmm_threads=spmm_threads,
        n_shards=n_shards,
        backend=backend,
    )
    with _legacy_transposes() if legacy else nullcontext():
        started = time.perf_counter()
        result = solver.fit(graph)
        elapsed = time.perf_counter() - started
    return result, elapsed


def _marginal_fits(graph, cells: dict) -> dict:
    """Marginal per-sweep seconds of every cell, from interleaved pairs.

    ``cells`` maps a key to :func:`_fit` keyword arguments (all but
    ``sweeps``).  Each of ``SAMPLES`` rounds visits every cell in turn
    and fits it for ``BASE_SWEEPS`` and then ``BASE_SWEEPS + SWEEPS``
    sweeps; the pair's difference over ``SWEEPS`` is one sample.
    Returns ``key -> (long-run result, row fields)``, the fields being
    the median and quartiles of the per-sweep samples, the median
    long-run solve time, and the RSS high-water mark read after the
    cell's first pair (the first round visits the cells in order).
    """
    per_sweep: dict = {key: [] for key in cells}
    totals: dict = {key: [] for key in cells}
    results, rss = {}, {}
    for _ in range(SAMPLES):
        for key, options in cells.items():
            _, lo = _fit(graph, sweeps=BASE_SWEEPS, **options)
            results[key], hi = _fit(
                graph, sweeps=BASE_SWEEPS + SWEEPS, **options
            )
            per_sweep[key].append(max(hi - lo, 0.0) / SWEEPS)
            totals[key].append(hi)
            rss.setdefault(key, _peak_rss_mb())
    timed = {}
    for key in cells:
        median, q1, q3 = _spread(per_sweep[key])
        timed[key] = results[key], dict(
            seconds_per_sweep=median,
            seconds_per_sweep_q1=q1,
            seconds_per_sweep_q3=q3,
            solve_seconds=_spread(totals[key])[0],
            peak_rss_mb=rss[key],
        )
    return timed


def _kernel_cells(graph) -> list[dict]:
    """Phase A: whole-solve kernel × dtype on the unsharded solver."""
    cells = {
        ("legacy", "float64"): dict(
            kernel=_LegacyKernel(), dtype="float64", legacy=True
        ),
        ("numpy", "float64"): dict(kernel="numpy", dtype="float64"),
    }
    if numba_available():
        cells[("numba", "float64")] = dict(kernel="numba", dtype="float64")
    cells[("numpy", "float32")] = dict(kernel="numpy", dtype="float32")
    if numba_available():
        cells[("numba", "float32")] = dict(kernel="numba", dtype="float32")

    timed = _marginal_fits(graph, cells)
    rows = [
        dict(
            kernel=label,
            dtype=dtype,
            **fields,
            objective=float(result.final_objective),
        )
        for (label, dtype), (result, fields) in timed.items()
    ]
    reference = {key: result for key, (result, _) in timed.items()}

    # Bit-identity: float64 is one model across kernel implementations
    # and across the transpose-layout policy.
    legacy64 = reference[("legacy", "float64")].factors
    for label in ("numpy", "numba"):
        other = reference.get((label, "float64"))
        if other is None:
            continue
        for attr in ("sf", "sp", "su", "hp", "hu"):
            assert np.array_equal(
                getattr(legacy64, attr), getattr(other.factors, attr)
            ), f"float64 {label} kernel diverged from legacy on {attr}"

    # float32 tracks float64 on the objective.  The drift grows with
    # scale (longer float32 accumulations in the products feeding the
    # objective): ~9e-4 at 20k users, ~2e-3 at 80k after 7 sweeps.  1%
    # is the documented envelope for the bench scales; the kernel
    # test-suite pins a tighter bound at test scale.
    obj64 = reference[("numpy", "float64")].final_objective
    obj32 = reference[("numpy", "float32")].final_objective
    rel = abs(obj32 - obj64) / abs(obj64)
    assert rel < 1e-2, f"float32 objective drifted {rel:.2e} from float64"

    baseline = rows[0]["seconds_per_sweep"]
    for row in rows:
        row["speedup_vs_legacy"] = baseline / max(
            row["seconds_per_sweep"], 1e-12
        )
    return rows


def _one_sweep_kernel_time(kernel, np_dtype, num_tweets, num_users,
                           num_features, k=3) -> float:
    """Seconds one sweep spends in the element-wise kernel layer.

    Replays the tails of Algorithm 1's sweep order at the scale's real
    factor shapes — the ``Sp`` attraction accumulate + projector tail
    (n×k), the ``Hp``/``Hu`` tails (k×k), the ``Su`` accumulate +
    graph-regularized tail (m×k), and the prior ``Sf`` tail (l×k) — on
    synthetic operands.  Sparse products, GEMMs and memo lookups are
    deliberately excluded: this isolates the code the kernel layer
    replaced.  Best-of-``TAIL_REPS`` after one warm-up application.
    """
    rng = spawn_rng(SEED)

    def draw(rows):
        return rng.random((rows, k)).astype(np_dtype)

    sp_a, sp_b, sp_s = draw(num_tweets), draw(num_tweets), draw(num_tweets)
    su_a, su_b, su_proj = draw(num_users), draw(num_users), draw(num_users)
    gu_su, du_su, su_s = draw(num_users), draw(num_users), draw(num_users)
    sf_att, sf_proj = draw(num_features), draw(num_features)
    sf_prior, sf_s = draw(num_features), draw(num_features)
    hk = rng.random((k, k)).astype(np_dtype)

    def one_sweep():
        # `* 1.0` stands in for the fresh GEMM output the in-solve
        # accumulate receives as its caller-owned base (NEP 50 keeps the
        # array dtype, so float32 cells stay float32 throughout).
        att = kernel.accumulate(sp_a * 1.0, sp_b)
        kernel.projector_tail(sp_s, att, sp_b)
        kernel.multiply_tail(hk, hk, hk)
        su_att = kernel.accumulate(su_a * 1.0, su_b)
        kernel.graph_tail(su_s, su_att, su_proj, gu_su, du_su, 0.8)
        kernel.multiply_tail(hk, hk, hk)
        kernel.prior_tail(sf_s, sf_att, sf_proj, sf_prior, 0.05)

    one_sweep()
    best = float("inf")
    for _ in range(TAIL_REPS):
        started = time.perf_counter()
        one_sweep()
        best = min(best, time.perf_counter() - started)
    return best


def _tail_cells(graph) -> list[dict]:
    """Per-sweep kernel-layer time, kernel × dtype."""
    cells = [("legacy", _LegacyKernel(), np.float64)]
    cells.append(("numpy", get_kernel("numpy"), np.float64))
    cells.append(("numpy", get_kernel("numpy"), np.float32))
    if numba_available():
        cells.append(("numba", get_kernel("numba"), np.float64))
        cells.append(("numba", get_kernel("numba"), np.float32))

    rows = [
        dict(
            kernel=label,
            dtype=np.dtype(np_dtype).name,
            per_sweep_kernel_ms=_one_sweep_kernel_time(
                kernel,
                np_dtype,
                graph.num_tweets,
                graph.num_users,
                graph.num_features,
            )
            * 1000,
        )
        for label, kernel, np_dtype in cells
    ]
    baseline = rows[0]["per_sweep_kernel_ms"]
    for row in rows:
        row["speedup_vs_legacy"] = baseline / max(
            row["per_sweep_kernel_ms"], 1e-9
        )
    return rows


def _spmm_engine_cells() -> list[tuple[str, object]]:
    """The spmm engines this host can run, at the process thread budget.

    ``scipy`` is always the baseline row; the numba engine, when
    importable, gets the budget
    :func:`~repro.utils.threads.spmm_thread_default` resolves (affinity
    cores here; a worker fair share inside pools).
    """
    cells = [("scipy", resolve_spmm("scipy"))]
    if numba_available():
        cells.append(("numba", resolve_spmm("numba", spmm_thread_default())))
    return cells


def _spmm_cells(graph) -> list[dict]:
    """Isolated spmm microbench: the sweep's dominant CSR×dense product.

    Times ``Xp·Sf`` — the largest per-sweep sparse·dense product
    (``num_tweets`` output rows) — per engine at the scale's real
    shapes, best-of-``SPMM_REPS`` after a warm-up application that also
    serves as the bitwise-equality check against scipy.
    """
    rng = spawn_rng(SEED)
    xp = graph.xp.tocsr()
    sf = rng.random((graph.num_features, 3))
    reference = np.asarray(xp @ sf)

    rows = []
    for label, engine in _spmm_engine_cells():
        produced = engine.matmul(xp, sf)  # warm-up + equality evidence
        assert np.array_equal(produced, reference), (
            f"spmm engine {label} diverged from scipy on Xp·Sf"
        )
        best = float("inf")
        for _ in range(SPMM_REPS):
            started = time.perf_counter()
            engine.matmul(xp, sf)
            best = min(best, time.perf_counter() - started)
        rows.append(
            dict(engine=label, threads=engine.threads, spmm_ms=best * 1000)
        )
    baseline = rows[0]["spmm_ms"]
    for row in rows:
        row["speedup_vs_scipy"] = baseline / max(row["spmm_ms"], 1e-9)
    return rows


def _transpose_cells(graph) -> list[dict]:
    """Isolated ``Xpᵀ·Sp``, ``Xuᵀ·Su``, ``Xrᵀ·Su``: lazy CSC against CSR.

    ``graph`` is anything with ``xp``/``xu``/``xr`` (a graph or a shard
    block).  Both forms run at its real shapes on a random ``k=3``
    dense operand, median of ``TRANSPOSE_REPS`` after a warm-up
    application that also checks the two forms bitwise equal.
    ``policy`` is the form :class:`~repro.core.sweepcache.SweepCache`
    picks for this operand: CSR while the operand fits
    ``TRANSPOSE_OPERAND_BUDGET``, else the lazy view.
    """
    rng = spawn_rng(SEED)
    rows = []
    for label, x in (
        ("Xpᵀ·Sp", graph.xp), ("Xuᵀ·Su", graph.xu), ("Xrᵀ·Su", graph.xr)
    ):
        x = x.tocsr()
        dense = rng.random((x.shape[0], 3))
        forms = {"lazy_csc": x.T, "materialized_csr": x.T.tocsr()}
        reference = np.asarray(forms["lazy_csc"] @ dense)
        median_ms = {}
        for form, operand in forms.items():
            assert np.array_equal(np.asarray(operand @ dense), reference), (
                f"{form} {label} diverged from the lazy view"
            )
            samples = []
            for _ in range(TRANSPOSE_REPS):
                started = time.perf_counter()
                np.asarray(operand @ dense)
                samples.append(time.perf_counter() - started)
            median_ms[form] = float(np.median(samples)) * 1000
        fits = x.shape[0] * dense.itemsize <= TRANSPOSE_OPERAND_BUDGET
        rows.append(
            dict(
                product=label,
                operand_rows=int(x.shape[0]),
                lazy_csc_ms=median_ms["lazy_csc"],
                materialized_csr_ms=median_ms["materialized_csr"],
                policy="materialized_csr" if fits else "lazy_csc",
            )
        )
    return rows


def _solve_sharded_shard(num_users: int):
    """Shard 0 of a 2-shard hash split of a ``solve-sharded`` snapshot.

    Rebuilds the first graph of ``perfbench.loadgen.synthetic_stream``
    at seed 1: one population synthesized with
    ``SOLVE_SHARDED_SNAPSHOTS`` snapshots' worth of tweets and
    retweets, cut to its first range of tweet rows.
    """
    whole = synthesize_graph(
        num_users=num_users,
        tweets_per_user=4.0 * SOLVE_SHARDED_SNAPSHOTS,
        retweets_per_user=6.0 * SOLVE_SHARDED_SNAPSHOTS,
        seed=[1, 3],
    )
    end = int(np.linspace(0, whole.num_tweets, SOLVE_SHARDED_SNAPSHOTS + 1)[1])
    authors = whole.corpus.author_rows[:end]
    xp = whole.xp.tocsr()[:end]
    incidence = sp.csr_matrix(
        (np.ones(end), (authors, np.arange(end))), shape=(num_users, end)
    )
    snapshot = TripartiteGraph(
        corpus=SyntheticCorpus(authors, num_users),
        vectorizer=whole.vectorizer,
        xp=xp,
        xu=(incidence @ xp).tocsr(),
        xr=whole.xr.tocsc()[:, :end].tocsr(),
        user_graph=whole.user_graph,
        sf0=whole.sf0,
    )
    partition = hash_partition(snapshot.corpus.user_ids, 2)
    return extract_shard_blocks(snapshot, partition).blocks[0]


class _CountingSpmm(SpmmEngine):
    """The scipy engine, counting its products."""

    def __init__(self) -> None:
        self.calls = 0

    def matmul(self, x, dense):
        self.calls += 1
        return super().matmul(x, dense)


def _objective_cells(block) -> dict:
    """One shard's online pass against its per-sweep objective.

    ``block`` is a :class:`~repro.graph.partition.ShardBlock` (the
    ``solve-sharded`` shard of :func:`_solve_sharded_shard`).  Its state
    runs the shard commands of :mod:`repro.core.sweep` on random
    ``k=3`` factors and random halo rows: a warm-up sweep builds the
    per-solve transposes and norms, then each of ``SAMPLES`` sweeps —
    under a fresh ``Sf`` array, as after the solve's ``Sf`` step — times
    the Algorithm 2 pass (with the shard's ``Sf`` contribution) and then
    the objective on the state that pass left.  The lexicon and
    temporal terms are off (``l×k`` and evolving-row work only).  Rows
    read the median and quartiles, the objective's share of the pair,
    and the spmm products each half runs per sweep.
    """
    rng = spawn_rng(SEED)
    k = 3
    engine = _CountingSpmm()
    state = _ShardState(
        block=block,
        sp=rng.random((block.num_tweets, k)),
        su=rng.random((block.num_users, k)),
        hp=rng.random((k, k)),
        hu=rng.random((k, k)),
        cache=SweepCache(block.xp, block.xu, block.xr, spmm=engine),
        kernel=get_kernel("numpy"),
        su_halo=rng.random((block.gu_halo.shape[1], k)),
    )
    weights = ObjectiveWeights()
    sf = rng.random((block.xp.shape[1], k))
    _shard_online_pass(state, sf, weights)
    _shard_objective(state, sf, weights, None, False)
    passes, objectives, calls = [], [], []
    for _ in range(SAMPLES):
        sf = sf.copy()
        engine.calls = 0
        started = time.perf_counter()
        _shard_online_pass(state, sf, weights)
        passed = time.perf_counter()
        pass_calls = engine.calls
        _shard_objective(state, sf, weights, None, False)
        ended = time.perf_counter()
        passes.append(passed - started)
        objectives.append(ended - passed)
        calls.append((pass_calls, engine.calls - pass_calls))
    assert len(set(calls)) == 1, f"spmm calls vary between sweeps: {calls}"
    (pass_calls, objective_calls), = set(calls)
    pass_ms, pass_q1, pass_q3 = (v * 1000 for v in _spread(passes))
    objective_ms, objective_q1, objective_q3 = (
        v * 1000 for v in _spread(objectives)
    )
    return dict(
        pass_ms=pass_ms,
        pass_ms_q1=pass_q1,
        pass_ms_q3=pass_q3,
        objective_ms=objective_ms,
        objective_ms_q1=objective_q1,
        objective_ms_q3=objective_q3,
        objective_share=objective_ms / (pass_ms + objective_ms),
        pass_spmm_calls=pass_calls,
        objective_spmm_calls=objective_calls,
        spmm_calls_per_sweep=pass_calls + objective_calls,
    )


def _spmm_sweep_cells(graph) -> list[dict]:
    """Whole-sweep marginal per spmm engine (kernel=auto, float64).

    Same marginal protocol as the kernel cells, so the column reads as
    "what the engine buys end to end" — and the float64 factors are
    asserted bit-identical to the scipy-engine row, the regression the
    engine layer's whole design hangs on.
    """
    engines = _spmm_engine_cells()
    timed = _marginal_fits(
        graph,
        {
            label: dict(
                kernel="auto", dtype="float64",
                spmm=label, spmm_threads=engine.threads,
            )
            for label, engine in engines
        },
    )
    rows = []
    reference = None
    for label, engine in engines:
        result, fields = timed[label]
        rows.append(
            dict(
                engine=label,
                threads=engine.threads,
                **fields,
                objective=float(result.final_objective),
            )
        )
        if reference is None:
            reference = result.factors
        else:
            for attr in ("sf", "sp", "su", "hp", "hu"):
                assert np.array_equal(
                    getattr(reference, attr), getattr(result.factors, attr)
                ), f"spmm engine {label} diverged from scipy on {attr}"
    baseline = rows[0]["seconds_per_sweep"]
    for row in rows:
        row["speedup_vs_scipy"] = baseline / max(
            row["seconds_per_sweep"], 1e-12
        )
    return rows


def _sharded_cells(graph) -> list[dict]:
    """Phase B: backend × shards wall-clock on the fused float64 solver.

    ``SAMPLES`` fits per cell, round-robin across the cells; a row
    reads the median solve time and records the quartiles.
    """
    samples: dict = {cell: [] for cell in BACKEND_SHARDS}
    results = {}
    for _ in range(SAMPLES):
        for backend, n_shards in BACKEND_SHARDS:
            result, elapsed = _fit(
                graph, "auto", "float64", SWEEPS,
                n_shards=n_shards, backend=backend,
            )
            results[backend, n_shards] = result
            samples[backend, n_shards].append(elapsed)
    rows = []
    for (backend, n_shards), elapsed in samples.items():
        median, q1, q3 = _spread(elapsed)
        rows.append(
            dict(
                backend=backend,
                n_shards=n_shards,
                solve_seconds=median,
                solve_seconds_q1=q1,
                solve_seconds_q3=q3,
                seconds_per_sweep=median / SWEEPS,
                objective=float(
                    results[backend, n_shards].final_objective
                ),
            )
        )
    baseline = rows[0]["solve_seconds"]
    for row in rows:
        row["speedup_vs_1shard"] = baseline / max(row["solve_seconds"], 1e-12)
    return rows


def run_kernel_benchmark(scales=None, shard_users=SOLVE_SHARDED_USERS) -> dict:
    if scales is None:
        scales = bench_scales()
    by_scale = []
    for num_users in scales:
        graph = synthesize_graph(num_users=num_users, seed=SEED)
        stats = dict(
            num_users=graph.num_users,
            num_tweets=graph.num_tweets,
            num_features=graph.num_features,
            xp_nnz=int(graph.xp.nnz),
            xr_nnz=int(graph.xr.nnz),
            gu_nnz=int(graph.user_graph.adjacency.nnz),
        )
        by_scale.append(
            dict(
                scale=num_users,
                graph=stats,
                kernels=_kernel_cells(graph),
                tails=_tail_cells(graph),
                spmm=_spmm_cells(graph),
                spmm_sweep=_spmm_sweep_cells(graph),
                transposes=_transpose_cells(graph),
                sharded=_sharded_cells(graph),
            )
        )

    # Crossover: smallest scale where some multi-shard config beats the
    # 1-shard wall clock.
    crossover = None
    for entry in by_scale:
        best = max(
            row["speedup_vs_1shard"]
            for row in entry["sharded"]
            if row["n_shards"] > 1
        )
        entry["best_multishard_speedup"] = best
        if best > 1.0 and crossover is None:
            crossover = entry["scale"]

    shard = _solve_sharded_shard(shard_users)
    return dict(
        sweeps=SWEEPS,
        base_sweeps=BASE_SWEEPS,
        samples=SAMPLES,
        seed=SEED,
        numba_available=numba_available(),
        host=host_info(),
        scales=list(scales),
        crossover_scale=crossover,
        by_scale=by_scale,
        sharded_snapshot_transposes=dict(
            snapshot_users=shard_users,
            shard_users=shard.num_users,
            shard_tweets=shard.num_tweets,
            rows=_transpose_cells(shard),
        ),
        sharded_snapshot_objective=dict(
            snapshot_users=shard_users,
            shard_users=shard.num_users,
            shard_tweets=shard.num_tweets,
            halo_columns=int(shard.gu_halo.shape[1]),
            **_objective_cells(shard),
        ),
    )


def _iqr_ms(row: dict, name: str) -> str:
    """A row's ``name`` quartiles in ms, as ``q1–q3``."""
    return f"{row[name + '_q1'] * 1000:.1f}–{row[name + '_q3'] * 1000:.1f}"


def _transpose_table(rows: list[dict], title: str) -> str:
    return format_table(
        ["Product", "Operand rows", "Lazy CSC ms (median)",
         "Materialized CSR ms (median)", "Policy picks"],
        [
            [
                row["product"],
                row["operand_rows"],
                round(row["lazy_csc_ms"], 2),
                round(row["materialized_csr_ms"], 2),
                row["policy"],
            ]
            for row in rows
        ],
        title=title,
    )


def _render(outcome: dict) -> str:
    lines = []
    for entry in outcome["by_scale"]:
        title = (
            f"{entry['scale']} users "
            f"({entry['graph']['num_tweets']} tweets, "
            f"Xp nnz {entry['graph']['xp_nnz']}), "
            f"{describe_host(outcome['host'])}"
        )
        rows = [
            [
                row["kernel"],
                row["dtype"],
                round(row["seconds_per_sweep"] * 1000, 1),
                _iqr_ms(row, "seconds_per_sweep"),
                f"{row['speedup_vs_legacy']:.2f}x",
                round(row["peak_rss_mb"], 0),
            ]
            for row in entry["kernels"]
        ]
        lines.append(
            format_table(
                ["Kernel", "Dtype", "ms/sweep (marginal, median)",
                 "Quartiles ms", "Speedup", "RSS high-water MB"],
                rows,
                title=f"Whole solve — {title}",
            )
        )
        rows = [
            [
                row["kernel"],
                row["dtype"],
                round(row["per_sweep_kernel_ms"], 2),
                f"{row['speedup_vs_legacy']:.2f}x",
            ]
            for row in entry["tails"]
        ]
        lines.append(
            format_table(
                ["Kernel", "Dtype", "kernel ms/sweep", "Speedup"],
                rows,
                title=f"Element-wise kernel layer only — {title}",
            )
        )
        rows = [
            [
                row["engine"],
                row["threads"],
                round(row["spmm_ms"], 3),
                f"{row['speedup_vs_scipy']:.2f}x",
            ]
            for row in entry["spmm"]
        ]
        lines.append(
            format_table(
                ["Engine", "Threads", "Xp·Sf ms (best-of)",
                 "Speedup vs scipy"],
                rows,
                title=f"Isolated spmm product — {title}",
            )
        )
        rows = [
            [
                row["engine"],
                row["threads"],
                round(row["seconds_per_sweep"] * 1000, 1),
                _iqr_ms(row, "seconds_per_sweep"),
                f"{row['speedup_vs_scipy']:.2f}x",
            ]
            for row in entry["spmm_sweep"]
        ]
        lines.append(
            format_table(
                ["Engine", "Threads", "ms/sweep (marginal, median)",
                 "Quartiles ms", "Speedup vs scipy"],
                rows,
                title=f"Whole sweep by spmm engine — {title}",
            )
        )
        lines.append(
            _transpose_table(
                entry["transposes"],
                f"Transposed product layout — {title}",
            )
        )
        rows = [
            [
                row["backend"],
                row["n_shards"],
                round(row["solve_seconds"] * 1000, 1),
                _iqr_ms(row, "solve_seconds"),
                f"{row['speedup_vs_1shard']:.2f}x",
            ]
            for row in entry["sharded"]
        ]
        lines.append(
            format_table(
                ["Backend", "Shards", "Solve ms (median)", "Quartiles ms",
                 "Speedup vs 1-shard"],
                rows,
                title=f"Sharded (kernel=auto, float64) — {title}",
            )
        )
    shard = outcome["sharded_snapshot_transposes"]
    lines.append(
        _transpose_table(
            shard["rows"],
            f"Transposed product layout — shard 0 of a 2-shard split of "
            f"one {shard['snapshot_users']}-user solve-sharded snapshot "
            f"({shard['shard_users']} users, {shard['shard_tweets']} "
            f"tweets), {describe_host(outcome['host'])}",
        )
    )
    objective = outcome["sharded_snapshot_objective"]
    lines.append(
        format_table(
            ["Step", "ms (median of 5)", "Quartiles ms", "Share",
             "spmm calls"],
            [
                [
                    label,
                    round(objective[f"{key}_ms"], 2),
                    f"{objective[f'{key}_ms_q1']:.2f}–"
                    f"{objective[f'{key}_ms_q3']:.2f}",
                    f"{share:.0%}",
                    objective[f"{key}_spmm_calls"],
                ]
                for label, key, share in (
                    ("online pass + Sf contribution", "pass",
                     1.0 - objective["objective_share"]),
                    ("objective on that pass's state", "objective",
                     objective["objective_share"]),
                )
            ],
            title=(
                f"Per-sweep objective against the pass — the same shard "
                f"({objective['halo_columns']} halo columns; "
                f"{objective['spmm_calls_per_sweep']} spmm calls per "
                f"sweep), {describe_host(outcome['host'])}"
            ),
        )
    )
    lines.append(
        "crossover scale (first multi-shard wall-clock win): "
        f"{outcome['crossover_scale']}"
    )
    return "\n\n".join(lines)


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #


def test_kernel_smoke():
    """Every equality claim of the matrix, at toy scale, on every CI run.

    Also pins the numba-absence contract: ``kernel="auto"`` must fall
    back to numpy cleanly (the full fits above ran with it), and an
    explicit ``kernel="numba"`` request must raise rather than silently
    degrade.
    """
    outcome = run_kernel_benchmark(scales=(500,), shard_users=1_000)
    kernels = outcome["by_scale"][0]["kernels"]
    labels = {(row["kernel"], row["dtype"]) for row in kernels}
    assert ("legacy", "float64") in labels
    assert ("numpy", "float64") in labels
    assert ("numpy", "float32") in labels
    assert (("numba", "float64") in labels) == numba_available()
    tails = outcome["by_scale"][0]["tails"]
    assert {row["kernel"] for row in tails} >= {"legacy", "numpy"}

    # The spmm phases ran every engine this host has (bitwise equality
    # to scipy is asserted inside the cells themselves) and the numba
    # row tracks availability exactly — never a silent substitute.
    spmm_engines = {row["engine"] for row in outcome["by_scale"][0]["spmm"]}
    assert spmm_engines >= {"scipy"}
    # repro-lint: disable=REP006 -- availability assertion over bench
    # output rows, not knob dispatch.
    assert ("numba" in spmm_engines) == numba_available()
    sweep_engines = {
        row["engine"] for row in outcome["by_scale"][0]["spmm_sweep"]
    }
    assert sweep_engines == spmm_engines
    # The three transposed products ran both ways, at the scale's shape
    # and at a solve-sharded shard's (bitwise equality of the two forms
    # is asserted inside the cells).
    products = ["Xpᵀ·Sp", "Xuᵀ·Su", "Xrᵀ·Su"]
    transposes = outcome["by_scale"][0]["transposes"]
    assert [row["product"] for row in transposes] == products
    shard_rows = outcome["sharded_snapshot_transposes"]["rows"]
    assert [row["product"] for row in shard_rows] == products
    # The objective reads the pass's Xpᵀ·Sp, Xuᵀ·Su and Xr·Sp: its only
    # sparse products are Lu·Su and, on a shard with cut edges, the halo
    # cross term.
    objective = outcome["sharded_snapshot_objective"]
    halo = 1 if objective["halo_columns"] else 0
    assert objective["objective_spmm_calls"] == 1 + halo
    assert objective["pass_spmm_calls"] == 8 + halo

    if not numba_available():
        with pytest.raises(RuntimeError, match="numba"):
            OfflineTriClustering(kernel="numba").fit(
                synthesize_graph(num_users=50, seed=1)
            )
        with pytest.raises(RuntimeError, match="numba"):
            resolve_spmm("numba")
        with pytest.raises(RuntimeError, match="numba"):
            OfflineTriClustering(spmm="numba").fit(
                synthesize_graph(num_users=50, seed=1)
            )
        # "auto" must degrade cleanly to the bit-identical scipy engine.
        assert resolve_spmm("auto").name == "scipy"


@pytest.mark.offci
def test_bench_kernels(benchmark):
    outcome = benchmark.pedantic(run_kernel_benchmark, rounds=1, iterations=1)

    largest = outcome["by_scale"][-1]
    best_tail = max(
        row["speedup_vs_legacy"]
        for row in largest["tails"]
        if row["kernel"] != "legacy"
    )
    assert best_tail >= 2.0, (
        f"fused/float32 kernel layer under 2x at scale {largest['scale']}: "
        f"{largest['tails']}"
    )
    assert largest["best_multishard_speedup"] > 1.0, (
        f"no multi-shard win at scale {largest['scale']}: "
        f"{largest['sharded']}"
    )

    # The spmm acceptance bar is host-conditional: a parallel engine
    # must clear 1.5x on the isolated product when real cores exist,
    # and must merely not regress (within 10% of scipy) on the 1-core
    # reference host, where it degenerates to one thread.  Without
    # numba there is no parallel engine row to hold to either bar.
    parallel_speedups = [
        row["speedup_vs_scipy"]
        for row in largest["spmm"]
        if row["engine"] != "scipy"
    ]
    if parallel_speedups and outcome["host"]["affinity_cores"] > 1:
        assert max(parallel_speedups) >= 1.5, (
            f"isolated spmm under 1.5x on a multi-core host: "
            f"{largest['spmm']}"
        )
    elif parallel_speedups:
        assert max(parallel_speedups) >= 0.9, (
            f"spmm engine regressed >10% on the 1-core host: "
            f"{largest['spmm']}"
        )

    json_path = results_dir() / "bench_kernels.json"
    json_path.write_text(json.dumps(outcome, indent=2) + "\n",
                         encoding="utf-8")
    write_result("bench_kernels", _render(outcome))
