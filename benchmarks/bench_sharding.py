"""Sharded solve benchmark: backend × shard-count wall-clock matrix.

Runs the identical streaming workload (prop30, 7-day snapshots through
the engine path) at several ``n_shards`` settings on each execution
backend (``thread`` and ``socket`` by default) and records per-snapshot
solve wall times.  Each cell is ``SAMPLES`` engine passes, taken
round-robin across the cells so host drift lands on every cell alike;
the timing fields are the passes' median, with the quartiles beside
them (``*_q1``/``*_q3``) — one pass alone swings ~1.5x between runs of
identical arithmetic on a 2-core host.  The thread backend at one shard is the
plain online solver — the baseline every other cell of the matrix is
normalized against.  For the socket column the "remote" workers are two
:class:`~repro.utils.transport.WorkerServer` processes spawned on
localhost — the real framed-TCP transport, minus the actual network, so
the column isolates protocol cost (framing + loopback) from fabric
latency.

Two speedup readouts are reported:

- ``solve_speedup`` — end-to-end solve wall-clock ratio.  The honest
  serving metric, but it mixes in convergence differences (a sharded
  solve may stop after a different sweep count).
- ``per_sweep_speedup`` — wall-clock *per sweep* ratio, the isolated
  parallelism win of fanning per-shard updates across the worker pool.

Backend trade-off being measured: threads overlap in the GIL-releasing
scipy/numpy products but serialize the Python-level bookkeeping between
them; socket workers own their shards outright (blocks pinned
worker-resident, ``Sf`` broadcast once as a versioned shared resident,
then one fused exchange per sweep moving only ``l×k`` pieces) at the
price of that per-sweep exchange over TCP.  The ``rounds/sweep`` and
``KiB/sweep`` columns surface the pool telemetry so the coordination
cost is measured, not asserted (the thread 1-shard baseline is the
plain solver and has no pool — those cells read ``-``).  Either way the
arithmetic is identical —
the benchmark asserts that every backend lands on the bit-same final
objective per shard count — so the matrix isolates pure execution cost.
Multi-shard speedups only materialize on a multi-core machine; the
recorded ``cpu_count`` pins what the JSON trajectory was measured on,
and the speedup assertion is gated on having both multiple cores and at
least bench scale (CI smoke runs record the trajectory without
asserting).  ``REPRO_SHARDING_BACKENDS`` (comma-separated) restricts
the backend axis.

Every multi-shard cell keeps the cut ``Gu`` edges as halo blocks.  Two
drift columns separate accountability: **Objective drift** is the
full-model gap versus unsharded, asserted under 25%; **Graph drift** is
the graph-regularizer term's slice of it — the part the halo owns,
asserted inside noise (<= 0.1%) at the widest shard count.  The
residual total drift is the documented remaining approximation (cut
``Xr`` entries and per-shard ``Hp``/``Hu``), not the graph term.
``Halo KiB/sweep`` surfaces the exchange payload (O(boundary rows x k)
per sweep, coordinator-side accounting so it shows on every backend).

Emits ``benchmarks/results/bench_sharding.json`` plus the usual table.
"""

import json
import os
import time

import numpy as np

from repro.core.objective import compute_objective
from repro.data.stream import iter_tweet_batches
from repro.engine.config import EngineConfig
from repro.engine.streaming import StreamingSentimentEngine
from repro.experiments.datasets import load_dataset
from repro.experiments.reporting import (
    describe_host,
    format_table,
    results_dir,
    write_result,
)
from repro.utils.executor import default_worker_count
from repro.utils.threads import host_info

#: Same snapshotting as bench_streaming: 7-day windows over the 122-day
#: synthetic campaign → ~17 non-empty snapshots.
INTERVAL_DAYS = 7

#: Shard counts to sweep.  4 matches the GitHub-hosted runner vCPUs.
SHARD_COUNTS = (1, 2, 4)

#: Execution backends to sweep (overridable via REPRO_SHARDING_BACKENDS).
BACKENDS_DEFAULT = ("thread", "socket")

#: Engine passes per cell, round-robin across the cells; timings report
#: the median and the quartiles of the passes.
SAMPLES = 5

#: Localhost WorkerServer processes backing the socket column.
SOCKET_WORKER_COUNT = 2

#: Minimum scale at which the speedup assertion is meaningful — below
#: this the per-shard matrices are too small for parallel overlap to
#: beat pool dispatch overhead.
ASSERT_SCALE = 0.06


def bench_backends() -> tuple:
    raw = os.environ.get("REPRO_SHARDING_BACKENDS")
    if not raw:
        return BACKENDS_DEFAULT
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _spread(samples) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of ``samples``."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return float(median), float(q1), float(q3)


def run_cell(bundle, config, backend: str, n_shards: int, workers=None) -> dict:
    """One full engine pass at (backend, n_shards); per-snapshot timings."""
    engine = StreamingSentimentEngine(
        EngineConfig(
            seed=config.solver_seed,
            solver={"max_iterations": config.online_max_iterations},
            sharding={
                "n_shards": n_shards,
                "backend": backend,
                # repro-lint: disable=REP006 -- socket-only workers list
                # plumbing; ShardingConfig validates the backend name.
                "workers": workers if backend == "socket" else None,
            },
        ),
        lexicon=bundle.lexicon,
    )
    rows = []
    telemetry_total: dict = {}
    try:
        for _, _, tweets in iter_tweet_batches(
            bundle.corpus, interval_days=INTERVAL_DAYS
        ):
            engine.ingest(tweets, users=bundle.corpus.profiles_for(tweets))
            started = time.perf_counter()
            report = engine.advance_snapshot()
            elapsed = time.perf_counter() - started
            if report.pool_telemetry:
                for key, value in report.pool_telemetry.items():
                    telemetry_total[key] = telemetry_total.get(key, 0) + value
            pool = report.pool_telemetry or {}
            rows.append(
                dict(
                    index=report.index,
                    tweets=report.num_tweets,
                    users=report.num_users,
                    iterations=report.iterations,
                    solve_seconds=report.solve_seconds,
                    wall_seconds=elapsed,
                    # Per-snapshot halo activity: a snapshot whose
                    # partition happens to cut no Gu edge runs with the
                    # halo inert — the telemetry checker verifies
                    # all-or-nothing per solve.
                    halo_updates=pool.get("halo_updates", 0),
                    halo_bytes=pool.get("halo_bytes", 0),
                )
            )
        # Final-snapshot factors evaluated on the FULL (uncut) objective,
        # so cells are compared on one common yardstick — this is the
        # documented-tolerance number for the sharded solve's remaining
        # approximation, and the cross-backend determinism witness (all
        # backends must land on the bit-same value per shard count).
        step, graph = engine.last_step, engine.last_graph
        objective = compute_objective(
            step.factors,
            graph.xp,
            graph.xu,
            graph.xr,
            graph.user_graph.laplacian,
            engine.solver.weights,
            sf_prior=graph.sf0,
        )
        full_objective = objective.total
        full_graph_loss = objective.graph_loss
    finally:
        engine.close()
    solve_seconds = sum(r["solve_seconds"] for r in rows)
    sweeps = sum(r["iterations"] for r in rows)
    return dict(
        backend=backend,
        n_shards=n_shards,
        snapshots=len(rows),
        solve_seconds=solve_seconds,
        wall_seconds=sum(r["wall_seconds"] for r in rows),
        sweeps=sweeps,
        seconds_per_sweep=solve_seconds / max(sweeps, 1),
        full_objective=full_objective,
        full_graph_loss=full_graph_loss,
        # Pool coordination cost (None for the plain thread-1 baseline,
        # which runs without a pool): exchange rounds and bytes moved
        # per sweep, straight from PoolTelemetry.
        telemetry=telemetry_total or None,
        rounds_per_sweep=(
            telemetry_total["rounds"] / max(sweeps, 1)
            if telemetry_total
            else None
        ),
        kib_per_sweep=(
            (telemetry_total["bytes_sent"] + telemetry_total["bytes_received"])
            / 1024.0
            / max(sweeps, 1)
            if telemetry_total
            else None
        ),
        # Halo payload per sweep (coordinator-side accounting, so it is
        # populated on every backend — the thread pool's zero-copy
        # bytes_sent/received columns read 0 by design).  O(cut-edge
        # boundary rows x k) per exchange; 0 at one shard.
        halo_kib_per_sweep=(
            telemetry_total.get("halo_bytes", 0) / 1024.0 / max(sweeps, 1)
            if telemetry_total
            else None
        ),
        per_snapshot=rows,
    )


def _median_run(samples: list[dict]) -> dict:
    """One cell's record from its passes.

    Sweeps, objectives, pool counters and per-snapshot rows come from
    the first pass — every pass runs the same arithmetic, which is
    checked here — and the timing fields are the median of all passes,
    with the quartiles beside them.
    """
    run = dict(samples[0])
    for other in samples[1:]:
        assert (other["sweeps"], other["full_objective"]) == (
            run["sweeps"], run["full_objective"]
        ), f"passes of {run['backend']} x {run['n_shards']} disagree"
    for key in ("solve_seconds", "wall_seconds", "seconds_per_sweep"):
        median, q1, q3 = _spread([sample[key] for sample in samples])
        run[key], run[f"{key}_q1"], run[f"{key}_q3"] = median, q1, q3
    return run


def run_sharding_comparison(config=None, backends=None) -> dict:
    if config is None:
        from repro.experiments.configs import bench_config

        config = bench_config()
    if backends is None:
        backends = bench_backends()
    bundle = load_dataset("prop30", config)
    fleet = None
    try:
        # repro-lint: disable=REP006 -- fleet setup for the socket leg of
        # the bench matrix; backend names come from the validated env list.
        if "socket" in backends:
            from repro.utils.transport import LocalWorkerFleet

            fleet = LocalWorkerFleet(SOCKET_WORKER_COUNT)
        workers = fleet.addresses if fleet is not None else None
        passes: dict = {
            (backend, n): [] for backend in backends for n in SHARD_COUNTS
        }
        for _ in range(SAMPLES):
            for backend, n in passes:
                passes[backend, n].append(
                    run_cell(bundle, config, backend, n, workers=workers)
                )
    finally:
        if fleet is not None:
            fleet.close()
    runs = [_median_run(samples) for samples in passes.values()]
    baseline = runs[0]
    for run in runs:
        run["solve_speedup"] = baseline["solve_seconds"] / max(
            run["solve_seconds"], 1e-12
        )
        run["per_sweep_speedup"] = baseline["seconds_per_sweep"] / max(
            run["seconds_per_sweep"], 1e-12
        )
        run["objective_rel_diff"] = (
            run["full_objective"] - baseline["full_objective"]
        ) / baseline["full_objective"]
        # The graph-regularizer term's contribution to the total drift —
        # the component the cut-edge halo is accountable for.  Both
        # drifts are normalized by the same baseline total so they are
        # directly comparable (graph drift is a slice of total drift).
        run["graph_rel_diff"] = (
            run["full_graph_loss"] - baseline["full_graph_loss"]
        ) / baseline["full_objective"]
    return dict(
        interval_days=INTERVAL_DAYS,
        scale=config.scale,
        samples=SAMPLES,
        # Kept for readers of older result files; ``host`` is the real
        # provenance record (``default_worker_count`` is the *affinity*
        # count, which on containerized runners is neither the physical
        # nor the logical core count).
        cpu_count=default_worker_count(),
        host=host_info(),
        shard_counts=list(SHARD_COUNTS),
        backends=list(backends),
        runs=runs,
    )


def test_bench_sharding(benchmark):
    outcome = benchmark.pedantic(run_sharding_comparison, rounds=1, iterations=1)

    runs = outcome["runs"]
    assert runs[0]["snapshots"] >= 10
    for run in runs:
        assert run["snapshots"] == runs[0]["snapshots"]
        # Sharding approximation stays close to the unsharded model on
        # the full objective (documented tolerance).
        assert abs(run["objective_rel_diff"]) < 0.25

    # The halo's accountability assertion.  The cut-edge halo makes
    # the graph-smoothness term exact, so at the widest shard count its
    # contribution to the drift must sit inside noise (<= 0.1%); the
    # remaining drift is the *documented* residual approximation (cut
    # Xr entries and per-shard Hp/Hu/consensus — see README).
    for run in runs:
        if run["n_shards"] == max(outcome["shard_counts"]):
            assert abs(run["graph_rel_diff"]) <= 0.001, (
                f"halo left graph-term drift outside noise: "
                f"{run['graph_rel_diff']:+.4%}"
            )

    # Backends are an execution detail, not a model change: for every
    # shard count the final-snapshot objective must be bit-identical
    # across every backend in the matrix.
    by_count: dict[int, list[float]] = {}
    for run in runs:
        by_count.setdefault(run["n_shards"], []).append(run["full_objective"])
    for n_shards, values in by_count.items():
        assert all(value == values[0] for value in values), (
            f"backend-dependent objective at n_shards={n_shards}: {values}"
        )

    if (
        default_worker_count() >= 2
        and outcome["scale"] >= ASSERT_SCALE
        and os.environ.get("REPRO_SHARDING_ASSERT", "1") != "0"
    ):
        # The tentpole claim: on a multi-core machine at bench scale,
        # fanning shard sweeps across the pool beats the serial solve.
        # REPRO_SHARDING_ASSERT=0 records the trajectory without gating
        # (shared CI runners have noisy-neighbour timing; the uploaded
        # JSON is the evidence there, not a pass/fail bit).
        best = max(
            run["per_sweep_speedup"]
            for run in runs
            if run["n_shards"] > 1
        )
        assert best > 1.0, f"no multi-shard speedup: {runs}"

    json_path = results_dir() / "bench_sharding.json"
    json_path.write_text(json.dumps(outcome, indent=2) + "\n", encoding="utf-8")

    rows = [
        [
            run["backend"],
            run["n_shards"],
            run["snapshots"],
            round(run["solve_seconds"] * 1000, 1),
            round(run["seconds_per_sweep"] * 1000, 2),
            f"{run['seconds_per_sweep_q1'] * 1000:.2f}–"
            f"{run['seconds_per_sweep_q3'] * 1000:.2f}",
            f"{run['solve_speedup']:.2f}x",
            f"{run['per_sweep_speedup']:.2f}x",
            (
                f"{run['rounds_per_sweep']:.2f}"
                if run["rounds_per_sweep"] is not None
                else "-"
            ),
            (
                f"{run['kib_per_sweep']:.1f}"
                if run["kib_per_sweep"] is not None
                else "-"
            ),
            (
                f"{run['halo_kib_per_sweep']:.1f}"
                if run["halo_kib_per_sweep"] is not None
                else "-"
            ),
            f"{run['objective_rel_diff']:+.2%}",
            f"{run['graph_rel_diff']:+.3%}",
        ]
        for run in runs
    ]
    text = format_table(
        [
            "Backend",
            "Shards",
            "Snapshots",
            "Solve ms",
            "ms/sweep",
            "ms/sweep q1–q3",
            "Solve speedup",
            "Sweep speedup",
            "Rounds/sweep",
            "KiB/sweep",
            "Halo KiB/sweep",
            "Objective drift",
            "Graph drift",
        ],
        rows,
        title=(
            f"Sharded streaming solve, {describe_host(outcome['host'])} "
            f"(scale {outcome['scale']}, median of {outcome['samples']} "
            "passes per cell)"
        ),
    )
    write_result("bench_sharding", text)
