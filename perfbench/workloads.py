"""The two workloads, each run untraced or traced.

- ``serve-mixed``: the ballot corpus; after a warm-up, a producer
  thread folds one-day snapshots in through ``SentimentService`` on a
  fixed schedule while the main thread sends classify requests on a
  fixed-rate open-loop schedule.
- ``solve-sharded``: ``ShardedOnlineTriClustering(n_shards=2,
  backend="thread")`` over ``synthesize_graph`` snapshots, then a
  closed-loop probe of single-row fold-in requests.

A run returns an :class:`Outcome`; ``run.py`` turns it into the result
line.  Only the measured phase is timed (and, when tracing, recorded):
input generation, set-up and the correctness work after the phase are
not.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro import (
    EngineConfig,
    OnlineTriClustering,
    SentimentService,
    ShardedOnlineTriClustering,
    StreamingSentimentEngine,
    clustering_accuracy,
)
from repro.core.inference import infer_tweet_memberships
from repro.core.kernels import resolve_kernel
from repro.core.objective import compute_objective
from repro.core.spmm import default_spmm, resolve_spmm
from repro.engine.config import SolverConfig
from repro.utils.executor import WorkerPool

from loadgen import (
    Size,
    ballot_inputs,
    classify_schedule,
    probe_texts,
    sleep_until,
    synthetic_stream,
    synthetic_truth,
    text_truth,
    tweet_snapshots,
)
from spans import TimingKernel, TimingSpmm, Tracer, account

#: The text workload's solver runs a fixed number of sweeps per
#: snapshot: with ``tolerance=0`` the convergence test never passes,
#: and ``track_history`` keeps the per-sweep objective evaluation that
#: the default tolerance pays for.  Left to converge, the sweep count
#: moved with the seed (4191-4531 over 90 daily snapshots for seeds
#: 1-4, 48 per snapshot on average) and every timing moved with it.
TEXT_SOLVER = {"max_iterations": 50, "tolerance": 0.0, "track_history": True}
#: serve-mixed folds ``SERVE_WARMUP_SNAPSHOTS`` snapshots of
#: ``size.warmup_tweets`` in during set-up, then ``SERVE_SNAPSHOTS``
#: of ``size.snapshot_tweets`` (about one day of the corpus each) on
#: schedule.  Those 32 keep the producer busy about an eighth of a
#: 20 s phase, so most requests overlap no producer work and the classify
#: p50 measures serving; with 64 daily snapshots in 15 s the producer
#: was busy about half the time and the p50 flipped between 2 and 8 ms
#: from run to run.
SERVE_WARMUP_SNAPSHOTS = 2
SERVE_SNAPSHOTS = 32
#: Classify percentiles are medians over this many consecutive blocks
#: of requests (see ``_block_p``).
CLASSIFY_BLOCKS = 5
#: solve-sharded: sweeps per snapshot (the ``repro stream`` default).
SHARDED_MAX_ITERATIONS = 30
#: solve-sharded: one 20k-user snapshot takes about this long on the
#: 2-core reference host; the snapshot count is ``seconds`` over it.
SHARDED_SNAPSHOT_SECONDS = 1.0
#: solve-sharded cycles through this many distinct measured graphs.
SHARDED_DISTINCT_GRAPHS = 4

#: Layer metrics of a layer the workload does not run.
_IDLE = dict.fromkeys(
    (
        "pipeline.submit_ms", "pipeline.flush_ms", "incremental.ingest_ms",
        "incremental.tweets", "incremental.build_snapshot_ms",
        "vectorizer.transform_ms", "cache.hit_ratio", "streaming.commit_ms",
        "serve.overlap_frac", "executor.rounds_per_sweep",
        "executor.exchange_ms", "executor.wait_ms", "executor.send_ms",
        "executor.bytes_per_sweep", "executor.halo_bytes_per_sweep",
        "loadgen.late_p99_ms", "loadgen.producer_late_ms",
        "sharded.objective_drift_pct",
    ),
    0.0,
)


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    #: Descriptions of failed correctness checks.
    failures: list[str]
    #: Memberships of the fixed probe set against the final model.
    probe: np.ndarray
    #: Wall seconds of the measured phase.
    wall: float
    #: Numbers that must repeat exactly for a seed.
    repeatable: dict[str, float] = field(default_factory=dict)
    #: Tail latencies; too noisy on a shared host to bound, so the
    #: traced run reports the untraced pass's as per-layer rows.
    tails: dict[str, float] = field(default_factory=dict)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _recording(tracer: Tracer | None):
    return tracer.recording() if tracer is not None else nullcontext()


def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _timed_setup(setup, repeats: int, discard):
    """Run ``setup`` ``repeats`` times; keep the last, return all times."""
    durations, kept = [], None
    for _ in range(repeats):
        if kept is not None:
            _release(discard, kept)
        started = time.perf_counter()
        kept = setup()
        durations.append(time.perf_counter() - started)
    return kept, durations


def _release(close, resource) -> None:
    """Close ``resource`` and collect it now, before the next one is built.

    Engines hold reference cycles; left to the collector's own timing,
    two generations of engine state can overlap in memory and move the
    process's peak RSS from run to run.
    """
    close(resource)
    gc.collect()


def _overlap_frac(requests: list, snapshots: list) -> float:
    """Share of request intervals that overlap any snapshot interval."""
    hit = sum(
        any(start < s_end and s_start < end for s_start, s_end in snapshots)
        for start, end in requests
    )
    return hit / len(requests)


def _accuracy(failures: list, size: Size, tweets, users) -> dict:
    """A(C,G) of ``(predicted, truth)`` for tweets and for users.

    A model that puts everything in one cluster scores the majority
    class's share of the labelled items; the run fails unless each
    accuracy beats that share by ``size.accuracy_margin``.
    """
    out = {}
    for name, (predicted, truth) in (
        ("tweet_accuracy", tweets), ("user_accuracy", users)
    ):
        truth = np.asarray(truth)
        out[name] = clustering_accuracy(predicted, truth)
        if size.accuracy_margin is None:
            continue
        one_cluster = clustering_accuracy(np.zeros_like(truth), truth)
        if not out[name] >= one_cluster + size.accuracy_margin:
            failures.append(
                f"{name} {out[name]:.4f} does not beat the one-cluster "
                f"score {one_cluster:.4f} by {size.accuracy_margin}"
            )
    return out


def _block_p(values, q: float, blocks: int = CLASSIFY_BLOCKS) -> float:
    """Median over ``blocks`` consecutive blocks of each block's ``q``-th percentile.

    A host stall of a second or two lands in one block and leaves the
    median of the blocks alone, where it would move the percentile of
    all the values at once.
    """
    return statistics.median(
        _p(block, q) for block in np.array_split(np.asarray(values), blocks)
    )


def _latency_metrics(snapshots: list, requests: list) -> dict:
    return {
        "snapshot_p50_ms": 1000.0 * _p(snapshots, 50),
        "classify_p50_ms": 1000.0 * _block_p(requests, 50),
    }


def _tail_metrics(snapshots: list, requests: list) -> dict:
    return {
        "tail.snapshot_p90_ms": 1000.0 * _p(snapshots, 90),
        "tail.classify_p99_ms": 1000.0 * _block_p(requests, 99),
    }


def _solver_layers(tracer: Tracer, reference: Tracer, iterations: int) -> dict:
    """Solver, spmm and kernel rows; spmm/kernels come from ``reference``."""
    solve_ms = tracer.total_ms("solver.partial_fit")
    kernels = reference.kernel_spans()
    return {
        "solver.partial_fit_ms": solve_ms,
        "solver.iterations": iterations,
        "solver.sweep_ms": solve_ms / max(iterations, 1),
        "spmm.matmul_ms": reference.total_ms("spmm.matmul"),
        "spmm.calls": reference.count("spmm.matmul"),
        "spmm.flops": reference.sum_n("spmm.matmul"),
        "kernels.tail_ms": 1000.0 * sum(r[3] - r[2] for r in kernels),
        "kernels.calls": len(kernels),
    }


# ------------------------------------------------------------------ #
# Text workload
# ------------------------------------------------------------------ #


def make_service(lexicon, tracer: Tracer | None) -> SentimentService:
    """A fixed-sweep service; traced, with probes on its parts."""
    config = EngineConfig(solver=TEXT_SOLVER)
    if tracer is None:
        return SentimentService(config=config, lexicon=lexicon)
    solver_config = asdict(config.solver)
    solver_config["spmm"] = TimingSpmm(
        tracer, resolve_spmm(config.solver.spmm, config.solver.spmm_threads)
    )
    solver_config["kernel"] = TimingKernel(
        tracer,
        resolve_kernel(config.solver.kernel, threads=config.solver.spmm_threads),
    )
    solver = OnlineTriClustering(
        num_classes=config.num_classes, seed=config.seed, **solver_config
    )
    # The engine takes solver settings or a solver instance, not both.
    engine = StreamingSentimentEngine(
        replace(config, solver=SolverConfig()), lexicon=lexicon, solver=solver
    )
    tracer.wrap(
        engine.builder, "ingest", "incremental.ingest",
        count=lambda args: len(args[0]),
    )
    tracer.wrap(engine.builder, "build_snapshot", "incremental.build_snapshot")
    tracer.wrap(engine.solver, "partial_fit", "solver.partial_fit")
    tracer.wrap(engine, "classify_memberships", "inference.classify_memberships")
    tracer.wrap(engine.builder.vectorizer, "transform", "vectorizer.transform")
    return SentimentService(engine)


def warm_service(lexicon, intervals, size: Size, tracer) -> SentimentService:
    """Set-up: a new service with ``intervals`` folded in as warm-up."""
    service = make_service(lexicon, tracer)
    for tweets, profiles in intervals:
        fold(service, tweets, profiles, size.ingest_chunk, tracer)
    return service


def fold(service, tweets, profiles, chunk: int, tracer):
    """Ingest one interval in chunks, drain the queue, snapshot.

    Returns the report, the times the first ingest began, the drain
    that follows the last ingest began, and the snapshot returned (the
    snapshot interval runs from the second to the third), and the
    number of calls made.
    """
    calls = 0
    began = time.perf_counter()
    for offset in range(0, len(tweets), chunk):
        with _span(tracer, "pipeline.submit"):
            service.ingest(
                tweets[offset : offset + chunk],
                users=profiles if offset == 0 else None,
            )
        calls += 1
    started = time.perf_counter()
    with _span(tracer, "pipeline.flush"):
        service.engine.flush()
    with _span(tracer, "streaming.snapshot"):
        report = service.snapshot()
    return report, (began, started, time.perf_counter()), calls + 1


def probe_memberships(service, texts) -> np.ndarray:
    """Memberships of ``texts``, one single-text request at a time."""
    return np.vstack([service.classify([text]).memberships[0] for text in texts])


def text_accuracy(service, inputs, size: Size, failures: list) -> dict:
    """The paper's A(C,G) of the final model on labelled tweets and users."""
    truth, texts, user_truth = text_truth(inputs)
    users = [
        (entry.label, user_truth[entry.user_id])
        for entry in service.user_sentiments()
        if entry.user_id in user_truth
    ]
    predicted, actual = zip(*users) if users else ((), ())
    return _accuracy(
        failures, size, (service.classify(texts).labels, truth),
        (predicted, actual),
    )


def text_layers(tracer: Tracer, service, iterations: int, windows) -> dict:
    """Per-layer metrics of a traced text-workload pass."""
    cache = service.engine.cache
    lookups = cache.hits + cache.misses
    transform_ms = tracer.total_ms("vectorizer.transform")
    layers = dict(_IDLE)
    layers.update(_solver_layers(tracer, tracer, iterations))
    layers.update(
        {
            "pipeline.submit_ms": tracer.total_ms("pipeline.submit"),
            "pipeline.flush_ms": tracer.total_ms("pipeline.flush"),
            "incremental.ingest_ms": tracer.total_ms("incremental.ingest"),
            "incremental.tweets": tracer.sum_n("incremental.ingest"),
            "incremental.build_snapshot_ms": tracer.total_ms(
                "incremental.build_snapshot"
            ),
            "vectorizer.transform_ms": transform_ms,
            "inference.fold_in_ms": tracer.total_ms(
                "inference.classify_memberships"
            ) - transform_ms,
            "cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
            "streaming.commit_ms": tracer.total_ms("streaming.snapshot")
            - tracer.total_ms("incremental.build_snapshot")
            - tracer.total_ms("solver.partial_fit"),
        }
    )
    layers.update(account(tracer, windows))
    return layers


class ServeMixed:
    name = "serve-mixed"

    def prepare(self, seed: int, size: Size, seconds: float):
        inputs = ballot_inputs(seed, size)
        snapshots = tweet_snapshots(
            inputs,
            [size.warmup_tweets] * SERVE_WARMUP_SNAPSHOTS
            + [size.snapshot_tweets] * SERVE_SNAPSHOTS,
        )
        warmup = snapshots[:SERVE_WARMUP_SNAPSHOTS]
        measured = snapshots[SERVE_WARMUP_SNAPSHOTS:]
        requests = classify_schedule(
            [tweets for tweets, _ in measured],
            int(size.classify_rate * seconds), seed,
        )
        return inputs, warmup, measured, probe_texts(inputs, size.probes, seed), requests

    def run(self, prepared, seconds: float, size: Size, tracer) -> Outcome:
        inputs, warmup, measured, probes, requests = prepared
        period = seconds / len(measured)

        def setup():
            return warm_service(inputs.lexicon, warmup, size, tracer)

        service, setups = _timed_setup(
            setup, size.setup_repeats, lambda s: s.close()
        )
        log: dict = {"snapshots": [], "late": [], "rates": [],
                     "iterations": 0, "calls": 0}
        errors: list[BaseException] = []

        def produce(start: float) -> None:
            try:
                for i, (batch, profiles) in enumerate(measured):
                    due = start + i * period
                    with _span(tracer, "loadgen.idle"):
                        sleep_until(due)
                    log["late"].append(time.perf_counter() - due)
                    report, (began, begin, end), calls = fold(
                        service, batch, profiles, size.ingest_chunk, tracer
                    )
                    log["snapshots"].append((begin, end))
                    log["rates"].append(report.num_tweets / (end - began))
                    log["iterations"] += report.iterations
                    log["calls"] += calls
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
            finally:
                log["end"] = time.perf_counter()
                log["thread"] = threading.get_ident()

        try:
            with _recording(tracer):
                started = time.perf_counter() + 0.05
                producer = threading.Thread(
                    target=produce, args=(started,), name="bench-producer"
                )
                producer.start()
                latencies, lateness, served = [], [], []
                for j, text in enumerate(requests):
                    due = started + j / size.classify_rate
                    with _span(tracer, "loadgen.idle"):
                        sleep_until(due)
                    sent = time.perf_counter()
                    with _span(tracer, "service.classify"):
                        service.classify([text])
                    done = time.perf_counter()
                    latencies.append(done - due)
                    lateness.append(sent - due)
                    served.append((sent, done))
                main_end = time.perf_counter()
                producer.join(timeout=seconds + 120.0)
                if producer.is_alive():
                    raise RuntimeError("producer thread did not finish")
            if errors:
                raise errors[0]
            ended = max(main_end, log["end"])
            attempted = len(requests) + log["calls"]
            layers = {}
            if tracer is not None:
                layers = text_layers(
                    tracer, service, log["iterations"],
                    [
                        (log["thread"], started, log["end"]),
                        (threading.get_ident(), started, main_end),
                    ],
                )
                layers.update(
                    {
                        "serve.overlap_frac": _overlap_frac(
                            served, log["snapshots"]
                        ),
                        "loadgen.late_p99_ms": 1000.0 * _p(lateness, 99),
                        "loadgen.producer_late_ms": 1000.0 * max(log["late"]),
                    }
                )
            # The probe runs after the traffic, on an empty cache, so its
            # memberships depend only on the final model.
            service.engine.cache.clear()
            probe = probe_memberships(service, probes)
            failures: list[str] = []
            accuracy = text_accuracy(service, inputs, size, failures)
            attempted += len(probes) + 2
        finally:
            service.close()
        snapshots = [end - begin for begin, end in log["snapshots"]]
        return Outcome(
            e2e={
                "setup_s": statistics.median(setups),
                "tweets_per_s": statistics.median(log["rates"]),
                **_latency_metrics(snapshots, latencies),
                **accuracy,
            },
            layers=layers,
            attempted=attempted,
            failures=failures,
            probe=probe,
            wall=ended - started,
            repeatable={**accuracy, "iterations": log["iterations"]},
            tails=_tail_metrics(snapshots, latencies),
        )


# ------------------------------------------------------------------ #
# Matrix workload
# ------------------------------------------------------------------ #


def _tweet_gram(factors) -> np.ndarray:
    """``Hp·(SfᵀSf)·Hpᵀ``, fixed per model (the engine computes it once)."""
    return factors.hp @ (factors.sf.T @ factors.sf) @ factors.hp.T


def _full_objective(factors, graph, weights) -> float:
    return compute_objective(
        factors, graph.xp, graph.xu, graph.xr, graph.user_graph.laplacian,
        weights, sf_prior=graph.sf0,
    ).total


class SolveSharded:
    name = "solve-sharded"

    def prepare(self, seed: int, size: Size, seconds: float):
        count = max(2, round(seconds / SHARDED_SNAPSHOT_SECONDS))
        distinct = synthetic_stream(seed, size, SHARDED_DISTINCT_GRAPHS + 2)
        probe_graph = distinct.pop()
        stream = [distinct[0]] + [
            distinct[1 + i % SHARDED_DISTINCT_GRAPHS] for i in range(count)
        ]
        xp = probe_graph.xp.tocsr()
        rows = [xp[i] for i in range(min(size.fold_in_requests, xp.shape[0]))]
        probe_truth, _ = synthetic_truth(probe_graph, 3)
        _, user_truth = synthetic_truth(stream[-1], 3)
        return stream, rows, probe_truth[: size.probes], user_truth

    def run(self, prepared, seconds: float, size: Size, tracer) -> Outcome:
        del seconds  # fixed in prepare(), so every pass solves the same graphs
        stream, rows, probe_truth, user_truth = prepared

        def setup():
            solver = ShardedOnlineTriClustering(
                seed=0, max_iterations=SHARDED_MAX_ITERATIONS,
                n_shards=2, backend="thread",
            )
            pool = WorkerPool(2)
            pool.prestart()
            solver.pool = pool
            solver.partial_fit(stream[0])
            return solver, pool

        (solver, pool), setups = _timed_setup(
            setup, size.setup_repeats, lambda kept: kept[1].shutdown()
        )
        spmm = TimingSpmm(tracer, default_spmm()) if tracer else None
        steps, latencies, rates, requests, telemetry = [], [], [], [], {}
        try:
            with _recording(tracer):
                started = time.perf_counter()
                for index, graph in enumerate(stream[1:]):
                    began = time.perf_counter()
                    with _span(tracer, "solver.partial_fit") as record:
                        step = solver.partial_fit(graph)
                    latencies.append(time.perf_counter() - began)
                    for key, value in solver.last_telemetry.items():
                        telemetry[key] = telemetry.get(key, 0) + value
                    if tracer is not None:
                        tracer.add_child(
                            record, "executor.exchange",
                            solver.last_telemetry["exchange_seconds"],
                        )
                    steps.append(step)
                    rates.append(graph.num_tweets / latencies[-1])
                    # Between snapshots, this snapshot's share of the
                    # classify requests, against the model it produced.
                    factors, gram = step.factors, _tweet_gram(step.factors)
                    for row in rows[index :: len(stream) - 1]:
                        began = time.perf_counter()
                        with _span(tracer, "inference.fold_in"):
                            infer_tweet_memberships(
                                row, factors, gram=gram, spmm=spmm
                            )
                        requests.append(time.perf_counter() - began)
                ended = time.perf_counter()
        finally:
            pool.shutdown()
        probe = [
            infer_tweet_memberships(row, factors, gram=gram, spmm=spmm)[0]
            for row in rows[: size.probes]
        ]
        probe = np.vstack(probe)
        iterations = sum(step.iterations for step in steps)
        attempted = len(steps) + len(rows) + 2

        failures: list[str] = []
        tweet_labels = np.where(probe.any(axis=1), probe.argmax(axis=1), -1)
        accuracy = _accuracy(
            failures, size,
            (tweet_labels, probe_truth),
            (steps[-1].user_sentiments(), user_truth),
        )
        layers = {}
        repeatable = {**accuracy, "iterations": iterations}
        if tracer is not None:
            drift, reference = self._drift(stream, steps, solver.weights)
            if not np.isfinite(drift):
                failures.append(f"objective drift is not finite: {drift}")
            attempted += 1
            repeatable["drift"] = drift
            sweeps = max(iterations, 1)
            layers = dict(_IDLE)
            layers.update(_solver_layers(tracer, reference, iterations))
            layers.update(
                {
                    "inference.fold_in_ms": tracer.total_ms("inference.fold_in"),
                    "executor.rounds_per_sweep": telemetry["rounds"] / sweeps,
                    "executor.exchange_ms": 1000.0 * telemetry["exchange_seconds"],
                    "executor.wait_ms": 1000.0 * telemetry["wait_seconds"],
                    "executor.send_ms": 1000.0 * telemetry["send_seconds"],
                    "executor.bytes_per_sweep": (
                        telemetry["bytes_sent"] + telemetry["bytes_received"]
                    ) / sweeps,
                    "executor.halo_bytes_per_sweep": telemetry["halo_bytes"]
                    / sweeps,
                    "sharded.objective_drift_pct": drift,
                }
            )
            layers.update(
                account(tracer, [(threading.get_ident(), started, ended)])
            )
        return Outcome(
            e2e={
                "setup_s": statistics.median(setups),
                "tweets_per_s": statistics.median(rates),
                **_latency_metrics(latencies, requests),
                **accuracy,
            },
            layers=layers,
            attempted=attempted,
            failures=failures,
            probe=probe,
            wall=ended - started,
            repeatable=repeatable,
            tails=_tail_metrics(latencies, requests),
        )

    def _drift(self, stream, steps, weights) -> tuple[float, Tracer]:
        """Mean |sharded - plain| / plain full objective, in percent.

        The plain reference solves the same graph sequence (warm-up
        included) with timing probes on its spmm engine and kernels;
        those give this workload's ``spmm.*`` and ``kernels.*`` rows.
        """
        reference = Tracer()
        plain = OnlineTriClustering(
            seed=0,
            max_iterations=SHARDED_MAX_ITERATIONS,
            spmm=TimingSpmm(reference, resolve_spmm("auto")),
            kernel=TimingKernel(reference, resolve_kernel("auto")),
        )
        plain.partial_fit(stream[0])
        drifts = []
        for graph, step in zip(stream[1:], steps):
            with reference.recording():
                exact = plain.partial_fit(graph).factors
            exact = _full_objective(exact, graph, weights)
            sharded = _full_objective(step.factors, graph, weights)
            drifts.append(abs(sharded - exact) / exact)
        return 100.0 * float(np.mean(drifts)), reference


WORKLOADS = {w.name: w for w in (ServeMixed(), SolveSharded())}
