"""Streaming engine benchmark: incremental deltas vs. full rebuilds.

The rebuild path (what :func:`repro.experiments.online_runner.
run_online_stream` does) slices a sub-corpus out of the full history for
every snapshot, re-tokenizes every text in it and reassembles
``Xr``/``Gu`` through per-edge Python loops.  The engine path tokenizes
each tweet once at ingest and assembles the per-snapshot matrices from
buffered COO deltas.  Both run the identical online solver, so the
construction columns isolate the pipeline refactor's win.

Emits ``benchmarks/results/bench_streaming.json`` (per-snapshot wall
times for both paths) so the perf trajectory is tracked across PRs,
plus the usual text table.
"""

import json
import time

from repro.core.online import OnlineTriClustering
from repro.data.stream import SnapshotStream, iter_tweet_batches
from repro.engine.config import EngineConfig
from repro.engine.streaming import StreamingSentimentEngine
from repro.experiments.datasets import load_dataset
from repro.experiments.reporting import format_table, results_dir, write_result
from repro.graph.tripartite import build_tripartite_graph

#: 7-day snapshots over the 122-day synthetic campaign → ~17 non-empty
#: snapshots, comfortably above the ≥10 the comparison calls for.
INTERVAL_DAYS = 7


def run_rebuild_path(bundle, config) -> list[dict]:
    """Per-snapshot timings of the rebuild-everything path.

    The ``next()`` on the snapshot stream is charged to construction:
    ``TweetCorpus.window`` scans the whole history per snapshot, which
    is precisely one of the costs the incremental path removes.
    """
    solver = OnlineTriClustering(
        max_iterations=config.online_max_iterations, seed=config.solver_seed
    )
    rows = []
    iterator = iter(SnapshotStream(bundle.corpus, interval_days=INTERVAL_DAYS))
    while True:
        started = time.perf_counter()
        snapshot = next(iterator, None)
        if snapshot is None:
            break
        graph = build_tripartite_graph(
            snapshot.corpus,
            vectorizer=bundle.vectorizer,
            lexicon=bundle.lexicon,
        )
        built = time.perf_counter()
        solver.partial_fit(graph)
        solved = time.perf_counter()
        rows.append(
            dict(
                index=snapshot.index,
                tweets=snapshot.num_tweets,
                users=snapshot.num_users,
                build_seconds=built - started,
                solve_seconds=solved - built,
            )
        )
    return rows


def run_engine_path(bundle, config) -> list[dict]:
    """Per-snapshot timings of the incremental engine path.

    The timed ingest window ends with ``engine.flush()``: the rebuild
    path tokenizes on the measuring thread, so the like-for-like
    construction column charges the ingest worker's tokenization to
    the same clock, as part of the ingest window.
    """
    engine = StreamingSentimentEngine(
        EngineConfig(
            seed=config.solver_seed,
            solver={"max_iterations": config.online_max_iterations},
        ),
        lexicon=bundle.lexicon,
    )
    rows = []
    for _, _, tweets in iter_tweet_batches(
        bundle.corpus, interval_days=INTERVAL_DAYS
    ):
        profiles = bundle.corpus.profiles_for(tweets)
        started = time.perf_counter()
        engine.ingest(tweets, users=profiles)
        engine.flush()
        ingested = time.perf_counter()
        report = engine.advance_snapshot()
        rows.append(
            dict(
                index=report.index,
                tweets=report.num_tweets,
                users=report.num_users,
                # Ingest (tokenize + buffer) plus delta assembly; the
                # engine's post-solve bookkeeping (column alignment, cache
                # invalidation) has no counterpart in the rebuild path and
                # is excluded from the like-for-like construction column.
                build_seconds=(ingested - started) + report.build_seconds,
                solve_seconds=report.solve_seconds,
            )
        )
    return rows


def _construction_only(bundle, path: str) -> float:
    """One solver-free pass over the stream; returns total build seconds."""
    if path == "rebuild":
        started = time.perf_counter()
        for snapshot in SnapshotStream(bundle.corpus, interval_days=INTERVAL_DAYS):
            build_tripartite_graph(
                snapshot.corpus,
                vectorizer=bundle.vectorizer,
                lexicon=bundle.lexicon,
            )
        return time.perf_counter() - started
    from repro.graph.incremental import IncrementalTripartiteBuilder

    builder = IncrementalTripartiteBuilder(lexicon=bundle.lexicon)
    started = time.perf_counter()
    for _, _, tweets in iter_tweet_batches(
        bundle.corpus, interval_days=INTERVAL_DAYS
    ):
        builder.ingest(tweets, users=bundle.corpus.profiles_for(tweets))
        builder.build_snapshot()
    return time.perf_counter() - started


def run_streaming_comparison(config=None) -> dict:
    if config is None:
        from repro.experiments.configs import bench_config

        config = bench_config()
    bundle = load_dataset("prop30", config)
    rebuild = run_rebuild_path(bundle, config)
    engine = run_engine_path(bundle, config)
    # The headline construction comparison comes from dedicated
    # solver-free passes (best of 3): interleaving the solver between
    # construction timings adds allocator/GC noise on the same order as
    # the margin itself at bench scale.
    construction_only = {
        path: min(_construction_only(bundle, path) for _ in range(3))
        for path in ("rebuild", "engine")
    }

    def total(rows: list[dict], key: str) -> float:
        return sum(row[key] for row in rows)

    rebuild_build = total(rebuild, "build_seconds")
    engine_build = total(engine, "build_seconds")
    rebuild_total = rebuild_build + total(rebuild, "solve_seconds")
    engine_total = engine_build + total(engine, "solve_seconds")
    return dict(
        interval_days=INTERVAL_DAYS,
        scale=config.scale,
        snapshots=len(rebuild),
        rebuild=dict(
            construction_seconds=rebuild_build,
            total_seconds=rebuild_total,
            per_snapshot=rebuild,
        ),
        engine=dict(
            construction_seconds=engine_build,
            total_seconds=engine_total,
            per_snapshot=engine,
        ),
        construction_only_seconds=construction_only,
        construction_speedup=(
            construction_only["rebuild"]
            / max(construction_only["engine"], 1e-12)
        ),
        total_speedup=rebuild_total / max(engine_total, 1e-12),
    )


def test_bench_streaming(benchmark):
    outcome = benchmark.pedantic(run_streaming_comparison, rounds=1, iterations=1)

    assert outcome["snapshots"] >= 10
    # The tentpole claim: per-snapshot incremental construction beats the
    # rebuild-everything path over the whole stream.
    assert (
        outcome["construction_only_seconds"]["engine"]
        < outcome["construction_only_seconds"]["rebuild"]
    )

    json_path = results_dir() / "bench_streaming.json"
    json_path.write_text(json.dumps(outcome, indent=2) + "\n", encoding="utf-8")

    rows = [
        [
            "rebuild",
            outcome["snapshots"],
            round(outcome["rebuild"]["construction_seconds"] * 1000, 1),
            round(outcome["rebuild"]["total_seconds"] * 1000, 1),
        ],
        [
            "engine",
            outcome["snapshots"],
            round(outcome["engine"]["construction_seconds"] * 1000, 1),
            round(outcome["engine"]["total_seconds"] * 1000, 1),
        ],
    ]
    text = format_table(
        ["Path", "Snapshots", "Construction ms", "Total ms"],
        rows,
        title=(
            "Streaming: incremental engine vs full rebuild "
            f"(construction speedup {outcome['construction_speedup']:.2f}x, "
            f"total {outcome['total_speedup']:.2f}x)"
        ),
    )
    write_result("bench_streaming", text)
