"""Streaming engine benchmark: incremental deltas vs. full rebuilds.

The rebuild path (what :func:`repro.experiments.online_runner.
run_online_stream` does) slices a sub-corpus out of the full history for
every snapshot and re-tokenizes and re-counts every text in it.  The
engine path tokenizes each distinct text once at ingest and builds
``Xp`` from the count rows buffered then.  Both build ``Xr``/``Gu``
with the same functions and run the identical online solver, so the
construction columns isolate the incremental pipeline's win.

A second table times the ingest stages one by one at the shape of the
``serve-mixed`` perfbench warm-up: tokenizing, interning and counting,
and ``build_snapshot``'s ``Xp``, ``Xr``, ``Gu`` and corpus steps.

Emits ``benchmarks/results/bench_streaming.json`` (per-snapshot wall
times for both paths, and the ingest-stage samples) so the perf
trajectory is tracked across PRs, plus the usual text tables.
"""

import json
import time

import numpy as np

from repro.core.online import OnlineTriClustering
from repro.data.stream import SnapshotStream, iter_tweet_batches
from repro.data.synthetic import BallotDatasetGenerator, prop30_config
from repro.engine.config import EngineConfig
from repro.engine.streaming import StreamingSentimentEngine
from repro.experiments.datasets import load_dataset
from repro.experiments.reporting import (
    describe_host,
    format_table,
    results_dir,
    write_result,
)
from repro.graph.bipartite import build_user_tweet_matrix
from repro.graph.incremental import IncrementalTripartiteBuilder
from repro.graph.tripartite import build_tripartite_graph
from repro.graph.usergraph import build_user_graph
from repro.text.vocabulary import Vocabulary
from repro.utils.threads import host_info

#: 7-day snapshots over the 122-day synthetic campaign → ~17 non-empty
#: snapshots, comfortably above the ≥10 the comparison calls for.
INTERVAL_DAYS = 7

#: The ingest-stage table's input, whatever ``REPRO_SCALE`` says: the
#: first ``INGEST_TWEETS`` tweets, in time order, of the seed-1 prop30
#: corpus at scale 2.5, ingested ``INGEST_CHUNK`` at a time — one
#: ``serve-mixed`` warm-up snapshot.
INGEST_SCALE = 2.5
INGEST_SEED = 1
INGEST_TWEETS = 6250
INGEST_CHUNK = 200
#: Samples per ingest-stage cell (the table reads median and quartiles).
INGEST_REPEATS = 5


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


def _ingest_interval():
    """``(tweets, profiles, lexicon)`` of the ingest-stage table."""
    generator = BallotDatasetGenerator(
        prop30_config(INGEST_SCALE), seed=INGEST_SEED
    )
    corpus = generator.generate()
    tweets = [
        tweet
        for _, _, batch in iter_tweet_batches(corpus, interval_days=1)
        for tweet in batch
    ][:INGEST_TWEETS]
    return tweets, corpus.profiles_for(tweets), generator.lexicon()


def _ingest_sample(tweets, profiles, lexicon) -> dict:
    """One timing of each ingest stage on a fresh builder.

    Tokenizing covers each distinct text once (the builder's memo
    serves repeats); interning and counting runs
    ``Vocabulary.add_documents`` on ``INGEST_CHUNK``-tweet batches, as
    ``ingest`` does.  The ``build_snapshot`` steps are the builder's
    own, timed one by one in the order it runs them, and then the whole
    call, whose remainder is the idf refresh, ``Xu`` and ``Sf0``.
    """
    builder = IncrementalTripartiteBuilder(lexicon=lexicon)
    chunks = [
        tweets[offset : offset + INGEST_CHUNK]
        for offset in range(0, len(tweets), INGEST_CHUNK)
    ]
    texts = list(dict.fromkeys(tweet.text for tweet in tweets))

    started = time.perf_counter()
    tokens = {text: builder.vectorizer.analyzer(text) for text in texts}
    tokenized = time.perf_counter()
    vocabulary = Vocabulary()
    for chunk in chunks:
        vocabulary.add_documents([tokens[tweet.text] for tweet in chunk])
    counted = time.perf_counter()
    for index, chunk in enumerate(chunks):
        builder.ingest(chunk, users=profiles if index == 0 else None)
    ingested = time.perf_counter()

    corpus = builder._snapshot_corpus(builder._pending, None)
    corpus_done = time.perf_counter()
    builder.vectorizer.refresh_idf()
    refreshed = time.perf_counter()
    builder._build_xp()
    xp_done = time.perf_counter()
    build_user_tweet_matrix(corpus)
    xr_done = time.perf_counter()
    build_user_graph(corpus)
    gu_done = time.perf_counter()
    builder.build_snapshot()
    built = time.perf_counter()
    return {
        "tokenize_us_per_text": 1e6 * (tokenized - started) / len(texts),
        "intern_count_us_per_tweet": 1e6 * (counted - tokenized) / len(tweets),
        "ingest_ms": 1e3 * (ingested - counted),
        "xp_ms": 1e3 * (xp_done - refreshed),
        "xr_ms": 1e3 * (xr_done - xp_done),
        "gu_ms": 1e3 * (gu_done - xr_done),
        "corpus_ms": 1e3 * (corpus_done - ingested),
        "build_snapshot_ms": 1e3 * (built - gu_done),
    }


def run_ingest_stages() -> dict:
    """Median and quartiles of each ingest stage over ``INGEST_REPEATS``."""
    tweets, profiles, lexicon = _ingest_interval()
    samples = [
        _ingest_sample(tweets, profiles, lexicon) for _ in range(INGEST_REPEATS)
    ]
    cells = {}
    for key in samples[0]:
        q1, median, q3 = np.percentile([s[key] for s in samples], [25, 50, 75])
        cells[key] = dict(median=float(median), q1=float(q1), q3=float(q3))
    return dict(
        tweets=len(tweets),
        distinct_texts=len({tweet.text for tweet in tweets}),
        scale=INGEST_SCALE,
        seed=INGEST_SEED,
        chunk=INGEST_CHUNK,
        repeats=INGEST_REPEATS,
        host=host_info(),
        cells=cells,
        samples=samples,
    )


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
        ingest_stages=run_ingest_stages(),
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
    stages = outcome["ingest_stages"]
    columns = [
        ("Tokenize µs/text", "tokenize_us_per_text"),
        ("Intern+count µs/tweet", "intern_count_us_per_tweet"),
        ("Ingest ms", "ingest_ms"),
        ("Xp ms", "xp_ms"),
        ("Xr ms", "xr_ms"),
        ("Gu ms", "gu_ms"),
        ("Corpus ms", "corpus_ms"),
        ("build_snapshot ms", "build_snapshot_ms"),
    ]
    stage_text = format_table(
        ["", *(header for header, _ in columns)],
        [
            [statistic, *(stages["cells"][key][statistic] for _, key in columns)]
            for statistic in ("median", "q1", "q3")
        ],
        title=(
            f"Ingest stages, one serve-mixed warm-up snapshot "
            f"({stages['tweets']} tweets, {stages['distinct_texts']} distinct "
            f"texts, prop30 scale {stages['scale']} seed {stages['seed']}, "
            f"{stages['chunk']} per ingest call; {stages['repeats']} samples), "
            f"{describe_host(stages['host'])}"
        ),
    )
    write_result("bench_streaming", text + "\n\n" + stage_text)
