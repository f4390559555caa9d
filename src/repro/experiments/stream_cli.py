"""``python -m repro stream`` — run the serving engine over a JSONL file.

Feeds a JSON-lines tweet corpus (the :mod:`repro.data.io` schema)
through the :class:`~repro.engine.SentimentService` facade in
fixed-size snapshots and prints one sentiment summary per snapshot —
the smallest end-to-end path from "a file of tweets" to "a live sharded
model", and the operational face of the checkpoint format: pass
``--checkpoint`` to save after every snapshot and to warm-restart from
the same directory on the next invocation instead of replaying the
stream.  CLI flags assemble one :class:`~repro.engine.EngineConfig`,
validated before any data is read.

Usage::

    python -m repro stream tweets.jsonl --snapshot-size 500 \
        --n-shards 2 --checkpoint /var/lib/repro/engine
    python -m repro stream tweets.jsonl --n-shards 4 --backend socket \
        --workers 10.0.0.5:7500,10.0.0.6:7500
"""

from __future__ import annotations

import argparse
import json
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.labeling import apply_alignment
from repro.data.io import load_corpus_jsonl
from repro.engine import EngineConfig, SentimentService
from repro.engine.persistence import STATE_FILE
from repro.text.lexicon import SentimentLexicon


def _shard_count(value: str) -> int | str:
    """``--n-shards`` values: a positive integer or the string 'auto'."""
    if value == "auto":
        return "auto"
    return int(value)


def build_stream_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stream",
        description=(
            "Feed a JSONL tweet file through the streaming sentiment "
            "engine and print per-snapshot sentiment summaries."
        ),
    )
    parser.add_argument(
        "input", help="JSON-lines corpus file (schema of repro.data.io)"
    )
    parser.add_argument(
        "--snapshot-size",
        type=int,
        default=500,
        help="tweets folded into the model per snapshot (default 500)",
    )
    parser.add_argument(
        "--n-shards",
        type=_shard_count,
        default=1,
        help=(
            "user-partition shards for the solve: a count, or 'auto' to "
            "re-pick per snapshot from the user and worker counts "
            "(default 1 = unsharded)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "socket"],
        default="thread",
        help=(
            "execution backend for the sharded solve (default thread; "
            "'socket' pins shard blocks in `python -m repro worker` "
            "servers named by --workers — classify always stays on "
            "threads)"
        ),
    )
    parser.add_argument(
        "--workers",
        default=None,
        help=(
            "comma-separated host:port worker addresses for "
            "--backend socket (trusted networks only — the wire "
            "protocol is unauthenticated pickle)"
        ),
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="workers for sharded solve/classify (default: auto)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "checkpoint directory: warm-restart from it when it exists, "
            "save after every snapshot"
        ),
    )
    parser.add_argument(
        "--max-profile-age",
        type=int,
        default=None,
        help=(
            "checkpoint compaction: age out authors neither posting nor "
            "retweeted within this many recent snapshots before each "
            "save (default: keep everything)"
        ),
    )
    parser.add_argument(
        "--lexicon",
        default=None,
        help=(
            "JSON file with 'positive'/'negative' word lists (or "
            "word->strength maps) enabling the Sf0 prior and pos/neg/neu "
            "column alignment"
        ),
    )
    parser.add_argument("--num-classes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=30,
        help="solver sweeps per snapshot (default 30)",
    )
    return parser


def _load_lexicon(path: str | None) -> SentimentLexicon | None:
    if path is None:
        return None
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return SentimentLexicon(
        positive=payload.get("positive", ()),
        negative=payload.get("negative", ()),
    )


def config_from_args(args: argparse.Namespace) -> EngineConfig:
    """One validated EngineConfig from the CLI surface.

    Raises the config layer's eager errors (unknown backend, bad
    counts) before any data is read.
    """
    workers = (
        tuple(
            address.strip()
            for address in args.workers.split(",")
            if address.strip()
        )
        if args.workers
        else None
    )
    return EngineConfig(
        num_classes=args.num_classes,
        seed=args.seed,
        max_profile_age=args.max_profile_age,
        solver={"max_iterations": args.max_iterations},
        sharding={
            "n_shards": args.n_shards,
            "backend": args.backend,
            "max_workers": args.max_workers,
            "workers": workers,
        },
    )


def _snapshot_summary(service: SentimentService) -> np.ndarray:
    """Aligned per-class tweet counts for the latest snapshot."""
    step = service.engine.last_step
    alignment = service.engine.alignment
    assert step is not None and alignment is not None
    labels = apply_alignment(step.tweet_sentiments(), alignment)
    return np.bincount(labels, minlength=alignment.size)


def run_stream(args: argparse.Namespace) -> int:
    corpus = load_corpus_jsonl(args.input)
    checkpoint = Path(args.checkpoint) if args.checkpoint else None

    if checkpoint is not None and (checkpoint / STATE_FILE).exists():
        service = SentimentService.load(checkpoint)
        print(
            f"warm restart from {checkpoint} "
            f"({service.engine.snapshots_processed} snapshots already folded "
            "in; engine flags come from the checkpoint)"
        )
    else:
        service = SentimentService(
            config=config_from_args(args), lexicon=_load_lexicon(args.lexicon)
        )

    names = service.classes
    if args.snapshot_size < 1:
        raise SystemExit("--snapshot-size must be >= 1")
    tweets = corpus.tweets
    if not tweets:
        print("input contains no tweets")
        return 0

    # A warm-restarted engine has already folded part (or all) of this
    # file in; re-ingesting those tweets would double-count them in the
    # temporal state, so they are skipped by id.
    builder = service.engine.builder
    already = [t for t in tweets if builder.has_ingested(t.tweet_id)]
    if already:
        print(f"skipping {len(already)} already-ingested tweets")
        tweets = [t for t in tweets if not builder.has_ingested(t.tweet_id)]
    if not tweets:
        print("nothing new to fold in; model unchanged")

    try:
        for offset in range(0, len(tweets), args.snapshot_size):
            batch = tweets[offset : offset + args.snapshot_size]
            service.ingest(batch, users=corpus.profiles_for(batch))
            started = time.perf_counter()
            report = service.snapshot()
            elapsed = time.perf_counter() - started
            counts = _snapshot_summary(service)
            summary = " ".join(
                f"{name} {count}" for name, count in zip(names, counts)
            )
            print(
                f"snapshot {report.index}: {report.num_tweets} tweets, "
                f"{report.num_users} users, {report.num_features} features, "
                f"{report.iterations} iters, {elapsed:.2f}s | {summary}"
            )
            if checkpoint is not None:
                service.save(checkpoint)

        user_labels = service.user_sentiments()
        user_counts = np.bincount(
            np.array([entry.label for entry in user_labels], dtype=np.int64),
            minlength=len(names),
        )
        user_summary = " ".join(
            f"{name} {count}" for name, count in zip(names, user_counts)
        )
        print(
            f"done: {service.engine.snapshots_processed} snapshots, "
            f"{len(user_labels)} users tracked | users: {user_summary}"
        )
        if checkpoint is not None:
            print(f"checkpoint: {checkpoint}")
        return 0
    finally:
        service.close()


def stream_main(argv: Sequence[str] | None = None) -> int:
    return run_stream(build_stream_parser().parse_args(argv))
