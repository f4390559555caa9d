"""The ``python -m repro stream`` subcommand."""

import json

import pytest

from repro.data.io import save_corpus_jsonl
from repro.experiments.cli import main
from repro.experiments.stream_cli import build_stream_parser, stream_main


@pytest.fixture(scope="module")
def corpus_file(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "tweets.jsonl"
    save_corpus_jsonl(corpus, path)
    return path


@pytest.fixture(scope="module")
def lexicon_file(lexicon, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "lexicon.json"
    path.write_text(
        json.dumps(
            {
                "positive": dict(lexicon._positive),
                "negative": dict(lexicon._negative),
            }
        )
    )
    return path


class TestParser:
    def test_flags(self):
        args = build_stream_parser().parse_args(
            [
                "tweets.jsonl",
                "--snapshot-size", "200",
                "--n-shards", "4",
                "--checkpoint", "ckpt",
            ]
        )
        assert args.input == "tweets.jsonl"
        assert args.snapshot_size == 200
        assert args.n_shards == 4
        assert args.checkpoint == "ckpt"
        assert args.backend == "thread"  # default

    def test_backend_and_auto_shard_flags(self):
        args = build_stream_parser().parse_args(
            ["tweets.jsonl", "--backend", "process", "--n-shards", "auto"]
        )
        assert args.backend == "process"
        assert args.n_shards == "auto"
        with pytest.raises(SystemExit):
            build_stream_parser().parse_args(
                ["tweets.jsonl", "--backend", "gpu"]
            )
        with pytest.raises(SystemExit):
            build_stream_parser().parse_args(
                ["tweets.jsonl", "--n-shards", "many"]
            )

    def test_socket_backend_flags(self):
        args = build_stream_parser().parse_args(
            [
                "tweets.jsonl",
                "--backend", "socket",
                "--workers", "10.0.0.5:7500, 10.0.0.6:7500",
            ]
        )
        assert args.backend == "socket"
        from repro.experiments.stream_cli import config_from_args

        config = config_from_args(args)
        assert config.sharding.backend == "socket"
        assert config.sharding.workers == ("10.0.0.5:7500", "10.0.0.6:7500")
        # Missing/malformed workers fail before any data is read.
        args = build_stream_parser().parse_args(
            ["tweets.jsonl", "--backend", "socket"]
        )
        with pytest.raises(ValueError, match="worker"):
            config_from_args(args)

    def test_listed_by_main(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stream" in out
        assert "worker" in out


class TestExecution:
    def test_prints_per_snapshot_summaries(
        self, corpus_file, lexicon_file, capsys
    ):
        assert (
            stream_main(
                [
                    str(corpus_file),
                    "--snapshot-size", "300",
                    "--lexicon", str(lexicon_file),
                    "--max-iterations", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "snapshot 0:" in out
        assert "pos" in out and "neg" in out and "neu" in out
        assert "users tracked" in out

    def test_sharded_run_through_main(self, corpus_file, lexicon_file, capsys):
        assert (
            main(
                [
                    "stream",
                    str(corpus_file),
                    "--snapshot-size", "400",
                    "--n-shards", "2",
                    "--lexicon", str(lexicon_file),
                    "--max-iterations", "5",
                ]
            )
            == 0
        )
        assert "snapshot 0:" in capsys.readouterr().out

    def test_process_backend_run_through_main(
        self, corpus_file, lexicon_file, capsys
    ):
        assert (
            main(
                [
                    "stream",
                    str(corpus_file),
                    "--snapshot-size", "400",
                    "--n-shards", "2",
                    "--backend", "process",
                    "--max-workers", "2",
                    "--lexicon", str(lexicon_file),
                    "--max-iterations", "4",
                ]
            )
            == 0
        )
        assert "snapshot 0:" in capsys.readouterr().out

    def test_socket_backend_run_through_main(
        self, corpus_file, lexicon_file, capsys, socket_workers
    ):
        assert (
            main(
                [
                    "stream",
                    str(corpus_file),
                    "--snapshot-size", "400",
                    "--n-shards", "2",
                    "--backend", "socket",
                    "--workers", ",".join(socket_workers),
                    "--lexicon", str(lexicon_file),
                    "--max-iterations", "4",
                ]
            )
            == 0
        )
        assert "snapshot 0:" in capsys.readouterr().out

    def test_checkpoint_saved_and_warm_restarted(
        self, corpus, corpus_file, lexicon_file, tmp_path, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        flags = [
            str(corpus_file),
            "--snapshot-size", "300",
            "--lexicon", str(lexicon_file),
            "--max-iterations", "5",
            "--checkpoint", str(checkpoint),
        ]
        assert stream_main(flags) == 0
        first = capsys.readouterr().out
        assert (checkpoint / "state.json").exists()
        assert "warm restart" not in first
        assert "skipping" not in first

        # Re-running on the same file must NOT double-count: every
        # tweet was already folded in, so nothing new is processed.
        assert stream_main(flags) == 0
        second = capsys.readouterr().out
        assert "warm restart" in second
        assert f"skipping {len(corpus.tweets)} already-ingested" in second
        assert "nothing new to fold in" in second
        assert not [
            line for line in second.splitlines()
            if line.startswith("snapshot ")
        ]

        # A grown file continues the stream: only the new tail is
        # ingested and snapshot indices pick up where the run stopped.
        from repro.data.io import save_corpus_jsonl
        from repro.data.tweet import Tweet

        extra = [
            Tweet(tweet_id=10**9 + i, user_id=corpus.tweets[i].user_id,
                  text=corpus.tweets[i].text, day=125)
            for i in range(40)
        ]
        grown = tmp_path / "grown.jsonl"
        from repro.data.corpus import TweetCorpus

        save_corpus_jsonl(
            TweetCorpus.from_tweets(
                [*corpus.tweets, *extra], users=corpus.users.values()
            ),
            grown,
        )
        assert stream_main([str(grown), *flags[1:]]) == 0
        third = capsys.readouterr().out
        first_count = first.count("snapshot ")
        assert f"snapshot {first_count}: 40 tweets" in third

    def test_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert stream_main([str(empty)]) == 0
        assert "no tweets" in capsys.readouterr().out
