"""StreamingSentimentEngine with user-partition sharding."""

import numpy as np
import pytest

from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedOnlineTriClustering
from repro.data.stream import iter_tweet_batches
from repro.engine import EngineConfig, StreamingSentimentEngine
from repro.eval.metrics import clustering_accuracy

INTERVAL_DAYS = 21


def config(max_iterations=10, **sharding):
    return EngineConfig(
        seed=7, solver={"max_iterations": max_iterations}, sharding=sharding
    )


@pytest.fixture(scope="module")
def batches(corpus):
    return list(iter_tweet_batches(corpus, interval_days=INTERVAL_DAYS))


def feed(engine, corpus, batches):
    for _, _, tweets in batches:
        engine.ingest(tweets, users=corpus.profiles_for(tweets))
        engine.advance_snapshot()
    return engine


class TestShardedEngine:
    def test_default_engine_uses_plain_solver(self, lexicon):
        engine = StreamingSentimentEngine(lexicon=lexicon)
        assert type(engine.solver) is OnlineTriClustering
        assert engine.n_shards == 1

    def test_n_shards_builds_sharded_solver(self, lexicon):
        engine = StreamingSentimentEngine(
            config(n_shards=3, max_workers=2),
            lexicon=lexicon,
        )
        assert isinstance(engine.solver, ShardedOnlineTriClustering)
        assert engine.solver.n_shards == 3
        assert engine.n_shards == 3

    def test_solver_instance_carries_sharding_config(self, lexicon):
        solver = ShardedOnlineTriClustering(n_shards=2, max_iterations=5)
        engine = StreamingSentimentEngine(lexicon=lexicon, solver=solver)
        assert engine.n_shards == 2

    def test_engine_pool_shared_with_sharded_solver(self, lexicon):
        engine = StreamingSentimentEngine(config(n_shards=2), lexicon=lexicon)
        assert engine.solver.pool is engine._pool
        # A user solver that pinned its own worker count keeps it.
        pinned = ShardedOnlineTriClustering(n_shards=2, max_workers=2)
        engine = StreamingSentimentEngine(lexicon=lexicon, solver=pinned)
        assert pinned.pool is None
        # One that didn't joins the engine pool.
        flexible = ShardedOnlineTriClustering(n_shards=2)
        engine = StreamingSentimentEngine(lexicon=lexicon, solver=flexible)
        assert flexible.pool is engine._pool

    def test_close_releases_pool_and_is_terminal(
        self, corpus, lexicon, batches
    ):
        with StreamingSentimentEngine(
            config(6, n_shards=2, max_workers=2), lexicon=lexicon
        ) as engine:
            feed(engine, corpus, batches[:1])
            assert engine._pool.active  # threads materialized
        assert not engine._pool.active  # released on exit
        engine.close()  # idempotent
        # Closing is terminal: the pipeline and pools refuse to
        # resurrect workers behind a caller that believed the
        # resources were released.
        with pytest.raises(RuntimeError, match="closed"):
            feed(engine, corpus, batches[1:2])

    def test_solver_and_sharding_config_conflict(self, lexicon):
        # Conflict checks look at each sharding field against its
        # default, so build configs with *only* that field set.
        with pytest.raises(ValueError, match="n_shards"):
            StreamingSentimentEngine(
                EngineConfig(sharding={"n_shards": 2}),
                lexicon=lexicon,
                solver=OnlineTriClustering(),
            )
        with pytest.raises(ValueError, match="n_shards"):
            StreamingSentimentEngine(config(n_shards=0))
        with pytest.raises(ValueError, match="backend"):
            StreamingSentimentEngine(config(backend="cluster"))
        with pytest.raises(ValueError, match="backend"):
            StreamingSentimentEngine(
                EngineConfig(sharding={"backend": "serial"}),
                lexicon=lexicon,
                solver=OnlineTriClustering(),
            )

    def test_sharded_end_to_end(self, corpus, lexicon, batches, generator):
        engine = feed(
            StreamingSentimentEngine(config(12, n_shards=3), lexicon=lexicon),
            corpus,
            batches,
        )
        assert engine.snapshots_processed == len(batches)
        # Per-shard user sentiments merge to cover every user seen.
        labels = engine.user_sentiments()
        assert set(labels) == engine.solver.seen_users
        assert all(0 <= label <= 2 for label in labels.values())
        # Serving quality holds up against held-out labeled tweets.
        from repro.data.synthetic import BallotDatasetGenerator, prop30_config

        fresh = BallotDatasetGenerator(
            prop30_config(scale=0.02), seed=99
        ).generate()
        labeled = [t for t in fresh.tweets if t.sentiment is not None]
        predictions = engine.classify([t.text for t in labeled])
        truth = np.array([int(t.sentiment) for t in labeled])
        scored = predictions >= 0
        assert scored.mean() > 0.7
        assert clustering_accuracy(predictions[scored], truth[scored]) > 0.6

    def test_sharded_runs_deterministic(self, corpus, lexicon, batches):
        texts = [t.text for t in corpus.tweets[:32]]
        runs = [
            feed(
                StreamingSentimentEngine(config(n_shards=2), lexicon=lexicon),
                corpus,
                batches[:3],
            )
            for _ in range(2)
        ]
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(runs[0].factors, name), getattr(runs[1].factors, name)
            )
        np.testing.assert_array_equal(
            runs[0].classify(texts), runs[1].classify(texts)
        )

    def test_parallel_classify_matches_serial(self, corpus, lexicon, batches):
        texts = [t.text for t in corpus.tweets[:64]]
        serial = feed(
            StreamingSentimentEngine(
                EngineConfig(
                    seed=7,
                    solver={"max_iterations": 10},
                    serving={"classify_batch_size": 8},
                    sharding={"max_workers": 1},
                ),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        parallel = feed(
            StreamingSentimentEngine(
                EngineConfig(
                    seed=7,
                    solver={"max_iterations": 10},
                    serving={"classify_batch_size": 8},
                    sharding={"max_workers": 4},
                ),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        np.testing.assert_array_equal(
            serial.classify_memberships(texts),
            parallel.classify_memberships(texts),
        )

    def test_parallel_classify_after_vocab_growth(self, corpus, lexicon, batches):
        """The serial idf refresh before the fan-out keeps grown-vocab
        classify race-free and prefix-aligned."""
        from repro.data.tweet import Tweet

        engine = feed(
            StreamingSentimentEngine(
                EngineConfig(
                    seed=7,
                    solver={"max_iterations": 8},
                    serving={"classify_batch_size": 4},
                    sharding={"max_workers": 4},
                ),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.ingest(
            [Tweet(tweet_id=10**9, user_id=1, text="novelword appears", day=77)]
        )
        engine.flush()
        texts = [t.text for t in corpus.tweets[:16]] + ["novelword appears"]
        memberships = engine.classify_memberships(texts)
        assert memberships.shape == (17, 3)
        assert np.all(np.isfinite(memberships))


class TestSocketBackendEngine:
    """backend="socket": remote-worker shard solve behind the same API."""

    def test_socket_engine_builds_dedicated_solver_pool(
        self, lexicon, socket_workers
    ):
        with StreamingSentimentEngine(
            config(n_shards=2, backend="socket", workers=socket_workers),
            lexicon=lexicon,
        ) as engine:
            assert isinstance(engine.solver, ShardedOnlineTriClustering)
            assert engine.backend == "socket"
            assert engine.solver.workers == tuple(socket_workers)
            # Classify stays on the thread pool; the solve gets its own
            # socket pool whose connections persist across snapshots.
            assert engine._solver_pool is not None
            assert engine._solver_pool.backend == "socket"
            assert engine._solver_pool.active  # connected eagerly
            assert engine.solver.pool is engine._solver_pool
            assert engine._pool.backend == "thread"

    def test_socket_backend_with_one_shard_routes_sharded(
        self, lexicon, socket_workers
    ):
        with StreamingSentimentEngine(
            config(backend="socket", workers=socket_workers), lexicon=lexicon
        ) as engine:
            assert isinstance(engine.solver, ShardedOnlineTriClustering)
            assert engine.solver.n_shards == 1

    def test_one_shard_socket_engine_solves_on_its_socket_pool(
        self, corpus, lexicon, batches, socket_workers
    ):
        """One shard is inline only on an in-process backend: a
        one-shard socket engine still partitions (trivially) and
        solves on its dedicated socket pool."""
        with StreamingSentimentEngine(
            config(4, backend="socket", workers=socket_workers),
            lexicon=lexicon,
        ) as engine:
            assert engine._solver_pool is not None
            assert engine._solver_pool.backend == "socket"
            assert engine.solver.pool is engine._solver_pool
            feed(engine, corpus, batches[:1])
            plan = engine.solver.last_plan
            assert plan is not None and plan.n_shards == 1
            assert engine._solver_pool.epoch >= 1
            assert engine.reports[-1].pool_telemetry["rounds"] > 0

    def test_close_disconnects_workers(
        self, corpus, lexicon, batches, socket_workers
    ):
        engine = StreamingSentimentEngine(
            config(5, n_shards=2, backend="socket", workers=socket_workers),
            lexicon=lexicon,
        )
        feed(engine, corpus, batches[:1])
        backend = engine._solver_pool._impl
        conns = list(backend._conns)
        assert len(conns) == 2
        engine.close()
        assert engine._solver_pool.closed
        assert all(conn.fileno() == -1 for conn in conns)

    def test_unreachable_worker_fails_at_construction(self, lexicon):
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        from repro.utils.transport import WorkerConnectError

        with pytest.raises(WorkerConnectError):
            StreamingSentimentEngine(
                config(n_shards=2, backend="socket", workers=[dead]),
                lexicon=lexicon,
            )

    def test_socket_engine_matches_thread_engine_bitwise(
        self, corpus, lexicon, batches, socket_workers
    ):
        texts = [t.text for t in corpus.tweets[:32]]
        with StreamingSentimentEngine(
            config(8, n_shards=2), lexicon=lexicon
        ) as thread_engine, StreamingSentimentEngine(
            config(8, n_shards=2, backend="socket", workers=socket_workers),
            lexicon=lexicon,
        ) as socket_engine:
            feed(thread_engine, corpus, batches[:3])
            feed(socket_engine, corpus, batches[:3])
            for name in ("sf", "sp", "su", "hp", "hu"):
                np.testing.assert_array_equal(
                    getattr(thread_engine.factors, name),
                    getattr(socket_engine.factors, name),
                    err_msg=name,
                )
            np.testing.assert_array_equal(
                thread_engine.classify(texts), socket_engine.classify(texts)
            )
            assert (
                thread_engine.user_sentiments()
                == socket_engine.user_sentiments()
            )
            # Worker connections persisted across snapshots (one pool,
            # re-scattered under a fresh epoch per snapshot).
            assert socket_engine._solver_pool.epoch >= 3


class TestAutoShardEngine:
    def test_auto_builds_sharded_solver_and_resolves_per_snapshot(
        self, corpus, lexicon, batches
    ):
        from repro.core.sharded import resolve_shard_count

        with StreamingSentimentEngine(
            config(5, n_shards="auto", max_workers=2), lexicon=lexicon
        ) as engine:
            assert isinstance(engine.solver, ShardedOnlineTriClustering)
            assert engine.n_shards == "auto"
            feed(engine, corpus, batches[:2])
            plan = engine.solver.last_plan
            assert plan is not None
            expected = resolve_shard_count(
                "auto", engine.last_graph.num_users, 2
            )
            assert plan.n_shards == expected

    def test_auto_rejected_with_bad_string(self, lexicon):
        with pytest.raises(ValueError, match="n_shards"):
            StreamingSentimentEngine(config(n_shards="many"), lexicon=lexicon)
