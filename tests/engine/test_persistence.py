"""Engine save/load: round trip, warm-restart continuation, guards."""

import json

import numpy as np
import pytest

from repro.data.stream import iter_tweet_batches
from repro.data.tweet import Tweet
from repro.engine import EngineConfig, SolverConfig, StreamingSentimentEngine

INTERVAL_DAYS = 21


def config(max_iterations=10, **overrides):
    return EngineConfig(
        seed=7, solver={"max_iterations": max_iterations}, **overrides
    )


@pytest.fixture(scope="module")
def batches(corpus):
    batches = list(iter_tweet_batches(corpus, interval_days=INTERVAL_DAYS))
    assert len(batches) >= 4
    return batches


def feed(engine, corpus, batches):
    for _, _, tweets in batches:
        engine.ingest(tweets, users=corpus.profiles_for(tweets))
        engine.advance_snapshot()
    return engine


@pytest.fixture()
def fed_engine(corpus, lexicon, batches):
    return feed(
        StreamingSentimentEngine(config(), lexicon=lexicon),
        corpus,
        batches[:2],
    )


def _downgrade_to_v1(path) -> None:
    """Rewrite a v2 checkpoint into the version-1 loose-fields layout.

    Mirrors what PR-2-era engines actually wrote, so the v1 loader is
    exercised against the real old shape (engine fields flat, solver
    hyperparameters duplicated under ``solver.params``).
    """
    state_path = path / "state.json"
    state = json.loads(state_path.read_text())
    assert state["version"] == 2
    c = state["engine"]["config"]
    sharded = not (
        c["sharding"]["n_shards"] == 1 and c["sharding"]["backend"] == "thread"
    )
    params = {"num_classes": c["num_classes"], **c["solver"]}
    if sharded:
        params.update(
            n_shards=c["sharding"]["n_shards"],
            partitioner=c["sharding"]["partitioner"],
            max_workers=c["sharding"]["max_workers"],
            backend=c["sharding"]["backend"],
            consensus_iterations=c["sharding"]["consensus_iterations"],
        )
    state["version"] = 1
    state["engine"] = {
        "num_classes": c["num_classes"],
        "classify_iterations": c["serving"]["classify_iterations"],
        "classify_batch_size": c["serving"]["classify_batch_size"],
        "cache_size": c["serving"]["cache_size"],
        "cross_snapshot_edges": c["cross_snapshot_edges"],
        "classify_seed": state["engine"]["classify_seed"],
        "n_shards": c["sharding"]["n_shards"],
        "max_workers": c["sharding"]["max_workers"],
        "partitioner": c["sharding"]["partitioner"],
        "backend": c["sharding"]["backend"],
    }
    state["solver"] = {
        "kind": "sharded" if sharded else "online",
        "params": params,
        "steps": state["solver"]["steps"],
        "seen_users": state["solver"]["seen_users"],
        "rng": state["solver"]["rng"],
    }
    state_path.write_text(json.dumps(state))


class TestRoundTrip:
    def test_save_load_serves_identically(
        self, fed_engine, corpus, tmp_path
    ):
        texts = [t.text for t in corpus.tweets[:48]]
        expected = fed_engine.classify_memberships(texts)
        fed_engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        np.testing.assert_array_equal(
            loaded.classify_memberships(texts), expected
        )
        np.testing.assert_array_equal(
            loaded.classify(texts), fed_engine.classify(texts)
        )
        assert loaded.user_sentiments() == fed_engine.user_sentiments()
        assert loaded.snapshots_processed == fed_engine.snapshots_processed
        assert loaded.num_features == fed_engine.num_features
        np.testing.assert_array_equal(loaded.alignment, fed_engine.alignment)

    def test_config_round_trips_through_checkpoint(
        self, fed_engine, tmp_path
    ):
        fed_engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.config == fed_engine.effective_config()
        assert loaded.config.solver.max_iterations == 10

    def test_continuation_is_bit_identical(
        self, fed_engine, corpus, batches, tmp_path
    ):
        """Warm restart == never having stopped: factor trajectories of
        the original and the reloaded engine stay bitwise equal across
        further snapshots (vocabulary, priors and RNG state all resume)."""
        fed_engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        feed(fed_engine, corpus, batches[2:])
        feed(loaded, corpus, batches[2:])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(fed_engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        assert fed_engine.user_sentiments() == loaded.user_sentiments()

    def test_sharded_solver_round_trips(self, corpus, lexicon, batches, tmp_path):
        engine = feed(
            StreamingSentimentEngine(
                config(8, sharding={"n_shards": 2, "partitioner": "greedy"}),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.n_shards == 2
        assert loaded.solver.n_shards == 2
        assert loaded.solver.partitioner == "greedy"
        texts = [t.text for t in corpus.tweets[:16]]
        np.testing.assert_array_equal(
            loaded.classify(texts), engine.classify(texts)
        )

    def test_float32_checkpoint_round_trips(
        self, corpus, lexicon, batches, tmp_path
    ):
        """A float32 engine saves and warm-restarts as float32.

        The dtype travels in ``SolverConfig``, the npz factor arrays
        keep their precision, and continuation stays bitwise equal to
        never having stopped — same contract as float64, one dtype down.
        """
        engine = feed(
            StreamingSentimentEngine(
                EngineConfig(
                    seed=7,
                    solver={"max_iterations": 8, "dtype": "float32"},
                ),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        assert engine.factors.su.dtype == np.float32
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.config.solver.dtype == "float32"
        feed(engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            original = getattr(engine.factors, name)
            restored = getattr(loaded.factors, name)
            assert restored.dtype == np.float32
            np.testing.assert_array_equal(restored, original, err_msg=name)

    def test_no_lexicon_round_trips(self, corpus, batches, tmp_path):
        engine = feed(
            StreamingSentimentEngine(config(6)),
            corpus,
            batches[:1],
        )
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.builder.lexicon is None
        texts = [t.text for t in corpus.tweets[:8]]
        np.testing.assert_array_equal(
            loaded.classify(texts), engine.classify(texts)
        )

    def test_retweets_of_pre_checkpoint_tweets_resolve(
        self, fed_engine, corpus, tmp_path
    ):
        """The author map survives, so a post-restart retweet of a
        pre-checkpoint tweet still contributes its author to the
        snapshot's user universe."""
        source = corpus.tweets[0]
        fed_engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        retweet = Tweet(
            tweet_id=10**9 + 1,
            user_id=corpus.tweets[-1].user_id,
            text=source.text,
            day=120,
            retweet_of=source.tweet_id,
        )
        loaded.ingest([retweet])
        loaded.advance_snapshot()
        users = loaded.last_graph.corpus.user_ids
        assert source.user_id in users


class TestLegacyFormat:
    def test_v1_checkpoint_loads_and_continues_bitwise(
        self, fed_engine, corpus, batches, tmp_path
    ):
        """Old field-based checkpoints keep loading: a v1 state.json maps
        onto an EngineConfig on the way in, and the restored engine
        continues the stream bit-for-bit like a v2 restore."""
        fed_engine.save(tmp_path / "ckpt")
        _downgrade_to_v1(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.config.solver.max_iterations == 10
        texts = [t.text for t in corpus.tweets[:24]]
        np.testing.assert_array_equal(
            loaded.classify(texts), fed_engine.classify(texts)
        )
        feed(fed_engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(fed_engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )

    @staticmethod
    def _record_update_style(path, style: str, version: int) -> None:
        """Write the removed ``update_style`` option into a checkpoint,
        the way engines saved before its removal recorded it."""
        if version == 1:
            _downgrade_to_v1(path)
        state_path = path / "state.json"
        state = json.loads(state_path.read_text())
        if version == 1:
            state["solver"]["params"]["update_style"] = style
        else:
            state["engine"]["config"]["solver"]["update_style"] = style
        state_path.write_text(json.dumps(state))

    @pytest.mark.parametrize("version", [1, 2])
    def test_recorded_projector_style_loads_and_continues_bitwise(
        self, fed_engine, corpus, batches, tmp_path, version
    ):
        fed_engine.save(tmp_path / "ckpt")
        self._record_update_style(tmp_path / "ckpt", "projector", version)
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        feed(fed_engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(fed_engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )

    @pytest.mark.parametrize("version", [1, 2])
    def test_recorded_lagrangian_style_is_refused(
        self, fed_engine, tmp_path, version
    ):
        fed_engine.save(tmp_path / "ckpt")
        self._record_update_style(tmp_path / "ckpt", "lagrangian", version)
        with pytest.raises(ValueError, match="update_style.*removed"):
            StreamingSentimentEngine.load(tmp_path / "ckpt")

    def test_recorded_threads_spmm_loads_as_scipy_and_continues_bitwise(
        self, fed_engine, corpus, batches, tmp_path
    ):
        """The removed ``"threads"`` spmm engine computed scipy's bits:
        a checkpoint recording it loads as ``"scipy"``, continues
        bit-for-bit, and re-saves without the removed name."""
        fed_engine.save(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.json"
        state = json.loads(state_path.read_text())
        state["engine"]["config"]["solver"]["spmm"] = "threads"
        state_path.write_text(json.dumps(state))
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.config.solver.spmm == "scipy"
        feed(fed_engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(fed_engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        loaded.save(tmp_path / "again")
        resaved = json.loads((tmp_path / "again" / "state.json").read_text())
        assert resaved["engine"]["config"]["solver"]["spmm"] == "scipy"

    def test_threads_spmm_engine_config_is_refused(self, lexicon):
        with pytest.raises(ValueError, match="'threads' was removed"):
            StreamingSentimentEngine(
                EngineConfig(solver=SolverConfig(spmm="threads")),
                lexicon=lexicon,
            )

    def test_v1_sharded_checkpoint_restores_sharding(
        self, corpus, lexicon, batches, tmp_path
    ):
        engine = feed(
            StreamingSentimentEngine(
                config(6, sharding={"n_shards": 2}), lexicon=lexicon
            ),
            corpus,
            batches[:1],
        )
        engine.save(tmp_path / "ckpt")
        _downgrade_to_v1(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.n_shards == 2
        assert loaded.config.sharding.n_shards == 2
        # v1 checkpoints predate the cut-edge halo: they were solved
        # block-diagonal, and restoring must preserve that.
        assert loaded.config.sharding.halo == "off"


class TestCompaction:
    def test_max_profile_age_bounds_checkpoint_state(
        self, corpus, lexicon, batches, tmp_path
    ):
        """Age-out: authors inactive for more than max_profile_age
        snapshots leave the profile map and the tweet→author map at
        save time; active authors survive."""
        engine = feed(
            StreamingSentimentEngine(
                config(6, max_profile_age=1), lexicon=lexicon
            ),
            corpus,
            batches,
        )
        profiles_before = len(engine.builder._profiles)
        authors_before = len(engine.builder._author_of)
        engine.save(tmp_path / "ckpt")
        profiles_after = len(engine.builder._profiles)
        authors_after = len(engine.builder._author_of)
        assert profiles_after < profiles_before
        assert authors_after < authors_before
        # Everyone still tracked was active in the latest snapshot (or
        # is a ground-truth profile with no activity record to age on).
        latest = engine.snapshots_processed - 1
        for uid in engine.builder._profiles:
            seen = engine.builder.last_seen(uid)
            assert seen is None or seen >= latest
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert len(loaded.builder._profiles) == profiles_after

    def test_compaction_forgets_aged_out_retweet_sources(
        self, corpus, lexicon, batches, tmp_path
    ):
        """A retweet of an aged-out tweet is handled like one of a
        never-ingested source: no author resolution, no crash."""
        engine = feed(
            StreamingSentimentEngine(
                config(6, max_profile_age=1), lexicon=lexicon
            ),
            corpus,
            batches[:3],
        )
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        aged = [
            t
            for t in batches[0][2]
            if not loaded.builder.has_ingested(t.tweet_id)
        ]
        if not aged:
            pytest.skip("every first-batch author still active at the end")
        early = aged[0]
        retweet = Tweet(
            tweet_id=10**9 + 2,
            user_id=corpus.tweets[-1].user_id,
            text=early.text,
            day=200,
            retweet_of=early.tweet_id,
        )
        loaded.ingest([retweet])
        loaded.advance_snapshot()
        assert early.user_id not in loaded.last_graph.corpus.user_ids

    def test_compaction_without_age_is_off(self, fed_engine, tmp_path):
        profiles_before = len(fed_engine.builder._profiles)
        fed_engine.save(tmp_path / "ckpt")
        assert len(fed_engine.builder._profiles) == profiles_before

    def test_compact_rejects_pending_and_bad_age(self, fed_engine, corpus):
        with pytest.raises(ValueError, match="max_age"):
            fed_engine.builder.compact(0)
        fed_engine.ingest([corpus.tweets[0]])
        fed_engine.flush()
        try:
            with pytest.raises(ValueError, match="pending"):
                fed_engine.builder.compact(1)
        finally:
            fed_engine.advance_snapshot()


class TestGuards:
    def test_save_before_first_snapshot_rejected(self, lexicon, tmp_path):
        engine = StreamingSentimentEngine(lexicon=lexicon)
        with pytest.raises(RuntimeError, match="no snapshot"):
            engine.save(tmp_path / "ckpt")

    def test_save_with_pending_tweets_rejected(
        self, fed_engine, corpus, tmp_path
    ):
        fed_engine.ingest([corpus.tweets[0]])
        try:
            with pytest.raises(ValueError, match="pending"):
                fed_engine.save(tmp_path / "ckpt")
        finally:
            fed_engine.advance_snapshot()  # leave the engine clean

    def test_version_mismatch_rejected(self, fed_engine, tmp_path):
        path = fed_engine.save(tmp_path / "ckpt")
        state_file = path / "state.json"
        state = json.loads(state_file.read_text())
        state["version"] = 999
        state_file.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="version"):
            StreamingSentimentEngine.load(path)

    def test_custom_solver_type_rejected(self, corpus, lexicon, batches, tmp_path):
        from repro.core.online import OnlineTriClustering

        class OddSolver(OnlineTriClustering):
            pass

        engine = feed(
            StreamingSentimentEngine(
                lexicon=lexicon, solver=OddSolver(max_iterations=4)
            ),
            corpus,
            batches[:1],
        )
        with pytest.raises(ValueError, match="solver"):
            engine.save(tmp_path / "ckpt")


class TestSocketBackendCheckpoints:
    def test_socket_backend_round_trips_and_continues_bitwise(
        self, corpus, lexicon, batches, tmp_path, socket_workers
    ):
        """Save mid-stream under backend="socket", reload (the restored
        engine reconnects to the workers named in the checkpointed
        config), continue — factors bit-identical to an uninterrupted
        socket run."""
        sharding = {
            "n_shards": 2,
            "backend": "socket",
            "workers": socket_workers,
        }
        uninterrupted = feed(
            StreamingSentimentEngine(
                config(8, sharding=dict(sharding)), lexicon=lexicon
            ),
            corpus,
            batches[:3],
        )
        engine = feed(
            StreamingSentimentEngine(
                config(8, sharding=dict(sharding)), lexicon=lexicon
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        state = json.loads((tmp_path / "ckpt" / "state.json").read_text())
        saved_sharding = state["engine"]["config"]["sharding"]
        assert saved_sharding["backend"] == "socket"
        assert saved_sharding["workers"] == list(socket_workers)

        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.backend == "socket"
        assert loaded.config.sharding.workers == tuple(socket_workers)
        assert loaded._solver_pool is not None
        assert loaded._solver_pool.backend == "socket"
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(uninterrupted.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        assert uninterrupted.user_sentiments() == loaded.user_sentiments()
        uninterrupted.close()
        engine.close()
        loaded.close()

    def test_socket_checkpoint_loads_on_any_backend(
        self, corpus, lexicon, batches, tmp_path, socket_workers
    ):
        """Backends are execution detail: rewriting the checkpointed
        backend to "thread" (ops move a stream off the worker fleet)
        drops the workers list and changes nothing in the numbers."""
        engine = feed(
            StreamingSentimentEngine(
                config(
                    6,
                    sharding={
                        "n_shards": 2,
                        "backend": "socket",
                        "workers": socket_workers,
                    },
                ),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.json"
        state = json.loads(state_path.read_text())
        state["engine"]["config"]["sharding"]["backend"] = "thread"
        state["engine"]["config"]["sharding"]["workers"] = None
        state_path.write_text(json.dumps(state))
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.backend == "thread"
        feed(engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        engine.close()
        loaded.close()


class TestProcessBackendCheckpoints:
    def test_process_backend_round_trips_and_continues_bitwise(
        self, corpus, lexicon, batches, tmp_path
    ):
        """Stress: checkpoint under backend="process" (worker-resident
        shard state), reload, and continue — the restored engine must
        rebuild its process pool from the checkpoint and replay the
        stream bit-for-bit, including across a second save/load cycle."""
        engine = feed(
            StreamingSentimentEngine(
                config(8, sharding={"n_shards": 2, "backend": "process"}),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.backend == "process"
        assert loaded.solver.backend == "process"
        assert loaded._solver_pool is not None
        assert loaded._solver_pool.backend == "process"

        # Serve identically right after the reload...
        texts = [t.text for t in corpus.tweets[:32]]
        np.testing.assert_array_equal(
            loaded.classify_memberships(texts),
            engine.classify_memberships(texts),
        )
        # ...then continue the stream on both and stay bitwise equal.
        feed(engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        assert engine.user_sentiments() == loaded.user_sentiments()

        # Second cycle: a checkpoint written by a restored engine is as
        # good as one written by the original.
        loaded.save(tmp_path / "ckpt2")
        second = StreamingSentimentEngine.load(tmp_path / "ckpt2")
        feed(second, corpus, batches[3:4])
        feed(engine, corpus, batches[3:4])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(engine.factors, name),
                getattr(second.factors, name),
                err_msg=name,
            )
        engine.close()
        loaded.close()
        second.close()

    def test_checkpoint_from_process_engine_loads_on_thread_solver(
        self, corpus, lexicon, batches, tmp_path
    ):
        """Backends are execution detail: editing the checkpoint's solver
        backend (ops move a stream between hosts) changes nothing in the
        served numbers."""
        engine = feed(
            StreamingSentimentEngine(
                config(6, sharding={"n_shards": 2, "backend": "process"}),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.json"
        state = json.loads(state_path.read_text())
        assert (
            state["engine"]["config"]["sharding"]["backend"] == "process"
        )
        state["engine"]["config"]["sharding"]["backend"] = "thread"
        state_path.write_text(json.dumps(state))
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.backend == "thread"
        feed(engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        engine.close()
        loaded.close()
