"""Engine save/load: round trip, warm-restart continuation, guards."""

import json
import threading

import numpy as np
import pytest

from repro.data.stream import iter_tweet_batches
from repro.data.tweet import Tweet
from repro.engine import EngineConfig, SolverConfig, StreamingSentimentEngine
from repro.text.tokenizer import TweetTokenizer
from repro.text.vectorizer import CountVectorizer, TfidfVectorizer

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
                config(8, sharding={"n_shards": 2}),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.n_shards == 2
        assert loaded.solver.n_shards == 2
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


#: One non-default value per TweetTokenizer setting.
NON_DEFAULT_TOKENIZERS = {
    "lowercase": {"lowercase": False},
    "strip_urls": {"strip_urls": False},
    "keep_mentions": {"keep_mentions": True},
    "keep_hashtags": {"keep_hashtags": False},
    "mark_negation": {"mark_negation": False},
    "squash_elongation": {"squash_elongation": False},
    "min_token_length": {"min_token_length": 3},
    "extra_emoticons": {"extra_emoticons": {"\\o/": "emo_cheer"}},
}

#: Text that every setting above tokenizes differently.
TOKENIZER_PROBE = r"Not GOOD at all \o/ sooooo #Prop37 @bob ok http://t.co/x"


class TestTokenizerSettings:
    """The tokenizer's settings survive a checkpoint."""

    @pytest.mark.parametrize("vectorizer_cls", [TfidfVectorizer, CountVectorizer])
    @pytest.mark.parametrize("setting", sorted(NON_DEFAULT_TOKENIZERS))
    def test_continuation_keeps_tokenizer(
        self, corpus, lexicon, batches, tmp_path, setting, vectorizer_cls
    ):
        """Save → load → ingest/advance/classify equals an engine that
        was never saved, bitwise, for each non-default setting."""
        tokenizer = TweetTokenizer(**NON_DEFAULT_TOKENIZERS[setting])
        assert tokenizer(TOKENIZER_PROBE) != TweetTokenizer()(TOKENIZER_PROBE)
        original = feed(
            StreamingSentimentEngine(
                config(),
                lexicon=lexicon,
                vectorizer=vectorizer_cls(analyzer=tokenizer),
            ),
            corpus,
            batches[:2],
        )
        original.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert type(loaded.vectorizer) is vectorizer_cls
        assert loaded.vectorizer.analyzer == tokenizer
        feed(original, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(original.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )
        texts = [TOKENIZER_PROBE, *(t.text for t in corpus.tweets[:24])]
        np.testing.assert_array_equal(
            loaded.classify_memberships(texts),
            original.classify_memberships(texts),
        )

    def test_checkpoint_without_tokenizer_loads_the_default(
        self, fed_engine, tmp_path
    ):
        fed_engine.save(tmp_path / "ckpt")
        _edit_state(
            tmp_path / "ckpt", lambda state: state["vectorizer"].pop("tokenizer")
        )
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.vectorizer.analyzer == TweetTokenizer()

    @pytest.mark.parametrize(
        ("setting", "message"),
        [
            ({"stem": True}, "unknown tokenizer setting.*'stem'"),
            ({"lowercase": "no"}, "tokenizer setting lowercase='no'"),
            ({"min_token_length": 2.5}, "tokenizer setting min_token_length=2.5"),
            ({"extra_emoticons": {":3": 3}}, "tokenizer setting extra_emoticons="),
        ],
    )
    def test_malformed_tokenizer_setting_refused_by_name(
        self, fed_engine, tmp_path, setting, message
    ):
        fed_engine.save(tmp_path / "ckpt")
        _edit_state(
            tmp_path / "ckpt",
            lambda state: state["vectorizer"]["tokenizer"].update(setting),
        )
        with pytest.raises(ValueError, match=f"malformed checkpoint: {message}"):
            StreamingSentimentEngine.load(tmp_path / "ckpt")


class TestLegacyFormat:
    @staticmethod
    def _record_update_style(path, style: str) -> None:
        """Write the removed ``update_style`` option into a checkpoint,
        the way engines saved before its removal recorded it."""
        state_path = path / "state.json"
        state = json.loads(state_path.read_text())
        state["engine"]["config"]["solver"]["update_style"] = style
        state_path.write_text(json.dumps(state))

    def test_recorded_projector_style_loads_and_continues_bitwise(
        self, fed_engine, corpus, batches, tmp_path
    ):
        fed_engine.save(tmp_path / "ckpt")
        self._record_update_style(tmp_path / "ckpt", "projector")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        feed(fed_engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(fed_engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )

    def test_recorded_lagrangian_style_is_refused(self, fed_engine, tmp_path):
        fed_engine.save(tmp_path / "ckpt")
        self._record_update_style(tmp_path / "ckpt", "lagrangian")
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

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_recorded_process_backend_loads_as_thread_and_continues_bitwise(
        self, corpus, lexicon, batches, tmp_path, n_shards
    ):
        """The removed ``"process"`` backend computed the thread
        backend's bits: a checkpoint recording it (as engines saved
        before its removal did) loads on ``"thread"``, continues two
        snapshots bit-for-bit, and re-saves without the removed name."""
        sharding = {"n_shards": n_shards, "max_workers": 2}
        with StreamingSentimentEngine(
            config(6, sharding=sharding), lexicon=lexicon
        ) as engine:
            feed(engine, corpus, batches[:2])
            path = engine.save(tmp_path / "ckpt")
            state_path = path / "state.json"
            state = json.loads(state_path.read_text())
            state["engine"]["config"]["sharding"]["backend"] = "process"
            state["solver"]["kind"] = "sharded"
            state_path.write_text(json.dumps(state))
            with StreamingSentimentEngine.load(path) as loaded:
                assert loaded.config.sharding.backend == "thread"
                assert loaded.solver.backend == "thread"
                assert loaded._solver_pool is None
                feed(engine, corpus, batches[2:4])
                feed(loaded, corpus, batches[2:4])
                for name in ("sf", "sp", "su", "hp", "hu"):
                    np.testing.assert_array_equal(
                        getattr(engine.factors, name),
                        getattr(loaded.factors, name),
                        err_msg=name,
                    )
                assert engine.user_sentiments() == loaded.user_sentiments()
                resaved = json.loads(
                    (loaded.save(tmp_path / "again") / "state.json").read_text()
                )
        assert resaved["engine"]["config"]["sharding"]["backend"] == "thread"

    def test_threads_spmm_engine_config_is_refused(self, lexicon):
        with pytest.raises(ValueError, match="'threads' was removed"):
            StreamingSentimentEngine(
                EngineConfig(solver=SolverConfig(spmm="threads")),
                lexicon=lexicon,
            )

    #: Removed options as old v2 ``state.json`` files recorded them at
    #: their defaults: (config section or ``""`` for the top level,
    #: option, recorded value).
    REMOVED_DEFAULTS = [
        ("", "cross_snapshot_edges", False),
        ("solver", "objective_every", 1),
        ("sharding", "partitioner", "hash"),
        ("sharding", "consensus_iterations", 25),
        ("sharding", "halo", "on"),
        ("ingest", "async_ingest", True),
    ]

    def test_recorded_removed_defaults_load_and_continue_bitwise(
        self, fed_engine, corpus, batches, tmp_path
    ):
        """A checkpoint that records every removed option at its old
        default loads and continues the stream bit-for-bit."""
        fed_engine.save(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.json"
        state = json.loads(state_path.read_text())
        recorded = state["engine"]["config"]
        for section, option, value in self.REMOVED_DEFAULTS:
            (recorded[section] if section else recorded)[option] = value
        state_path.write_text(json.dumps(state))
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        assert loaded.config == fed_engine.effective_config()
        feed(fed_engine, corpus, batches[2:3])
        feed(loaded, corpus, batches[2:3])
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(fed_engine.factors, name),
                getattr(loaded.factors, name),
                err_msg=name,
            )

    def test_recorded_halo_off_refused(self, fed_engine, tmp_path):
        """A checkpoint recording ``sharding.halo="off"`` is refused by
        name, though the engine that wrote it ran one shard."""
        assert fed_engine.n_shards == 1
        fed_engine.save(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.json"
        state = json.loads(state_path.read_text())
        state["engine"]["config"]["sharding"]["halo"] = "off"
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="halo='off' was removed"):
            StreamingSentimentEngine.load(tmp_path / "ckpt")

    def test_malformed_config_value_refused_on_load(self, fed_engine, tmp_path):
        fed_engine.save(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.json"
        state = json.loads(state_path.read_text())
        state["engine"]["config"]["solver"]["max_iterations"] = 2.5
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="max_iterations"):
            StreamingSentimentEngine.load(tmp_path / "ckpt")


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

    def test_v1_checkpoint_refused_naming_the_version(
        self, fed_engine, tmp_path
    ):
        path = fed_engine.save(tmp_path / "ckpt")
        state_file = path / "state.json"
        state = json.loads(state_file.read_text())
        state["version"] = 1
        state_file.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="format version 1 "):
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


class TestShardingSpellings:
    """Sharding is a solver setting: the engine and its checkpoints see
    no difference between ``OnlineTriClustering(n_shards=2)`` and the
    ``ShardedOnlineTriClustering`` spelling of the same settings."""

    def test_engine_and_checkpoint_match_across_spellings(
        self, corpus, lexicon, batches, tmp_path
    ):
        from repro.core.online import OnlineTriClustering
        from repro.core.sharded import ShardedOnlineTriClustering

        seen = {}
        for name, solver_class in (
            ("plain", OnlineTriClustering),
            ("sharded", ShardedOnlineTriClustering),
        ):
            solver = solver_class(n_shards=2, max_iterations=5, seed=7)
            with StreamingSentimentEngine(
                lexicon=lexicon, solver=solver
            ) as engine:
                feed(engine, corpus, batches[:2])
                effective = engine.effective_config()
                path = engine.save(tmp_path / name)
            state = json.loads((path / "state.json").read_text())
            with StreamingSentimentEngine.load(path) as loaded:
                feed(loaded, corpus, batches[2:3])
                factors = loaded.factors
            seen[name] = (
                effective,
                state["engine"]["config"]["sharding"],
                state["solver"]["kind"],
                factors,
            )
        plain, sharded = seen["plain"], seen["sharded"]
        assert plain[0] == sharded[0]
        assert plain[0].sharding.n_shards == 2
        assert plain[1] == sharded[1]
        assert plain[2] == sharded[2] == "sharded"
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(plain[3], name), getattr(sharded[3], name),
                err_msg=name,
            )

    def test_checkpoint_kind_follows_the_settings(
        self, corpus, lexicon, batches, tmp_path
    ):
        kinds = {}
        for name, sharding in (
            ("default", {}),
            ("two_shards", {"n_shards": 2}),
            ("serial", {"backend": "serial"}),
        ):
            with StreamingSentimentEngine(
                config(4, sharding=sharding), lexicon=lexicon
            ) as engine:
                feed(engine, corpus, batches[:1])
                path = engine.save(tmp_path / name)
            state = json.loads((path / "state.json").read_text())
            kinds[name] = state["solver"]["kind"]
        assert kinds == {
            "default": "online", "two_shards": "sharded", "serial": "sharded"
        }


def _edit_arrays(path, edit) -> None:
    """Rewrite a checkpoint's ``arrays.npz`` through ``edit(arrays)``."""
    with np.load(path / "arrays.npz") as handle:
        arrays = {key: handle[key] for key in handle.files}
    edit(arrays)
    np.savez_compressed(path / "arrays.npz", **arrays)


def _edit_state(path, edit) -> None:
    """Rewrite a checkpoint's ``state.json`` through ``edit(state)``."""
    state_path = path / "state.json"
    state = json.loads(state_path.read_text())
    edit(state)
    state_path.write_text(json.dumps(state))


def _swap_first_two(arrays, prefix):
    for suffix in ("uids", "rows"):
        key = f"{prefix}_{suffix}"
        arrays[key] = arrays[key][[1, 0, *range(2, len(arrays[key]))]]


def _duplicate_first(arrays, prefix):
    uids = arrays[f"{prefix}_uids"].copy()
    uids[1] = uids[0]
    arrays[f"{prefix}_uids"] = uids


class TestMalformedCheckpoints:
    """User-state arrays that cannot be binary-searched or that disagree
    with each other are refused by name, not silently truncated."""

    @pytest.mark.parametrize(
        ("edit", "match"),
        [
            (
                lambda a: _swap_first_two(a, "user_state"),
                "user_state_uids is not strictly increasing",
            ),
            (
                lambda a: _duplicate_first(a, "su_history_0"),
                "su_history_0_uids is not strictly increasing",
            ),
            (
                lambda a: a.update(user_state_rows=a["user_state_rows"][:-1]),
                "user_state_rows has shape .* but user_state_uids holds",
            ),
            (
                lambda a: a.update(
                    su_history_0_uids=a["su_history_0_uids"][:-1]
                ),
                "su_history_0_rows has shape .* but su_history_0_uids holds",
            ),
            (
                lambda a: a.update(user_state_rows=a["user_state_rows"][:, :2]),
                "user_state_rows has 2 columns, expected num_classes=3",
            ),
            (
                lambda a: a.update(
                    su_history_0_rows=np.hstack(
                        [a["su_history_0_rows"], a["su_history_0_rows"]]
                    )
                ),
                "su_history_0_rows has 6 columns, expected num_classes=3",
            ),
            (
                lambda a: a.update(
                    user_state_uids=a["user_state_uids"].astype(np.float64)
                ),
                "user_state_uids must be a 1-D integer array",
            ),
        ],
        ids=[
            "unsorted-state", "duplicate-history", "state-count",
            "history-count", "state-width", "history-width", "float-ids",
        ],
    )
    def test_malformed_user_arrays_rejected(
        self, fed_engine, tmp_path, edit, match
    ):
        path = fed_engine.save(tmp_path / "ckpt")
        _edit_arrays(path, edit)
        with pytest.raises(ValueError, match=match):
            StreamingSentimentEngine.load(path)

    @pytest.mark.parametrize(
        "name",
        ["factors_sf", "alignment", "last_seen_uids", "author_tweet_ids"],
    )
    def test_missing_array_rejected_by_name(self, fed_engine, tmp_path, name):
        path = fed_engine.save(tmp_path / "ckpt")
        _edit_arrays(path, lambda arrays: arrays.pop(name))
        with pytest.raises(
            ValueError, match=f"malformed checkpoint: missing array '{name}'"
        ):
            StreamingSentimentEngine.load(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: _edit_arrays(
                path, lambda a: _swap_first_two(a, "user_state")
            ),
            lambda path: _edit_arrays(
                path, lambda a: _duplicate_first(a, "su_history_0")
            ),
            lambda path: _edit_state(
                path, lambda s: s["solver"].update(rng={"state": "garbage"})
            ),
        ],
        ids=["unsorted-state", "duplicate-history", "bad-rng-state"],
    )
    def test_failed_loads_leave_no_threads(self, fed_engine, tmp_path, corrupt):
        """Arrays are checked before the engine (and its ingest thread)
        exists, and an engine whose restore fails later is closed, so a
        refused checkpoint leaves nothing running."""
        path = fed_engine.save(tmp_path / "ckpt")
        corrupt(path)
        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(ValueError, match="malformed checkpoint"):
                StreamingSentimentEngine.load(path)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda solver: solver.update(rng=[1, 2]),
            lambda solver: solver.update(rng="PCG64"),
            lambda solver: solver.update(rng=None),
            lambda solver: solver["rng"].update(state="garbage"),
            lambda solver: solver["rng"].update(bit_generator="MT19937"),
            lambda solver: solver["rng"].pop("bit_generator"),
            lambda solver: solver["rng"].pop("state"),
            lambda solver: solver["rng"].pop("has_uint32"),
            lambda solver: solver["rng"]["state"].pop("inc"),
            lambda solver: solver["rng"]["state"].update(state=-1),
            lambda solver: solver["rng"]["state"].update(state="12"),
        ],
        ids=[
            "list", "string", "null", "state-not-a-dict", "other-generator",
            "no-generator-name", "no-state", "no-uint32-flag", "no-increment",
            "negative-counter", "string-counter",
        ],
    )
    def test_malformed_rng_state_rejected_by_name(
        self, fed_engine, tmp_path, edit
    ):
        """A solver RNG state numpy cannot take is a ``ValueError``
        naming ``solver.rng``, raised before the engine exists."""
        path = fed_engine.save(tmp_path / "ckpt")
        _edit_state(path, lambda state: edit(state["solver"]))
        before = threading.active_count()
        with pytest.raises(
            ValueError, match="malformed checkpoint: solver.rng is not a PCG64"
        ):
            StreamingSentimentEngine.load(path)
        assert threading.active_count() == before

    def test_seen_users_disagreeing_with_state_rejected(
        self, fed_engine, tmp_path
    ):
        path = fed_engine.save(tmp_path / "ckpt")
        state_file = path / "state.json"
        state = json.loads(state_file.read_text())
        state["solver"]["seen_users"] = state["solver"]["seen_users"][1:]
        state_file.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="seen_users differs"):
            StreamingSentimentEngine.load(path)


class TestCheckpointLayout:
    def test_npz_keys_and_solver_fields_are_pinned(
        self, fed_engine, tmp_path
    ):
        """The format-2 layout (npz keys, JSON ``solver`` fields and
        top-level sections) is fixed; the uid arrays are sorted int64."""
        path = fed_engine.save(tmp_path / "ckpt")
        with np.load(path / "arrays.npz") as handle:
            arrays = {key: handle[key] for key in handle.files}
        assert set(arrays) == {
            "factors_sf", "factors_sp", "factors_su", "factors_hp",
            "factors_hu", "alignment", "sf_history_0",
            "su_history_0_uids", "su_history_0_rows",
            "user_state_uids", "user_state_rows",
            "author_tweet_ids", "author_user_ids",
            "last_seen_uids", "last_seen_values",
        }
        state = json.loads((path / "state.json").read_text())
        assert set(state) == {
            "version", "engine", "solver", "vectorizer", "vocabulary",
            "lexicon", "builder", "sf_history_len", "su_history_len",
        }
        assert state["version"] == 2
        assert set(state["solver"]) == {"kind", "steps", "seen_users", "rng"}
        for key in ("su_history_0_uids", "user_state_uids"):
            assert arrays[key].dtype == np.int64
            assert np.all(np.diff(arrays[key]) > 0)
        assert state["solver"]["seen_users"] == (
            arrays["user_state_uids"].tolist()
        )

    def test_float32_carried_state_restores_and_continues_bitwise(
        self, corpus, lexicon, batches, tmp_path
    ):
        """Carried rows and the whole ``Su`` window (window 3) come back
        as float32 and the restored engine's priors, carried rows and
        factors continue bit for bit."""
        engine = feed(
            StreamingSentimentEngine(
                EngineConfig(
                    seed=7,
                    solver={
                        "max_iterations": 6, "dtype": "float32", "window": 3,
                    },
                ),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        engine.save(tmp_path / "ckpt")
        loaded = StreamingSentimentEngine.load(tmp_path / "ckpt")
        rows = loaded.solver.user_sentiment_rows()
        assert rows and all(row.dtype == np.float32 for row in rows.values())
        for solver in (engine.solver, loaded.solver):
            assert len(solver._su_history) == 2
        feed(engine, corpus, batches[2:])
        feed(loaded, corpus, batches[2:])
        for name in ("sf", "sp", "su", "hp", "hu"):
            original = getattr(engine.factors, name)
            restored = getattr(loaded.factors, name)
            assert restored.dtype == np.float32
            assert restored.tobytes() == original.tobytes(), name
        want = engine.solver.user_sentiment_rows()
        got = loaded.solver.user_sentiment_rows()
        assert set(want) == set(got)
        for uid, row in want.items():
            assert got[uid].dtype == np.float32
            assert got[uid].tobytes() == row.tobytes(), uid
        for uid in list(want)[:50]:
            prior = engine.solver.user_prior(uid)
            assert loaded.solver.user_prior(uid).tobytes() == prior.tobytes()


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
