"""Integration tests for the online tri-clustering solver."""

import dataclasses

import numpy as np
import pytest

from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedOnlineTriClustering
from repro.data.stream import SnapshotStream
from repro.data.synthetic import SyntheticCorpus, synthesize_graph
from repro.eval.metrics import clustering_accuracy
from repro.graph.tripartite import build_tripartite_graph
from tests.core.reference import (
    DictStateOnlineTriClustering,
    DictStateShardedOnlineTriClustering,
)


def stream_graphs(corpus, shared_vectorizer, lexicon, interval=14):
    for snapshot in SnapshotStream(corpus, interval_days=interval):
        yield snapshot, build_tripartite_graph(
            snapshot.corpus, vectorizer=shared_vectorizer, lexicon=lexicon
        )


@pytest.fixture(scope="module")
def run(corpus, shared_vectorizer, lexicon):
    solver = OnlineTriClustering(max_iterations=40, seed=7)
    steps = []
    for snapshot, graph in stream_graphs(corpus, shared_vectorizer, lexicon):
        steps.append((snapshot, solver.partial_fit(graph)))
    return solver, steps


class TestParameters:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OnlineTriClustering(tau=0.0)
        with pytest.raises(ValueError):
            OnlineTriClustering(window=1)
        with pytest.raises(ValueError):
            OnlineTriClustering(state_smoothing=1.0)
        with pytest.raises(ValueError):
            OnlineTriClustering(num_classes=1)
        with pytest.raises(TypeError):  # the update_style option was removed
            OnlineTriClustering(update_style="projector")


class TestStreamProcessing:
    def test_steps_indexed_sequentially(self, run):
        _, steps = run
        assert [s.snapshot_index for _, s in steps] == list(range(len(steps)))

    def test_first_step_all_users_new(self, run):
        _, steps = run
        first = steps[0][1]
        assert first.evolving_user_rows.size == 0
        assert first.new_user_rows.size == len(first.user_ids)

    def test_later_steps_have_evolving_users(self, run):
        _, steps = run
        assert any(
            step.evolving_user_rows.size > 0 for _, step in steps[1:]
        )

    def test_new_and_evolving_disjoint(self, run):
        _, steps = run
        for _, step in steps:
            assert not set(step.new_user_rows) & set(step.evolving_user_rows)

    def test_factors_finite_each_step(self, run):
        _, steps = run
        for _, step in steps:
            for name in ("sf", "sp", "su"):
                matrix = getattr(step.factors, name)
                assert np.all(np.isfinite(matrix))
                assert np.all(matrix >= 0.0)

    def test_per_step_shapes(self, run):
        _, steps = run
        for snapshot, step in steps:
            assert step.factors.sp.shape[0] == snapshot.num_tweets
            assert step.factors.su.shape[0] == snapshot.num_users


class TestTemporalState:
    def test_seen_users_accumulate(self, run, corpus):
        solver, _ = run
        assert solver.seen_users == set(corpus.user_ids)

    def test_steps_counted(self, run):
        solver, steps = run
        assert solver.steps == len(steps)

    def test_user_state_covers_all_seen(self, run):
        solver, _ = run
        rows = solver.user_sentiment_rows()
        assert set(rows) == solver.seen_users
        for row in rows.values():
            assert row.shape == (3,)
            assert np.all(np.isfinite(row))

    def test_labels_are_valid_classes(self, run):
        solver, _ = run
        labels = solver.user_sentiment_labels()
        assert set(labels.values()) <= {0, 1, 2}

    def test_feature_prior_is_decayed_previous(self, corpus, shared_vectorizer, lexicon):
        solver = OnlineTriClustering(max_iterations=10, seed=1, tau=0.5)
        graphs = list(stream_graphs(corpus, shared_vectorizer, lexicon, 30))
        _, first_graph = graphs[0]
        step = solver.partial_fit(first_graph)
        prior = solver.feature_prior(first_graph.num_features)
        assert np.allclose(prior, 0.5 * step.factors.sf)

    def test_feature_prior_none_before_first_step(self):
        solver = OnlineTriClustering()
        assert solver.feature_prior(10) is None

    def test_feature_dimension_shrink_rejected(self, corpus, shared_vectorizer, lexicon):
        solver = OnlineTriClustering(max_iterations=5, seed=1)
        graphs = list(stream_graphs(corpus, shared_vectorizer, lexicon, 30))
        solver.partial_fit(graphs[0][1])
        with pytest.raises(ValueError, match="shared vocabulary"):
            solver.feature_prior(graphs[0][1].num_features - 1)

    def test_feature_dimension_growth_zero_padded(
        self, corpus, shared_vectorizer, lexicon
    ):
        """Append-only vocabulary growth: new words get a zero prior row
        while rows for known words keep their decayed history."""
        solver = OnlineTriClustering(max_iterations=5, seed=1)
        graphs = list(stream_graphs(corpus, shared_vectorizer, lexicon, 30))
        solver.partial_fit(graphs[0][1])
        old_width = graphs[0][1].num_features
        unpadded = solver.feature_prior(old_width)
        grown = solver.feature_prior(old_width + 3)
        assert grown.shape == (old_width + 3, 3)
        np.testing.assert_allclose(grown[:old_width], unpadded)
        np.testing.assert_array_equal(grown[old_width:], np.zeros((3, 3)))

    def test_user_prior_reflects_history(self, run):
        solver, steps = run
        last_step = steps[-1][1]
        uid = last_step.user_ids[0]
        prior = solver.user_prior(uid)
        assert prior is not None
        assert prior.shape == (3,)

    def test_user_prior_unknown_user(self, run):
        solver, _ = run
        assert solver.user_prior(10**9) is None

    def test_current_feature_factor(self, run, graph):
        solver, _ = run
        sf = solver.current_feature_factor
        assert sf is not None
        assert sf.shape == (graph.num_features, 3)


class TestQuality:
    def test_cumulative_tweet_accuracy(self, run):
        _, steps = run
        predictions = np.concatenate(
            [step.tweet_sentiments() for _, step in steps]
        )
        truth = np.concatenate(
            [snapshot.corpus.tweet_labels() for snapshot, _ in steps]
        )
        assert clustering_accuracy(predictions, truth) > 0.7

    def test_final_user_accuracy(self, run, corpus):
        solver, _ = run
        labels = solver.user_sentiment_labels()
        uids = sorted(labels)
        predictions = np.array([labels[u] for u in uids])
        final_day = corpus.day_range[1]
        truth = np.array(
            [
                int(lab)
                if (lab := corpus.users[u].label_at(final_day)) is not None
                else -1
                for u in uids
            ]
        )
        assert clustering_accuracy(predictions, truth) > 0.5


class TestDeterminism:
    def test_same_seed_same_stream_result(self, corpus, shared_vectorizer, lexicon):
        outputs = []
        for _ in range(2):
            solver = OnlineTriClustering(max_iterations=10, seed=11)
            for _, graph in stream_graphs(corpus, shared_vectorizer, lexicon, 30):
                solver.partial_fit(graph)
            outputs.append(solver.user_sentiment_labels())
        assert outputs[0] == outputs[1]


class TestVocabularyGuard:
    def test_growth_from_foreign_vocabulary_rejected(
        self, corpus, shared_vectorizer, lexicon
    ):
        """A larger snapshot built with an independently fitted vocabulary
        must fail fast — zero-padding only makes sense append-only."""
        solver = OnlineTriClustering(max_iterations=5, seed=1)
        snapshots = SnapshotStream(corpus, interval_days=30).snapshots()
        small = build_tripartite_graph(snapshots[1].corpus, lexicon=lexicon)
        solver.partial_fit(small)
        bigger = build_tripartite_graph(corpus, lexicon=lexicon)
        assert bigger.num_features > small.num_features
        with pytest.raises(ValueError, match="different vocabulary"):
            solver.partial_fit(bigger)

    def test_growth_from_shared_vocabulary_accepted(self, corpus, lexicon):
        """The same growing vocabulary object is the legal growth path."""
        from repro.text.vectorizer import TfidfVectorizer

        vectorizer = TfidfVectorizer()
        solver = OnlineTriClustering(max_iterations=5, seed=1)
        snapshots = SnapshotStream(corpus, interval_days=30).snapshots()
        for snapshot in snapshots[:2]:
            vectorizer.partial_fit(snapshot.corpus.texts())
            graph = build_tripartite_graph(
                snapshot.corpus, vectorizer=vectorizer, lexicon=lexicon
            )
            step = solver.partial_fit(graph)
            assert step.factors.num_features == len(vectorizer.vocabulary)


# --------------------------------------------------------------------- #
# Array-native temporal state vs the dict-based oracle
# --------------------------------------------------------------------- #

CHURN_GROUP_SIZE = 14
#: The user groups posting in each snapshot.  B is away for two
#: snapshots and C and A for one each, D arrives last: across window 2
#: and 3 that exercises new users, the lag-1 and lag-2-only history
#: sums, and the carried ``τ·state`` fallback for users who return
#: after the window.
CHURN_SCHEDULE = ("AB", "AC", "A", "ABC", "BC", "A", "ABCD")
UNKNOWN_IDS = (-1, 0, 10**12)


class _IdCorpus(SyntheticCorpus):
    """A synthetic corpus whose user rows carry the given ids."""

    def __init__(self, author_rows, user_ids) -> None:
        super().__init__(author_rows, len(user_ids))
        self._ids = [int(uid) for uid in user_ids]
        self._rows = {uid: row for row, uid in enumerate(self._ids)}

    @property
    def user_ids(self) -> list[int]:
        return list(self._ids)

    def user_position(self, user_id: int) -> int:
        return self._rows[user_id]


def churny_stream():
    """Snapshot graphs over sparse ids that follow ``CHURN_SCHEDULE``.

    Odd snapshots list their users out of id order.
    """
    rng = np.random.default_rng(5)
    pool = np.sort(rng.choice(10**9, size=4 * CHURN_GROUP_SIZE, replace=False))
    groups = {
        name: pool[i * CHURN_GROUP_SIZE:(i + 1) * CHURN_GROUP_SIZE]
        for i, name in enumerate("ABCD")
    }
    graphs = []
    for t, members in enumerate(CHURN_SCHEDULE):
        ids = np.concatenate([groups[name] for name in members])
        if t % 2:
            ids = rng.permutation(ids)
        base = synthesize_graph(
            num_users=ids.size, vocab_size=40, tweets_per_user=3.0, seed=t
        )
        graphs.append(
            dataclasses.replace(
                base, corpus=_IdCorpus(base.corpus.author_rows, ids)
            )
        )
    return pool, graphs


def returns_after_window(window: int) -> int:
    """Users who post again after ``window - 1`` snapshots away."""
    count = 0
    for t, members in enumerate(CHURN_SCHEDULE):
        recent = "".join(CHURN_SCHEDULE[max(0, t - window + 1):t])
        earlier = "".join(CHURN_SCHEDULE[:max(0, t - window + 1)])
        count += sum(g in earlier and g not in recent for g in members)
    return count


def assert_bitwise(a, b, what=""):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


class TestArrayStateParity:
    """The array-native temporal state reproduces the dict-based one.

    Same seed and churny stream through the solver and through the same
    solver class with :class:`tests.core.reference.DictTemporalState`
    bookkeeping: every factor, new/evolving split, prior, carried row
    and readout must match bit for bit, on the plain solver and on two
    shards over each execution backend.
    """

    SOLVERS = ["plain", "thread", "socket"]

    @pytest.fixture(scope="class")
    def stream(self):
        return churny_stream()

    @staticmethod
    def _pair(solver, request, **params):
        if solver == "plain":
            return (
                DictStateOnlineTriClustering(**params),
                OnlineTriClustering(**params),
            )
        params["n_shards"] = 2
        params["backend"] = solver
        if solver == "socket":
            params["workers"] = request.getfixturevalue("socket_workers")
        else:
            params["max_workers"] = 2
        return (
            DictStateShardedOnlineTriClustering(**params),
            ShardedOnlineTriClustering(**params),
        )

    def test_stream_has_returns_after_window(self):
        for window in (2, 3):
            assert returns_after_window(window) > 0

    def test_duplicate_snapshot_user_ids_rejected(self, stream):
        _, graphs = stream
        graph = graphs[0]
        ids = graph.corpus.user_ids
        ids[1] = ids[0]
        duplicated = dataclasses.replace(
            graph, corpus=_IdCorpus(graph.corpus.author_rows, ids)
        )
        solver = OnlineTriClustering(seed=3, max_iterations=2)
        with pytest.raises(ValueError, match="duplicate user ids"):
            solver.partial_fit(duplicated)
        assert solver.steps == 0 and not solver.seen_users

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("state_smoothing", [0.0, 0.8])
    @pytest.mark.parametrize("window", [2, 3])
    def test_bitwise_equal_to_dict_state(
        self, stream, solver, dtype, state_smoothing, window, request
    ):
        pool, graphs = stream
        oracle, run = self._pair(
            solver, request, seed=3, max_iterations=4, window=window,
            state_smoothing=state_smoothing, dtype=dtype,
        )
        probe_ids = [int(uid) for uid in pool] + list(UNKNOWN_IDS)
        for t, graph in enumerate(graphs):
            expected = oracle.partial_fit(graph)
            result = run.partial_fit(graph)
            for name in ("sf", "sp", "su", "hp", "hu"):
                assert_bitwise(
                    getattr(expected.factors, name),
                    getattr(result.factors, name),
                    f"snapshot {t}: {name}",
                )
            assert_bitwise(expected.new_user_rows, result.new_user_rows)
            assert_bitwise(
                expected.evolving_user_rows, result.evolving_user_rows
            )
            assert expected.history.totals == result.history.totals
            assert expected.user_ids == result.user_ids

            for uid in probe_ids:
                want, got = oracle.user_prior(uid), run.user_prior(uid)
                if want is None:
                    assert got is None, uid
                else:
                    assert_bitwise(want, got, f"snapshot {t}: prior {uid}")
            want_rows = oracle.user_sentiment_rows()
            got_rows = run.user_sentiment_rows()
            assert set(want_rows) == set(got_rows)
            for uid, row in want_rows.items():
                assert_bitwise(row, got_rows[uid], f"snapshot {t}: row {uid}")
            assert oracle.user_sentiment_labels() == run.user_sentiment_labels()
            assert oracle.seen_users == run.seen_users
