"""Integration tests for the online tri-clustering solver."""

import numpy as np
import pytest

from repro.core.online import OnlineTriClustering
from repro.data.stream import SnapshotStream
from repro.eval.metrics import clustering_accuracy
from repro.graph.tripartite import build_tripartite_graph


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
