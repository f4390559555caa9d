"""SentimentService: typed requests/responses, submit/poll batching."""

import numpy as np
import pytest

from repro.data.stream import iter_tweet_batches
from repro.engine import (
    ClassifyRequest,
    ClassifyResult,
    EngineConfig,
    SentimentService,
    SnapshotReport,
    StreamingSentimentEngine,
    UserSentiment,
)

INTERVAL_DAYS = 21


def config(max_iterations=8, **overrides):
    return EngineConfig(
        seed=7, solver={"max_iterations": max_iterations}, **overrides
    )


@pytest.fixture(scope="module")
def batches(corpus):
    return list(iter_tweet_batches(corpus, interval_days=INTERVAL_DAYS))


@pytest.fixture()
def service(corpus, lexicon, batches):
    service = SentimentService(config=config(), lexicon=lexicon)
    for _, _, tweets in batches[:2]:
        service.ingest(tweets, users=corpus.profiles_for(tweets))
        report = service.snapshot()
        assert isinstance(report, SnapshotReport)
    yield service
    service.close()


class TestClassification:
    def test_submit_poll_round_trip(self, service, corpus):
        texts = [t.text for t in corpus.tweets[:6]]
        ticket = service.submit(ClassifyRequest(texts))
        result = service.poll(ticket)
        assert isinstance(result, ClassifyResult)
        assert result.ticket == ticket
        assert result.texts == tuple(texts)
        assert len(result) == len(texts)
        assert result.classes == ("pos", "neg", "neu")
        assert all(-1 <= label <= 2 for label in result.labels)
        assert result.memberships.shape == (len(texts), 3)
        names = result.label_names()
        for label, name in zip(result.labels, names):
            assert name == ("none" if label == -1 else result.classes[label])

    def test_plain_sequences_accepted(self, service, corpus):
        result = service.classify([corpus.tweets[0].text])
        assert isinstance(result, ClassifyResult)
        assert len(result) == 1

    def test_micro_batching_answers_queued_requests_together(
        self, service, corpus
    ):
        """Many submits, one fold-in pass: queued requests are all
        answered by the flush the first poll triggers."""
        texts = [t.text for t in corpus.tweets[:12]]
        tickets = [service.submit([text]) for text in texts]
        first = service.poll(tickets[0])
        assert first is not None
        # Everything else was computed by the same flush.
        with service._lock:
            assert set(tickets[1:]).issubset(service._results.keys())
        rest = [service.poll(t) for t in tickets[1:]]
        joint = np.vstack(
            [first.memberships] + [r.memberships for r in rest]
        )
        direct = service.engine.classify_memberships(texts)
        np.testing.assert_array_equal(joint, direct)

    def test_submit_matches_direct_engine_call(self, service, corpus):
        texts = [t.text for t in corpus.tweets[:8]]
        result = service.classify(texts)
        np.testing.assert_array_equal(
            np.array(result.labels), service.engine.classify(texts)
        )

    def test_unknown_ticket_rejected(self, service):
        with pytest.raises(KeyError, match="unknown ticket"):
            service.poll(10**9)

    def test_ticket_results_hand_out_once(self, service, corpus):
        ticket = service.submit([corpus.tweets[0].text])
        assert service.poll(ticket) is not None
        with pytest.raises(KeyError, match="already polled"):
            service.poll(ticket)

    def test_poll_before_model_ready(self, lexicon, corpus, batches):
        with SentimentService(config=config(), lexicon=lexicon) as service:
            ticket = service.submit(["anything"])
            assert service.poll(ticket) is None  # model not ready yet
            # The ticket survives (it was not discarded), the first
            # snapshot still goes through, and the queued request is
            # answered by the first model that exists.
            for _, _, tweets in batches[:1]:
                service.ingest(tweets, users=corpus.profiles_for(tweets))
            service.snapshot()
            result = service.poll(ticket)
            assert result is not None and result.ticket == ticket

    def test_classify_before_model_ready_raises(self, lexicon):
        with SentimentService(config=config(), lexicon=lexicon) as service:
            with pytest.raises(RuntimeError, match="no snapshot"):
                service.classify(["anything"])

    def test_concurrent_polls_never_misreport(self, service, corpus):
        """A ticket being computed by another thread's flush is waited
        on, not reported as 'already polled'."""
        import threading

        texts = [t.text for t in corpus.tweets[:32]]
        tickets = [service.submit([text]) for text in texts]
        results: dict[int, object] = {}
        errors: list[BaseException] = []

        def poller(ticket):
            try:
                results[ticket] = service.poll(ticket)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=poller, args=(t,)) for t in tickets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert set(results) == set(tickets)
        assert all(r is not None for r in results.values())

    def test_submit_autoflushes_at_batch_width(self, corpus, lexicon, batches):
        service = SentimentService(
            config=config(serving={"classify_batch_size": 4}),
            lexicon=lexicon,
        )
        for _, _, tweets in batches[:1]:
            service.ingest(tweets, users=corpus.profiles_for(tweets))
        service.snapshot()
        texts = [t.text for t in corpus.tweets[:4]]
        tickets = [service.submit([text]) for text in texts]
        with service._lock:  # 4 texts >= batch width: flushed on submit
            assert set(tickets).issubset(service._results.keys())
        service.close()


class TestReadouts:
    def test_user_sentiments_are_typed(self, service, corpus):
        sentiments = service.user_sentiments()
        assert sentiments
        assert sentiments == sorted(sentiments, key=lambda s: s.user_id)
        for entry in sentiments:
            assert isinstance(entry, UserSentiment)
            assert entry.class_name == service.classes[entry.label]
        assert {s.user_id for s in sentiments} == set(
            service.engine.user_sentiments()
        )

    def test_classes_without_lexicon(self, batches, corpus):
        with SentimentService(config=config()) as service:
            assert service.classes == ("c0", "c1", "c2")

    def test_snapshot_flushes_outstanding_tickets(
        self, service, corpus, batches
    ):
        """Requests submitted before a snapshot are answered by the model
        they were submitted against."""
        texts = [t.text for t in corpus.tweets[:4]]
        before = service.engine.classify_memberships(texts)
        ticket = service.submit(texts)
        for _, _, tweets in batches[2:3]:
            service.ingest(tweets, users=corpus.profiles_for(tweets))
            service.snapshot()
        result = service.poll(ticket)
        np.testing.assert_allclose(result.memberships, before, atol=1e-12)


class TestLifecycle:
    def test_wrap_existing_engine(self, lexicon):
        engine = StreamingSentimentEngine(config(), lexicon=lexicon)
        service = SentimentService(engine)
        assert service.engine is engine
        with pytest.raises(ValueError, match="not both"):
            SentimentService(engine, lexicon=lexicon)
        service.close()

    def test_save_load_round_trip(self, service, corpus, tmp_path):
        texts = [t.text for t in corpus.tweets[:8]]
        expected = service.classify(texts)
        service.save(tmp_path / "ckpt")
        loaded = SentimentService.load(tmp_path / "ckpt")
        result = loaded.classify(texts)
        assert result.labels == expected.labels
        np.testing.assert_array_equal(result.memberships, expected.memberships)
        assert loaded.user_sentiments() == service.user_sentiments()
        loaded.close()
