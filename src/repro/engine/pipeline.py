"""Asynchronous ingestion: a bounded queue drained by a worker thread.

``StreamingSentimentEngine.ingest`` used to tokenize every tweet on the
caller's thread — a producer pushing a hot stream paid vocabulary
growth, idf bookkeeping and Counter assembly inline, exactly the cost
ROADMAP's *async ingestion* item wanted off the ingest path.
:class:`IngestPipeline` moves it: producers enqueue raw batches in O(1)
and a single dedicated worker thread drains the queue in FIFO order,
tokenizing and growing the vocabulary off-thread.  The worker is a
*daemon* thread rather than a :class:`~repro.utils.executor.WorkerPool`
task on purpose: a perpetual drainer blocks on its queue forever, and
executor threads are joined at interpreter shutdown — an engine the
caller forgot to ``close()`` must never hang process exit.  (Batches
still queued when an unclosed process exits are lost, the normal
contract of any unflushed buffer.)

Ordering and determinism: exactly one worker drains the queue, so
batches are processed in submission order — the vocabulary grows in the
same order as running each batch inline, and snapshots assembled
after a :meth:`flush` are **bit-identical** to inline ingestion
(regression-tested against the builder and solver run directly).

Backpressure: the queue is bounded by ``max_queued_batches``.  A full
queue blocks the producer when ``block=True`` (default), otherwise the
configured overflow policy applies — ``"raise"`` an
:class:`IngestQueueFull`, or ``"drop"`` the batch (the producer learns
from the return value).  :meth:`flush` is the barrier the engine's
``advance_snapshot`` uses: it returns once every batch enqueued before
the call has been folded into the builder.

Failure model: an exception inside the worker (a malformed tweet, a
tokenizer bug) is captured, the poisoned batch is discarded, and every
*subsequent* batch is discarded too — the vocabulary state after a
partial batch is unreliable, so the pipeline refuses to paper over it.
The stored error re-raises on the next ``submit``/``flush``.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable, Iterable

from repro.data.tweet import Tweet, UserProfile
from repro.utils.logging import get_logger

logger = get_logger("engine.pipeline")

#: Queue sentinel that tells the drain worker to exit.
_STOP = object()


class IngestQueueFull(RuntimeError):
    """``ingest(block=False)`` found the queue full under policy 'raise'."""


class IngestPipeline:
    """Bounded-queue async front of the incremental builder.

    Parameters
    ----------
    process_batch:
        ``process_batch(tweets, users)`` — the synchronous ingestion
        step (tokenize, grow vocabulary, buffer deltas).  Called from
        the worker thread only, one batch at a time; the engine passes
        a closure that also holds its serve lock, so ingestion never
        races classify or snapshot assembly.
    max_queued_batches:
        Queue bound (batches, not tweets — producers control batch
        granularity, so the bound they reason about is their own unit).
    overflow:
        ``"raise"`` or ``"drop"`` — what a non-blocking submit does
        when the queue is full.
    """

    def __init__(
        self,
        process_batch: Callable[[list[Tweet], list[UserProfile] | None], None],
        max_queued_batches: int = 64,
        overflow: str = "raise",
    ) -> None:
        self._process_batch = process_batch
        self._overflow = overflow
        self._queue: queue.Queue = queue.Queue(maxsize=max_queued_batches)
        self._lock = threading.Lock()
        self._queued_tweets = 0
        self._dropped_tweets = 0
        self._error: BaseException | None = None
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain_loop, name="repro-ingest", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        tweets: Iterable[Tweet],
        users: Iterable[UserProfile] | None = None,
        block: bool = True,
    ) -> int:
        """Enqueue one batch; returns the number of tweets accepted.

        O(1) beyond materializing the iterables — no tokenization
        happens here.  ``block=True`` waits for queue space
        (backpressure); ``block=False`` applies the overflow policy
        instead and returns 0 for a dropped batch.
        """
        self._require_live()
        batch = list(tweets)
        profiles = list(users) if users is not None else None
        if not batch and not profiles:
            return 0
        with self._lock:
            self._queued_tweets += len(batch)
        try:
            self._queue.put((batch, profiles), block=block)
        except queue.Full:
            with self._lock:
                self._queued_tweets -= len(batch)
            if self._overflow == "drop":
                with self._lock:
                    self._dropped_tweets += len(batch)
                logger.warning(
                    "ingest queue full; dropped a batch of %d tweets "
                    "(%d dropped in total)", len(batch), self._dropped_tweets,
                )
                return 0
            raise IngestQueueFull(
                f"ingest queue is full ({self._queue.maxsize} batches) and "
                "block=False; advance a snapshot, flush, or raise "
                "IngestConfig.max_queued_batches"
            ) from None
        return len(batch)

    def flush(self) -> None:
        """Barrier: return once every enqueued batch has been processed.

        Re-raises the first worker error, if any — a failed batch means
        the builder state stopped advancing, which callers must see
        before they snapshot.
        """
        self._require_live()
        self._queue.join()
        self._raise_pending_error()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def queued(self) -> int:
        """Tweets submitted but not yet folded into the builder."""
        with self._lock:
            return self._queued_tweets

    @property
    def dropped(self) -> int:
        """Tweets discarded by the ``"drop"`` overflow policy so far."""
        with self._lock:
            return self._dropped_tweets

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain what is queued, stop the worker, release the thread.

        Idempotent, and terminal like every pool in this codebase: a
        closed pipeline refuses further submissions rather than
        silently resurrecting its worker.  A stored worker error is
        swallowed here (close is a teardown path); it was already
        raised to the producer on submit/flush if anyone was listening.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        self._worker.join()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #

    def _drain_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                batch, profiles = item
                if self._error is None:
                    try:
                        self._process_batch(batch, profiles)
                    except BaseException as exc:  # noqa: BLE001 - reported
                        self._error = exc
                        logger.exception(
                            "ingest worker failed on a batch of %d tweets; "
                            "discarding subsequent batches", len(batch),
                        )
                # else: discard — builder state is unreliable after an
                # error, and flush() is about to re-raise it anyway.
            finally:
                if item is not _STOP:
                    with self._lock:
                        self._queued_tweets -= len(item[0])
                self._queue.task_done()

    def _require_live(self) -> None:
        if self._closed:
            raise RuntimeError(
                "IngestPipeline is closed; create a new engine instead of "
                "reusing one that was shut down"
            )
        self._raise_pending_error()

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            raise RuntimeError(
                "the ingest worker failed; the engine's buffered state is "
                "incomplete (see the chained exception)"
            ) from self._error

