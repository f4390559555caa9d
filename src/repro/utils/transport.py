"""Socket transport for shard workers, local and remote.

The pool's command protocol is already the shape an RPC needs:
picklable commands down, factor-sized replies up, resident shard state
keyed by an epoch, and **at most one in-flight message per direction
per worker**.  This module carries that exact protocol over a stream
socket — an anonymous ``socketpair`` to each forked worker of the
process backend, TCP to workers on any host:

- a tiny **framing layer** — each message is ``MAGIC ++ u32 segment
  count ++ u64 lengths ++ segments`` (:func:`send_frame` /
  :func:`recv_frame`), where segment 0 is a pickle protocol-5 stream
  and the remaining segments are its out-of-band buffers (numpy array
  memory, shipped by vectored ``sendmsg`` without a monolithic
  ``pickle.dumps`` copy and received into preallocated buffers), with
  a hard frame size ceiling and a :class:`FrameError` for anything
  that does not parse, so a corrupted or hostile stream fails loudly
  instead of desynchronizing the exchange;
- :class:`SocketConnection` — whole pickled messages over one socket
  (``send``/``recv`` plus ``fileno``/``close``); the **one worker
  loop** (:func:`repro.utils.executor._process_worker_main`) serves a
  forked worker's socketpair and a remote client's TCP session alike;
- :class:`WorkerServer` — ``python -m repro worker --listen HOST:PORT``:
  accepts any number of pool clients (one thread per connection, each
  with its own resident states) and runs the worker loop against each;
- :class:`LocalWorkerFleet` — N localhost worker *processes* for
  benchmarks, CI smoke jobs and fault-injection tests (it can ``kill``
  a worker mid-solve).

The client half is :class:`repro.utils.executor.ProcessBackend` (forked
workers) and :class:`repro.utils.executor.SocketBackend`
(``WorkerPool(backend="socket", workers=["host:port", ...])``), which
share one one-in-flight exchange; a lost peer surfaces as
:class:`WorkerLost` instead of a hang.

**Security**: frames are pickles, and unpickling executes code.  The
protocol authenticates nothing and encrypts nothing — run TCP workers
only on trusted networks (localhost, a private cluster fabric, an SSH
tunnel).  A process-backend worker listens on nothing: its socketpair
is reachable only by the parent that created it.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from collections.abc import Sequence

#: Every frame starts with this magic so a stray client (or line noise)
#: is rejected on the first bytes instead of being read as a length.
#: ``RPR2`` is the segmented protocol-5 frame; an ``RPR1`` peer (the
#: pre-out-of-band build) is rejected here with a clear magic error
#: instead of misreading segment counts as payload lengths.
MAGIC = b"RPR2"

#: Frame header: magic + big-endian u32 segment count; followed by one
#: big-endian u64 length per segment, then the segments themselves.
_HEADER = struct.Struct(f"!{len(MAGIC)}sI")

#: Per-segment length field.
_LENGTH = struct.Struct("!Q")

#: Hard ceiling on a single frame (1 TiB would be absurd; 4 GiB covers
#: any realistic shard block while bounding a hostile length field).
MAX_FRAME_BYTES = 4 << 30

#: Ceiling on out-of-band segments per frame — a scatter payload holds
#: one buffer per factor array, so even thousands is generous; bounds a
#: hostile segment-count field the same way MAX_FRAME_BYTES bounds a
#: hostile length.
MAX_FRAME_SEGMENTS = 1 << 16

#: Buffers per ``sendmsg`` call, safely under any platform's IOV_MAX.
_IOV_CHUNK = 32

#: Greeting sent by the server on accept; carried protocol version lets
#: a future frame change fail with a clear message instead of garbage.
PROTOCOL_VERSION = 2

#: Default seconds to wait for connect + server hello.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Default seconds without any worker reply before an exchange gives
#: up.  Generous: a sweep command legitimately computes for a while
#: before replying.  ``WorkerPool(exchange_timeout=...)`` overrides.
DEFAULT_EXCHANGE_TIMEOUT = 120.0

#: Assumed worst-case sustained bandwidth used to *extend* a socket's
#: configured timeout for large sends: ``sendall`` treats its timeout
#: as a deadline for the whole transfer, so a multi-GB scatter payload
#: on a slow link must not be cut off by a reply-wait-sized timeout
#: while it is making honest progress.
SEND_FLOOR_BYTES_PER_SECOND = 10 * (1 << 20)


class FrameError(ConnectionError):
    """The byte stream does not parse as protocol frames.

    A :class:`ConnectionError` because a malformed stream cannot be
    re-synchronized — the only safe reaction is dropping the
    connection (the worker loop and the client pool both do).
    """


class PayloadDecodeError(RuntimeError):
    """A whole, well-framed payload arrived but does not unpickle.

    Deliberately *not* a :class:`FrameError`: the stream is still in
    protocol sync (the frame was consumed completely), so the worker
    loop replies with the error — naming the real cause, e.g. a
    version-skewed command the receiving build does not define —
    instead of silently dropping the session.
    """


class WorkerLost(RuntimeError):
    """A remote worker died, hung past the exchange timeout, or broke
    protocol mid-solve; the pool that raised this is permanently broken
    (create a new pool — resident shard state on the lost worker is
    gone)."""


class WorkerConnectError(WorkerLost):
    """A worker address could not be connected (refused, unreachable,
    or no valid server hello within the connect timeout)."""


# --------------------------------------------------------------------- #
# Addresses
# --------------------------------------------------------------------- #


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; IPv6 hosts must be bracketed.

    Requiring ``[v6addr]:port`` keeps the parse unambiguous: a bare
    ``::1`` (a port forgotten) is rejected here instead of silently
    splitting into host ``::`` port ``1`` and failing much later at
    connect time.
    """
    if not isinstance(address, str) or ":" not in address:
        raise ValueError(
            f"worker address must be 'host:port', got {address!r}"
        )
    host, _, port_text = address.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    elif ":" in host:
        raise ValueError(
            "IPv6 worker addresses must be bracketed, '[host]:port'; "
            f"got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address must be 'host:port', got {address!r}"
        ) from None
    if not host or not 0 < port < 65536:
        raise ValueError(
            f"worker address must be 'host:port' with port in 1..65535, "
            f"got {address!r}"
        )
    return host, port


def validate_workers(workers) -> tuple[str, ...]:
    """Eagerly validate a ``workers=["host:port", ...]`` list.

    The socket-backend counterpart of ``validate_backend``: every layer
    that accepts a worker list (``ShardingConfig``, the solvers, the
    pool) funnels through here, so a typo fails at configuration time.
    Returns the addresses as a normalized tuple.
    """
    if workers is None or isinstance(workers, str) or not isinstance(
        workers, Sequence
    ):
        raise ValueError(
            "backend='socket' needs workers=['host:port', ...] "
            f"(a sequence of addresses), got {workers!r}"
        )
    addresses = tuple(workers)
    if not addresses:
        raise ValueError(
            "backend='socket' needs at least one 'host:port' worker address"
        )
    for address in addresses:
        parse_address(address)
    return addresses


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #


def _recv_exact(sock: socket.socket, count: int, *, start: bool) -> bytes:
    """Read exactly ``count`` bytes.

    A clean EOF *between* frames (``start=True``, nothing read yet)
    raises :class:`EOFError` — the orderly end of a session.  EOF in
    the middle of a frame is a :class:`FrameError`: the peer vanished
    mid-message.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if start and remaining == count:
                raise EOFError("connection closed")
            raise FrameError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def serialize_segments(obj: object) -> list:
    """Pickle ``obj`` into ``[protocol-5 stream, *out-of-band buffers]``.

    Segment 0 is the (small) pickle stream; the out-of-band segments
    are the raw memory of every contiguous buffer-providing object in
    ``obj`` — for the pool's traffic, the numpy factor arrays — exposed
    as zero-copy memoryviews instead of being copied into the stream.
    Non-contiguous buffers (which cannot expose flat raw memory) fall
    back to an in-segment copy.
    """
    pickle_buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(
        obj, protocol=5, buffer_callback=pickle_buffers.append
    )
    segments: list = [stream]
    for buffer in pickle_buffers:
        try:
            segments.append(buffer.raw())
        except BufferError:
            segments.append(bytes(buffer))
    return segments


def _segment_nbytes(segment) -> int:
    return (
        segment.nbytes if isinstance(segment, memoryview) else len(segment)
    )


def _sendall_vectored(sock: socket.socket, views: list) -> None:
    """Write every memoryview, batching via ``sendmsg`` when available.

    A vectored write hands the kernel many buffers per syscall without
    concatenating them first — the header, the pickle stream and each
    numpy buffer go out as-is, no monolithic copy.  Batches are capped
    at :data:`_IOV_CHUNK` buffers (far below any IOV_MAX); a partial
    send advances into the pending views and retries.
    """
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
        for view in views:
            sock.sendall(view)
        return
    pending = deque(view for view in views if view.nbytes)
    while pending:
        batch = [
            pending[position]
            for position in range(min(len(pending), _IOV_CHUNK))
        ]
        sent = sock.sendmsg(batch)
        while sent > 0:
            head = pending[0]
            if sent >= head.nbytes:
                sent -= head.nbytes
                pending.popleft()
            else:
                pending[0] = head[sent:]
                sent = 0


def send_frame(sock: socket.socket, obj: object) -> int:
    """Pickle ``obj`` and write it as one segmented frame.

    Returns the total bytes written (header included) so channel
    telemetry can count traffic.  Enforces :data:`MAX_FRAME_BYTES` on
    the way *out* too — failing here names the ceiling immediately,
    instead of shipping gigabytes only for the receiver's check to
    drop the session with a generic lost-worker error.
    """
    segments = serialize_segments(obj)
    lengths = [_segment_nbytes(segment) for segment in segments]
    total = sum(lengths)
    if total > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    header = _HEADER.pack(MAGIC, len(segments)) + struct.pack(
        f"!{len(segments)}Q", *lengths
    )
    views = [memoryview(header)]
    for segment in segments:
        view = segment if isinstance(segment, memoryview) else memoryview(
            segment
        )
        views.append(view.cast("B"))
    timeout = sock.gettimeout()
    if timeout is not None:
        # Budget the deadline to the payload size (see
        # SEND_FLOOR_BYTES_PER_SECOND) so a large-but-progressing
        # transfer is not misdiagnosed as a lost worker.
        sock.settimeout(timeout + total / SEND_FLOOR_BYTES_PER_SECOND)
    try:
        _sendall_vectored(sock, views)
    finally:
        if timeout is not None:
            sock.settimeout(timeout)
    return len(header) + total


def _recv_into_exact(sock: socket.socket, buffer: bytearray) -> None:
    """Fill a preallocated buffer from the socket (no interim copies)."""
    view = memoryview(buffer)
    received = 0
    while received < len(buffer):
        count = sock.recv_into(
            view[received:], min(len(buffer) - received, 1 << 20)
        )
        if count == 0:
            raise FrameError(
                f"connection closed mid-frame ({received} of "
                f"{len(buffer)} segment bytes received)"
            )
        received += count


def _recv_frame_raw(sock: socket.socket) -> tuple:
    """Read one frame; returns ``(obj, total_bytes_received)``.

    The out-of-band segments are received into preallocated bytearrays
    and numpy reconstructs its arrays directly over that memory, so a
    factor array crosses the wire with exactly one resident copy.
    """
    header = _recv_exact(sock, _HEADER.size, start=True)
    magic, nsegments = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); the peer "
            "is not speaking the repro worker protocol (or speaks an "
            "older frame format)"
        )
    if not 0 < nsegments <= MAX_FRAME_SEGMENTS:
        raise FrameError(
            f"frame with {nsegments} segments exceeds the "
            f"{MAX_FRAME_SEGMENTS}-segment ceiling"
        )
    length_block = _recv_exact(sock, nsegments * _LENGTH.size, start=False)
    lengths = struct.unpack(f"!{nsegments}Q", length_block)
    total = sum(lengths)
    if total > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {total} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "ceiling"
        )
    stream = _recv_exact(sock, lengths[0], start=False)
    buffers: list[bytearray] = []
    for length in lengths[1:]:
        buffer = bytearray(length)
        _recv_into_exact(sock, buffer)
        buffers.append(buffer)
    try:
        obj = pickle.loads(stream, buffers=buffers)
    except Exception as exc:
        raise PayloadDecodeError(
            f"frame payload does not unpickle: {exc!r}"
        ) from exc
    return obj, _HEADER.size + len(length_block) + total


def recv_frame(sock: socket.socket):
    """Read one frame and unpickle it.

    Raises :class:`EOFError` on a clean close at a frame boundary,
    :class:`FrameError` on bad magic, an absurd length or a mid-frame
    close, :class:`PayloadDecodeError` when a whole frame's payload
    does not unpickle, and :class:`TimeoutError` when the socket's
    timeout elapses.
    """
    obj, _ = _recv_frame_raw(sock)
    return obj


class SocketConnection:
    """A framed stream socket carrying whole pickled messages.

    What :func:`repro.utils.executor._process_worker_main` and the
    one-in-flight exchange need: blocking ``send(obj)`` / ``recv()`` of
    whole messages, ``fileno()`` for readiness waits, and ``close()``.
    Works over TCP and over an ``AF_UNIX`` socketpair alike.  A receive
    timeout (set via ``settimeout``) surfaces as :class:`TimeoutError`
    from ``recv``.

    When ``telemetry`` is set (any object with ``bytes_sent``/
    ``bytes_received``/``send_seconds`` counters — in practice
    :class:`repro.utils.executor.PoolTelemetry`), every frame's size
    and serialize+write time are accumulated onto it.
    """

    def __init__(self, sock: socket.socket, telemetry=None) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.telemetry = telemetry

    def settimeout(self, seconds: float | None) -> None:
        self._sock.settimeout(seconds)

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, obj: object) -> None:
        started = time.perf_counter()
        nbytes = send_frame(self._sock, obj)
        if self.telemetry is not None:
            self.telemetry.bytes_sent += nbytes
            self.telemetry.send_seconds += time.perf_counter() - started

    def recv(self):
        obj, nbytes = _recv_frame_raw(self._sock)
        if self.telemetry is not None:
            self.telemetry.bytes_received += nbytes
        return obj

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def connect_worker(
    address: str, timeout: float = DEFAULT_CONNECT_TIMEOUT
) -> SocketConnection:
    """Connect to a :class:`WorkerServer` and verify its hello.

    Raises :class:`WorkerConnectError` on refusal, unreachability, a
    missing/garbled hello within ``timeout``, or a protocol-version
    mismatch.  On success the returned connection has **no** timeout
    set (the exchange layer manages its own deadline).
    """
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise WorkerConnectError(
            f"cannot connect to worker {address}: {exc}"
        ) from exc
    conn = SocketConnection(sock)
    try:
        hello = conn.recv()
    except (TimeoutError, EOFError, OSError, PayloadDecodeError) as exc:
        conn.close()
        raise WorkerConnectError(
            f"no server hello from worker {address} within {timeout}s "
            f"({exc!r}); is a repro WorkerServer listening there?"
        ) from exc
    if (
        not isinstance(hello, tuple)
        or len(hello) != 2
        or hello[0] != "hello"
    ):
        conn.close()
        raise WorkerConnectError(
            f"worker {address} sent an invalid hello: {hello!r}"
        )
    if hello[1] != PROTOCOL_VERSION:
        conn.close()
        raise WorkerConnectError(
            f"worker {address} speaks protocol version {hello[1]}, this "
            f"client speaks {PROTOCOL_VERSION}"
        )
    conn.settimeout(None)
    return conn


# --------------------------------------------------------------------- #
# Server
# --------------------------------------------------------------------- #


class WorkerServer:
    """A host-resident shard worker speaking the pool protocol over TCP.

    Binds at construction (``port=0`` picks a free port — read
    ``address`` for the bound one) and serves on :meth:`serve_forever`:
    each accepted client gets a dedicated daemon thread running the
    *same* command loop as a process-backend worker, with its own
    resident states — concurrent pools sharing one worker host cannot
    see each other's shard blocks.  A client's ``shutdown`` command (or
    disconnect) ends that session only; :meth:`close` stops the server.

    Trusted networks only: the protocol is pickle (see module docstring).
    """

    #: Seconds between accept() wakeups to check for close().
    _POLL_SECONDS = 0.2

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.socket(family, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self._listener.settimeout(self._POLL_SECONDS)
        self.host = host
        self.port = self._listener.getsockname()[1]
        self.address = (
            f"[{self.host}]:{self.port}"
            if family == socket.AF_INET6
            else f"{self.host}:{self.port}"
        )
        self._closed = threading.Event()

    #: Keepalive knobs for accepted sessions: probe after 60 s idle,
    #: every 15 s, give up after 4 misses (~2 min to detect a client
    #: host that died without sending FIN).  Without this, a session
    #: thread would block in recv forever, pinning its resident shard
    #: state — GB-scale leakage per unclean client death on a
    #: long-running worker.
    _KEEPALIVE = (
        ("TCP_KEEPIDLE", 60),
        ("TCP_KEEPINTVL", 15),
        ("TCP_KEEPCNT", 4),
    )

    def _serve_client(self, sock: socket.socket) -> None:
        from repro.utils.executor import _process_worker_main

        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for name, value in self._KEEPALIVE:
            if hasattr(socket, name):  # Linux names; best-effort elsewhere
                sock.setsockopt(
                    socket.IPPROTO_TCP, getattr(socket, name), value
                )
        conn = SocketConnection(sock)
        try:
            conn.send(("hello", PROTOCOL_VERSION))
        except OSError:
            conn.close()
            return
        # The process-backend worker loop, verbatim: install/run/map/
        # discard against per-session resident state, errors forwarded,
        # EOF/OSError (FrameError included) ends the session.
        _process_worker_main(conn)

    def serve_forever(self) -> None:
        """Accept and serve clients until :meth:`close` (thread-safe)."""
        try:
            while not self._closed.is_set():
                try:
                    sock, _ = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break  # listener closed under us
                threading.Thread(
                    target=self._serve_client,
                    args=(sock,),
                    name=f"repro-worker-client-{self.port}",
                    daemon=True,
                ).start()
        finally:
            self._listener.close()

    def close(self) -> None:
        """Stop accepting; in-flight client sessions finish on their own."""
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass


def _fleet_worker_main(conn, host: str) -> None:
    """Child entry point of :class:`LocalWorkerFleet`: bind, report, serve."""
    # Fleet workers are always co-located, so apply the same
    # oversubscription guard as ``python -m repro worker`` (default 1,
    # REPRO_WORKER_BLAS_THREADS overrides; 0 leaves the pool alone).
    _cap_worker_blas(_default_worker_blas_threads())
    _set_worker_spmm(_default_worker_spmm_threads())
    server = WorkerServer(host=host, port=0)
    conn.send(server.address)
    conn.close()
    server.serve_forever()


class LocalWorkerFleet:
    """N localhost :class:`WorkerServer` *processes*, for tests/benches.

    Each worker is a separate OS process (so the socket backend's
    parallelism and fault modes are the real thing), bound to an
    OS-assigned port reported back through a pipe — start-method
    agnostic, no inherited sockets.  Use as a context manager;
    :meth:`kill` hard-terminates one worker for fault-injection tests.
    """

    def __init__(self, count: int, host: str = "127.0.0.1") -> None:
        import multiprocessing as mp

        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        ctx = mp.get_context()
        self.processes = []
        self.addresses: tuple[str, ...] = ()
        addresses = []
        try:
            for _ in range(count):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_fleet_worker_main,
                    args=(child_conn, host),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                if not parent_conn.poll(30):
                    raise RuntimeError(
                        "local worker did not report its address within 30s"
                    )
                addresses.append(parent_conn.recv())
                parent_conn.close()
                self.processes.append(process)
        except BaseException:
            self.close()
            raise
        self.addresses = tuple(addresses)

    def kill(self, index: int) -> None:
        """Hard-kill worker ``index`` (SIGTERM), as a host failure would."""
        process = self.processes[index]
        process.terminate()
        process.join(timeout=10)

    def close(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=10)

    def __enter__(self) -> "LocalWorkerFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def _default_worker_blas_threads() -> int:
    """Default BLAS cap for a socket worker.

    A shard's per-sweep GEMMs are too small to profit from nested BLAS
    parallelism, and several workers usually share one box, so the
    default is 1 thread; ``REPRO_WORKER_BLAS_THREADS`` overrides it
    (``0`` = leave the BLAS pool at its library default).
    """
    try:
        return int(os.environ.get("REPRO_WORKER_BLAS_THREADS", "1"))
    except ValueError:
        return 1


def _cap_worker_blas(limit: int) -> None:
    if limit > 0:
        from repro.utils.threads import cap_blas_threads

        cap_blas_threads(limit)


def _default_worker_spmm_threads() -> int:
    """Default spmm thread budget for a socket worker.

    Mirrors :func:`_default_worker_blas_threads` for the same reason:
    several workers usually share one box, so each defaults to 1 spmm
    thread.  ``REPRO_WORKER_SPMM_THREADS`` overrides (``0`` = leave the
    process default alone, i.e. the affinity core count).
    """
    try:
        return int(os.environ.get("REPRO_WORKER_SPMM_THREADS", "1"))
    except ValueError:
        return 1


def _set_worker_spmm(limit: int) -> None:
    if limit > 0:
        from repro.utils.threads import set_spmm_thread_default

        set_spmm_thread_default(limit)


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description=(
            "Run a shard worker that serves WorkerPool(backend='socket') "
            "clients.  The protocol is unauthenticated pickle — bind to "
            "localhost or a trusted network only."
        ),
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help=(
            "HOST:PORT to bind (default 127.0.0.1:0 = loopback, "
            "OS-assigned port, printed at startup)"
        ),
    )
    parser.add_argument(
        "--blas-threads",
        type=int,
        default=_default_worker_blas_threads(),
        help=(
            "cap this worker's BLAS threadpool (default 1, or "
            "REPRO_WORKER_BLAS_THREADS; 0 leaves the library default, "
            "which oversubscribes when several workers share a host)"
        ),
    )
    parser.add_argument(
        "--spmm-threads",
        type=int,
        default=_default_worker_spmm_threads(),
        help=(
            "thread budget for this worker's parallel spmm engines and "
            "kernel tails (default 1, or REPRO_WORKER_SPMM_THREADS; 0 "
            "leaves the process default — the affinity core count)"
        ),
    )
    return parser


def worker_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro worker --listen HOST:PORT``."""
    args = build_worker_parser().parse_args(argv)
    _cap_worker_blas(args.blas_threads)
    _set_worker_spmm(args.spmm_threads)
    # Unlike client addresses, a listen address may use port 0 (bind an
    # OS-assigned port); parse it leniently here.
    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
        if not host or not 0 <= port < 65536:
            raise ValueError
    except ValueError:
        raise SystemExit(
            f"--listen must be HOST:PORT, got {args.listen!r}"
        ) from None
    server = WorkerServer(host=host.strip("[]"), port=port)
    print(f"repro worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0
