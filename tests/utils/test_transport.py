"""Socket transport: framing, server, fault injection against stubs.

The invariants under test are the ones the multi-host solve leans on:
a lost worker **raises** (``WorkerLost``/``WorkerConnectError``) within
its timeout instead of hanging the exchange, and a malformed byte
stream is rejected as a :class:`FrameError` rather than desynchronizing
the one-in-flight protocol.
"""

import contextlib
import copy
import socket
import threading
import time

import pytest

from repro.utils.executor import WorkerPool
from repro.utils.transport import (
    MAGIC,
    PROTOCOL_VERSION,
    FrameError,
    LocalWorkerFleet,
    SocketConnection,
    WorkerConnectError,
    WorkerLost,
    WorkerServer,
    _default_worker_blas_threads,
    _default_worker_spmm_threads,
    connect_worker,
    parse_address,
    recv_frame,
    send_frame,
    validate_workers,
)

#: Generous ceiling for "raised promptly, did not hang" assertions —
#: far below any solve, far above scheduler noise.
PROMPT_SECONDS = 10.0


def _nap_echo(state, seconds):
    """Resident command that lingers; used to catch a kill mid-solve."""
    time.sleep(seconds)
    return state


def _state_and_shared(state, tag):
    """Resident command pairing the state with a shared-resident value."""
    return (copy.copy(state), tag)


class StubServer:
    """One-connection stub: accept, run ``behavior(sock)``, hang up.

    Lets the client-side timeout and framing paths be tested against a
    peer that is *almost* a worker — accepts TCP but then misbehaves in
    a controlled way.
    """

    def __init__(self, behavior) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.address = f"127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(
            target=self._serve, args=(behavior,), daemon=True
        )
        self._thread.start()

    def _serve(self, behavior) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        try:
            behavior(sock)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._listener.close()


class TestAddresses:
    def test_parse_address(self):
        assert parse_address("10.0.0.5:7500") == ("10.0.0.5", 7500)
        assert parse_address("[::1]:80") == ("::1", 80)

    @pytest.mark.parametrize(
        "bad", ["nohost", "host:notaport", "host:0", "host:70000", ":7500", 7]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            parse_address(bad)

    @pytest.mark.parametrize("bad", ["::1", "fe80::1", "fe80::1:7500"])
    def test_unbracketed_ipv6_rejected_not_misparsed(self, bad):
        """A bare IPv6 address (port forgotten) must fail eagerly, not
        split at the last colon into a nonsense host/port pair."""
        with pytest.raises(ValueError, match="bracketed"):
            parse_address(bad)

    def test_validate_workers_normalizes(self):
        assert validate_workers(["a:1", "b:2"]) == ("a:1", "b:2")

    @pytest.mark.parametrize("bad", [None, (), "a:1", ["a:1", "b"]])
    def test_validate_workers_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_workers(bad)


class TestWorkerThreadDefaults:
    """A socket worker caps BLAS and spmm to 1 thread unless told otherwise."""

    @pytest.mark.parametrize(
        ("env", "default"),
        [
            ("REPRO_WORKER_BLAS_THREADS", _default_worker_blas_threads),
            ("REPRO_WORKER_SPMM_THREADS", _default_worker_spmm_threads),
        ],
    )
    def test_env_overrides(self, monkeypatch, env, default):
        monkeypatch.delenv(env, raising=False)
        assert default() == 1
        monkeypatch.setenv(env, "3")
        assert default() == 3
        monkeypatch.setenv(env, "0")  # leave the library default alone
        assert default() == 0
        monkeypatch.setenv(env, "lots")  # garbage degrades to one
        assert default() == 1


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"su": [1, 2], "epoch": 3})
            assert recv_frame(b) == {"su": [1, 2], "epoch": 3}
        finally:
            a.close()
            b.close()

    def test_bad_magic_is_frame_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            with pytest.raises(FrameError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_absurd_length_is_frame_error(self):
        import struct

        a, b = socket.socketpair()
        try:
            # Valid header (one segment), absurd segment length.
            a.sendall(
                MAGIC + struct.pack("!I", 1) + struct.pack("!Q", 1 << 60)
            )
            with pytest.raises(FrameError, match="ceiling"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_absurd_segment_count_is_frame_error(self):
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(MAGIC + struct.pack("!I", 1 << 31))
            with pytest.raises(FrameError, match="segment"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_out_of_band_numpy_round_trip(self):
        """Arrays travel as out-of-band protocol-5 buffers and come back
        equal (and writable — received buffers are fresh bytearrays)."""
        np = pytest.importorskip("numpy")
        a, b = socket.socketpair()
        try:
            payload = {
                "sf": np.arange(12.0).reshape(3, 4),
                "mask": np.array([True, False, True]),
                "meta": ("epoch", 7),
            }
            sent = send_frame(a, payload)
            got = recv_frame(b)
            assert sent > 0
            assert got["meta"] == ("epoch", 7)
            assert np.array_equal(got["sf"], payload["sf"])
            assert np.array_equal(got["mask"], payload["mask"])
            got["sf"][0, 0] = -1.0  # writable, not a read-only view
        finally:
            a.close()
            b.close()

    def test_clean_close_is_eof_and_midframe_close_is_frame_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(MAGIC)  # header truncated
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()


class TestWorkerServer:
    def test_hello_and_resident_protocol(self):
        server = WorkerServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with WorkerPool(
                backend="socket", workers=[server.address]
            ) as pool:
                pool.scatter([[1]], to_payload=tuple, from_payload=list)
                pool.run_resident(list.append, [(2,)])
                assert pool.run_resident(copy.copy, [()]) == [[1, 2]]
        finally:
            server.close()
            thread.join(timeout=5)

    def test_concurrent_sessions_have_isolated_state(self):
        """Two pools on one worker host must not see each other's
        resident shards or shared residents (per-connection state)."""
        server = WorkerServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with WorkerPool(
                backend="socket", workers=[server.address]
            ) as one, WorkerPool(
                backend="socket", workers=[server.address]
            ) as two:
                one.scatter([["one"]])
                two.scatter([["two"]])
                one.share("tag", "ONE")
                two.share("tag", "TWO")
                assert one.run_resident(
                    _state_and_shared, [(one.shared_ref("tag"),)]
                ) == [(["one"], "ONE")]
                assert two.run_resident(
                    _state_and_shared, [(two.shared_ref("tag"),)]
                ) == [(["two"], "TWO")]
                # Interleaved updates stay per-session too.
                one.share("tag", "ONE-2")
                assert one.run_resident(
                    _state_and_shared, [(one.shared_ref("tag"),)]
                ) == [(["one"], "ONE-2")]
                assert two.run_resident(
                    _state_and_shared, [(two.shared_ref("tag"),)]
                ) == [(["two"], "TWO")]
        finally:
            server.close()
            thread.join(timeout=5)

    def test_ipv6_loopback_server(self):
        try:
            server = WorkerServer(host="::1")
        except OSError:
            pytest.skip("IPv6 loopback unavailable")
        assert server.address == f"[::1]:{server.port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with WorkerPool(
                backend="socket", workers=[server.address]
            ) as pool:
                pool.scatter([[6]])
                assert pool.run_resident(copy.copy, [()]) == [[6]]
        finally:
            server.close()
            thread.join(timeout=5)

    def test_undecodable_command_gets_error_reply_not_silent_death(self):
        """A whole frame whose payload does not unpickle (version skew)
        must come back as an ('error', ...) reply on the same, still
        usable session — not as a silently dropped connection."""
        import struct

        server = WorkerServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = connect_worker(server.address, timeout=5.0)
            raw = b"\x93not-a-pickle"
            conn._sock.sendall(
                MAGIC + struct.pack("!I", 1)
                + struct.pack("!Q", len(raw)) + raw
            )
            reply = conn.recv()
            assert reply[0] == "error"
            assert "deserialize" in str(reply[1])
            # Channel stayed in sync: a real command still round-trips.
            conn.send(("map", abs, -4))
            assert conn.recv() == ("ok", 4)
            conn.close()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_sessions_enable_tcp_keepalive(self):
        """Accepted sessions must carry keepalive, or an uncleanly dead
        client would pin its session thread (and resident shard state)
        on the worker forever."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        client = socket.create_connection(listener.getsockname(), timeout=5)
        served, _ = listener.accept()
        server = WorkerServer()
        thread = threading.Thread(
            target=server._serve_client, args=(served,), daemon=True
        )
        thread.start()
        conn = SocketConnection(client)
        try:
            assert conn.recv()[0] == "hello"  # handler is running
            assert served.getsockopt(
                socket.SOL_SOCKET, socket.SO_KEEPALIVE
            ) == 1
            conn.send(("shutdown",))
        finally:
            thread.join(timeout=5)
            conn.close()
            listener.close()
            server.close()

    def test_shutdown_command_ends_session_not_server(self):
        server = WorkerServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for _ in range(2):  # a second client connects fine
                pool = WorkerPool(backend="socket", workers=[server.address])
                pool.scatter([[7]])
                assert pool.run_resident(copy.copy, [()]) == [[7]]
                pool.shutdown()
        finally:
            server.close()
            thread.join(timeout=5)


class TestConnectFailures:
    def test_connection_refused_is_connect_error(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(WorkerConnectError, match="cannot connect"):
            connect_worker(f"127.0.0.1:{port}", timeout=2.0)

    def test_silent_accept_times_out(self):
        """A peer that accepts but never sends the server hello must
        fail within the connect timeout, not hang."""
        stub = StubServer(lambda sock: time.sleep(30))
        try:
            started = time.perf_counter()
            with pytest.raises(WorkerConnectError, match="hello"):
                connect_worker(stub.address, timeout=0.5)
            assert time.perf_counter() - started < PROMPT_SECONDS
        finally:
            stub.close()

    def test_wrong_protocol_version_rejected(self):
        stub = StubServer(
            lambda sock: send_frame(sock, ("hello", PROTOCOL_VERSION + 1))
        )
        try:
            with pytest.raises(WorkerConnectError, match="protocol version"):
                connect_worker(stub.address, timeout=2.0)
        finally:
            stub.close()

    def test_pool_surfaces_connect_failure(self):
        stub = StubServer(lambda sock: time.sleep(30))
        try:
            pool = WorkerPool(
                backend="socket",
                workers=[stub.address],
                connect_timeout=0.5,
            )
            with pytest.raises(WorkerConnectError):
                pool.scatter([[1]])
            pool.shutdown()
        finally:
            stub.close()


class TestExchangeFailures:
    def _hello_then(self, behavior):
        def serve(sock):
            send_frame(sock, ("hello", PROTOCOL_VERSION))
            behavior(sock)

        return StubServer(serve)

    def test_malformed_reply_is_worker_lost_with_frame_cause(self):
        stub = self._hello_then(
            lambda sock: (recv_frame(sock), sock.sendall(b"garbage! " * 4))
        )
        try:
            pool = WorkerPool(backend="socket", workers=[stub.address])
            with pytest.raises(WorkerLost, match="FrameError"):
                pool.scatter([[1]])
            pool.shutdown()
        finally:
            stub.close()

    def test_worker_dying_mid_reply_is_worker_lost_not_hang(self):
        """A worker that dies midway through *writing* a reply — valid
        frame header, partial payload — must surface as ``WorkerLost``
        (with the ``FrameError`` cause), leave the pool terminally
        broken, and never hang the exchange."""
        import struct

        def die_mid_payload(sock):
            recv_frame(sock)  # the install command
            # A valid header announcing one 1 MiB segment ... of which
            # only a fragment ever arrives before the crash.
            sock.sendall(
                MAGIC + struct.pack("!I", 1) + struct.pack("!Q", 1 << 20)
                + b"\x80\x05partial-sf-rows"
            )
            sock.close()

        stub = self._hello_then(die_mid_payload)
        try:
            pool = WorkerPool(backend="socket", workers=[stub.address])
            started = time.perf_counter()
            with pytest.raises(WorkerLost, match="FrameError"):
                pool.scatter([[1]])
            assert time.perf_counter() - started < PROMPT_SECONDS
            with pytest.raises(WorkerLost, match="broken"):
                pool.run_resident(copy.copy, [()])
            pool.shutdown()
        finally:
            stub.close()

    def test_unresponsive_worker_times_out_not_hangs(self):
        """A worker that accepts the command but never replies must
        raise within the exchange timeout."""
        stub = self._hello_then(lambda sock: time.sleep(30))
        try:
            pool = WorkerPool(
                backend="socket",
                workers=[stub.address],
                exchange_timeout=0.5,
            )
            started = time.perf_counter()
            with pytest.raises(WorkerLost, match="within"):
                pool.scatter([[1]])
            assert time.perf_counter() - started < PROMPT_SECONDS
            # The pool is now terminally broken, loudly.
            with pytest.raises(WorkerLost, match="broken"):
                pool.scatter([[1]])
            pool.shutdown()
        finally:
            stub.close()


class _KilledWorkerCases:
    """A killed worker raises ``WorkerLost`` promptly and breaks the pool.

    Each subclass supplies :meth:`killable_pool`: a two-worker pool and
    a ``kill(index)`` that hard-kills that pool's worker ``index``.
    """

    def test_kill_before_exchange_raises_worker_lost(self):
        with self.killable_pool() as (pool, kill):
            pool.scatter([[1], [2]])
            kill(1)
            started = time.perf_counter()
            with pytest.raises(WorkerLost, match="lost"):
                pool.run_resident(copy.copy, [(), ()])
            assert time.perf_counter() - started < PROMPT_SECONDS
            # Dead peers leave the channel untrustworthy: permanently
            # broken, further use raises instead of mis-associating.
            with pytest.raises(WorkerLost, match="broken"):
                pool.run_resident(copy.copy, [(), ()])
            with pytest.raises(WorkerLost, match="broken"):
                pool.map(abs, [1, 2])

    def test_kill_mid_solve_raises_promptly(self):
        """Terminate a worker while its command is executing: the EOF
        must wake the exchange immediately — well before the command
        would have finished, and with no hang."""
        with self.killable_pool() as (pool, kill):
            pool.scatter([[1], [2]])
            killer = threading.Timer(0.3, kill, args=(0,))
            killer.start()
            started = time.perf_counter()
            try:
                with pytest.raises(WorkerLost, match="lost"):
                    pool.run_resident(_nap_echo, [(20.0,), (0.0,)])
            finally:
                killer.cancel()
            assert time.perf_counter() - started < PROMPT_SECONDS


class TestKilledWorker(_KilledWorkerCases):
    """``backend="socket"``: kill a ``LocalWorkerFleet`` server."""

    @contextlib.contextmanager
    def killable_pool(self):
        with LocalWorkerFleet(2) as fleet:
            with WorkerPool(backend="socket", workers=fleet.addresses) as pool:
                yield pool, fleet.kill

    def test_fresh_pool_recovers_with_surviving_and_new_workers(self):
        """The documented recovery path: a broken pool is replaced, and
        a fresh pool against live workers serves again."""
        with LocalWorkerFleet(2) as fleet:
            pool = WorkerPool(backend="socket", workers=fleet.addresses)
            pool.scatter([[1], [2]])
            fleet.kill(0)
            with pytest.raises(WorkerLost):
                pool.run_resident(copy.copy, [(), ()])
            pool.shutdown()
            with LocalWorkerFleet(1) as replacement:
                workers = (fleet.addresses[1], replacement.addresses[0])
                with WorkerPool(backend="socket", workers=workers) as fresh:
                    fresh.scatter([[5], [6]])
                    assert fresh.run_resident(copy.copy, [(), ()]) == [
                        [5], [6],
                    ]
