"""WorkerPool backends: ordered maps, resident state, terminal close."""

import copy
import threading
from functools import partial
from operator import truediv

import pytest

from repro.utils.executor import (
    BACKENDS,
    SocketBackend,
    ThreadBackend,
    WorkerPool,
    default_worker_count,
    validate_backend,
)
from repro.utils.transport import LocalWorkerFleet


class TestWorkerPoolThread:
    def test_map_preserves_input_order(self):
        with WorkerPool(max_workers=4) as pool:
            assert pool.map(lambda x: x * 2, list(range(20))) == [
                2 * x for x in range(20)
            ]

    def test_serial_fallback_spawns_no_threads(self):
        pool = WorkerPool(max_workers=1)
        thread_ids = set()

        def record(x):
            thread_ids.add(threading.get_ident())
            return x

        assert pool.map(record, [1, 2, 3]) == [1, 2, 3]
        assert thread_ids == {threading.get_ident()}
        assert not pool.active
        assert not pool.parallel

    def test_single_item_runs_serially(self):
        with WorkerPool(max_workers=4) as pool:
            pool.map(lambda x: x, [1])
            assert not pool.active  # threads never materialized

    def test_worker_exception_propagates(self):
        def explode(x):
            raise RuntimeError(f"boom {x}")

        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(explode, [1, 2])

    def test_parallel_actually_uses_pool_threads(self):
        thread_ids = set()
        barrier = threading.Barrier(2, timeout=5)

        def record(x):
            barrier.wait()  # forces two live workers
            thread_ids.add(threading.get_ident())
            return x

        with WorkerPool(max_workers=2) as pool:
            assert pool.map(record, [1, 2]) == [1, 2]
        assert len(thread_ids) == 2

    def test_map_after_shutdown_raises(self):
        pool = WorkerPool(max_workers=2)
        pool.map(lambda x: x, [1, 2])
        pool.shutdown()
        pool.shutdown()  # idempotent
        assert pool.closed
        # Closing is terminal: no silent pool resurrection.
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(lambda x: x + 1, [1, 2])
        with pytest.raises(RuntimeError, match="closed"):
            pool.scatter([1])
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_resident(copy.copy, [()])

    def test_map_after_close_raises_even_when_serial(self):
        pool = WorkerPool(max_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(lambda x: x, [1])

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(max_workers=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(backend="cluster")

    def test_socket_backend_requires_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(backend="socket")
        with pytest.raises(ValueError, match="worker"):
            WorkerPool(backend="socket", workers=[])

    @pytest.mark.parametrize(
        "value", [float("nan"), -1, 0, 0.0, float("inf"), "5", True]
    )
    @pytest.mark.parametrize("name", ["connect_timeout", "exchange_timeout"])
    def test_socket_timeouts_checked_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            WorkerPool(
                backend="socket", workers=["127.0.0.1:7500"], **{name: value}
            )

    @pytest.mark.parametrize("raw", ["soon", "nan", "-1", "0", "inf"])
    @pytest.mark.parametrize(
        "env",
        ["REPRO_SOCKET_CONNECT_TIMEOUT", "REPRO_SOCKET_EXCHANGE_TIMEOUT"],
    )
    def test_socket_timeout_env_checked_at_construction(
        self, monkeypatch, env, raw
    ):
        monkeypatch.setenv(env, raw)
        with pytest.raises(ValueError, match=env):
            WorkerPool(backend="socket", workers=["127.0.0.1:7500"])

    def test_socket_timeouts_resolve_from_env_and_arguments(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOCKET_CONNECT_TIMEOUT", "2.5")
        pool = WorkerPool(
            backend="socket", workers=["127.0.0.1:7500"], exchange_timeout=7
        )
        assert (pool.connect_timeout, pool.exchange_timeout) == (2.5, 7.0)

    def test_workers_rejected_without_socket_backend(self):
        with pytest.raises(ValueError, match="socket"):
            WorkerPool(backend="thread", workers=["127.0.0.1:7500"])

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1
        assert WorkerPool().max_workers == default_worker_count()

    def test_backend_registry(self):
        assert BACKENDS == ("serial", "thread", "socket")

    def test_removed_process_backend_refused_by_name(self):
        for check in (validate_backend, lambda b: WorkerPool(backend=b)):
            with pytest.raises(
                ValueError, match="backend='process' was removed.*'thread'"
            ):
                check("process")


@pytest.fixture(scope="module")
def worker_addresses():
    """Two in-process WorkerServers (threads) for socket-backend runs."""
    from repro.utils.transport import WorkerServer

    servers = [WorkerServer() for _ in range(2)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    yield tuple(server.address for server in servers)
    for server in servers:
        server.close()
    for thread in threads:
        thread.join(timeout=5)


@pytest.mark.parametrize("backend", ["serial", "thread", "socket"])
class TestResidentState:
    """The scatter/run_resident contract must hold on every backend.

    Commands use stdlib callables (``list.append``, ``copy.copy``) so
    they pickle by reference across the process boundary.
    """

    @pytest.fixture(autouse=True)
    def _socket_workers(self, request, backend):
        self.workers = (
            request.getfixturevalue("worker_addresses")
            if backend == "socket"
            else None
        )

    def make_pool(self, backend):
        return WorkerPool(max_workers=2, backend=backend, workers=self.workers)

    def test_states_are_resident_and_mutable(self, backend):
        with self.make_pool(backend) as pool:
            epoch = pool.scatter([[1], [2], [3]])
            assert epoch == 1
            assert pool.resident_count == 3
            # Mutations persist inside the epoch, wherever the state lives.
            assert pool.run_resident(
                list.append, [(10,), (20,), (30,)]
            ) == [None, None, None]
            assert pool.run_resident(copy.copy, [(), (), ()]) == [
                [1, 10], [2, 20], [3, 30],
            ]

    def test_payload_conversion_applies_across_process_boundary(self, backend):
        with self.make_pool(backend) as pool:
            pool.scatter([(1,), (2,)], to_payload=tuple, from_payload=list)
            states = pool.run_resident(copy.copy, [(), ()])
            if backend == "socket":
                # Rebuilt worker-side via from_payload.
                assert states == [[1], [2]]
            else:
                # In-process backends keep the items as-is.
                assert states == [(1,), (2,)]

    def test_rescatter_replaces_previous_epoch(self, backend):
        with self.make_pool(backend) as pool:
            pool.scatter([[1]])
            epoch = pool.scatter([[7], [8]])
            assert epoch == 2
            assert pool.resident_count == 2
            assert pool.run_resident(copy.copy, [(), ()]) == [[7], [8]]

    def test_unpicklable_argument_raises_without_desync(self, backend):
        """A send-side serialization failure must drain in-flight
        replies and leave the pool usable — never leave stale replies
        for the next exchange to mis-associate."""
        with self.make_pool(backend) as pool:
            pool.scatter([[1], [2]])
            if backend == "socket":
                # noqa'd: the failure type legitimately differs per
                # backend (pickling error vs transport error).
                with pytest.raises(Exception) as excinfo:  # noqa: B017
                    # Second state's argument cannot cross the boundary.
                    pool.run_resident(
                        list.append, [(10,), (lambda: None,)]
                    )
                assert not isinstance(excinfo.value, SystemExit)
                # The channel stayed in protocol sync: the next call
                # returns the right states for the right indices.
                states = pool.run_resident(copy.copy, [(), ()])
                assert states[0][0] == 1
                assert states[1] == [2]
            else:
                # In-process backends have no boundary; the call works.
                pool.run_resident(list.append, [(10,), (lambda: None,)])

    def test_run_resident_without_scatter_raises(self, backend):
        with self.make_pool(backend) as pool:
            with pytest.raises(RuntimeError, match="scatter"):
                pool.run_resident(copy.copy, [()])

    def test_argument_count_mismatch_raises(self, backend):
        with self.make_pool(backend) as pool:
            pool.scatter([[1], [2]])
            with pytest.raises(ValueError, match="argument tuples"):
                pool.run_resident(copy.copy, [()])


class TestSocketBackend:
    """Behaviour only the out-of-process backend has."""

    def test_map_runs_in_worker_processes(self):
        import os

        with LocalWorkerFleet(2) as fleet:
            with WorkerPool(backend="socket", workers=fleet.addresses) as pool:
                pids = pool.map(_worker_pid_probe, [0, 1, 2, 3])
        assert len(pids) == 4
        assert os.getpid() not in pids

    def test_map_ordered_and_picklable(self, worker_addresses):
        with WorkerPool(backend="socket", workers=worker_addresses) as pool:
            assert pool.map(abs, [-3, 1, -2, 0, 5]) == [3, 1, 2, 0, 5]

    def test_worker_exception_propagates_with_traceback_context(
        self, worker_addresses
    ):
        with WorkerPool(backend="socket", workers=worker_addresses) as pool:
            with pytest.raises(ZeroDivisionError) as excinfo:
                pool.map(partial(truediv, 1), [1, 0])
        assert "worker traceback" in str(excinfo.value.__cause__)

    def test_resident_error_keeps_pool_usable(self, worker_addresses):
        with WorkerPool(backend="socket", workers=worker_addresses) as pool:
            pool.scatter([[1], [2]])
            with pytest.raises(TypeError):
                # list.append with no argument is a TypeError in-worker.
                pool.run_resident(list.append, [(), ()])
            # The exchange protocol drained every reply, so the channel
            # is still in sync for further commands.
            assert pool.run_resident(copy.copy, [(), ()]) == [[1], [2]]

    def test_shutdown_closes_connections(self, worker_addresses):
        pool = WorkerPool(backend="socket", workers=worker_addresses)
        pool.scatter([[1], [2]])
        backend = pool._impl
        assert isinstance(backend, SocketBackend)
        conns = list(backend._conns)
        assert len(conns) == 2 and pool.active
        pool.shutdown()
        assert not backend.active
        assert all(conn.fileno() == -1 for conn in conns)
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(abs, [1, 2])

    def test_single_worker_still_resident(self, worker_addresses):
        with WorkerPool(backend="socket", workers=worker_addresses[:1]) as pool:
            pool.scatter([[5]])
            pool.run_resident(list.append, [(6,)])
            assert pool.run_resident(copy.copy, [()]) == [[5, 6]]


class TestBackendSelection:
    def test_thread_facade_picks_impls(self):
        # One in-process backend: "serial" and a one-worker "thread" pool
        # are its one-worker case and never create an executor.
        serial = WorkerPool(max_workers=1, backend="thread")
        serial.map(lambda x: x, [1, 2])
        serial.scatter([[1], [2]])
        serial.run_resident(list.append, [(3,), (4,)])
        assert isinstance(serial._impl, ThreadBackend)
        assert serial._impl.max_workers == 1
        assert not serial.active
        explicit = WorkerPool(max_workers=4, backend="serial")
        explicit.scatter([[1], [2]])
        explicit.run_resident(list.append, [(3,), (4,)])
        assert isinstance(explicit._impl, ThreadBackend)
        assert explicit._impl.max_workers == 1
        assert not explicit.parallel
        assert not explicit.active
        threaded = WorkerPool(max_workers=4, backend="thread")
        threaded.scatter([[1], [2]])
        threaded.run_resident(list.append, [(3,), (4,)])
        assert isinstance(threaded._impl, ThreadBackend)
        assert threaded._impl.max_workers == 4
        assert threaded.active
        threaded.shutdown()

    def test_epoch_starts_at_zero(self):
        pool = WorkerPool(max_workers=1)
        assert pool.epoch == 0
        assert pool.resident_count == 0


def _worker_pid_probe(_item):
    import os

    return os.getpid()


class TestLifecycleHardening:
    @pytest.mark.parametrize("backend", ["serial", "thread", "socket"])
    def test_discard_resident_releases_states(
        self, backend, request
    ):
        workers = (
            request.getfixturevalue("worker_addresses")
            if backend == "socket"
            else None
        )
        with WorkerPool(max_workers=2, backend=backend, workers=workers) as pool:
            pool.scatter([[1], [2]])
            pool.discard_resident()
            assert pool.resident_count == 0
            with pytest.raises(RuntimeError, match="scatter"):
                pool.run_resident(copy.copy, [(), ()])
            # A fresh scatter works as usual afterwards.
            pool.scatter([[9]])
            assert pool.run_resident(copy.copy, [()]) == [[9]]

    def test_discard_resident_noop_when_unused_or_closed(self):
        pool = WorkerPool(max_workers=2)
        pool.discard_resident()  # never used: no-op
        pool.shutdown()
        pool.discard_resident()  # closed: no-op, no raise

    def test_scatter_shrink_discards_uncovered_workers(self, worker_addresses):
        with WorkerPool(backend="socket", workers=worker_addresses) as pool:
            pool.scatter([[1], [2], [3], [4]])  # both workers hold states
            pool.scatter([[7]])  # only worker 0 covered now
            backend = pool._impl
            # Worker 1 must have been told to drop epoch-1 states: a
            # direct probe command against it would now be stale.
            assert backend._placement == [0]
            assert pool.run_resident(copy.copy, [()]) == [[7]]
            stale = ("run", 1, 1, copy.copy, ())
            with pytest.raises(RuntimeError, match="stale resident state"):
                backend._exchange([(0, 1, stale)])

    def test_prestart_connects_workers_eagerly(self, worker_addresses):
        with WorkerPool(backend="socket", workers=worker_addresses) as pool:
            assert not pool.active
            pool.prestart()
            assert pool.active
            assert len(pool._impl._conns) == 2
            # And the connected workers serve as usual.
            assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
