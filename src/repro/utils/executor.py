"""Pluggable execution backends for shard-parallel work.

The sharded solver and the serving layer fan identical work items
(per-shard sweep passes, classify micro-batches) across a pool and need
the results back *in input order* so that reductions stay deterministic
no matter how the OS schedules the workers.  :class:`WorkerPool` wraps
that ordered-map contract around three interchangeable backends:

- ``"serial"`` — a plain loop on the calling thread.  Allocates
  nothing, so a 1-shard solver pays nothing for the abstraction.
- ``"thread"`` (default) — :class:`concurrent.futures.
  ThreadPoolExecutor`.  The hot per-shard work is sparse·dense and
  dense matrix products, and both scipy's sparsetools and numpy's BLAS
  release the GIL, so shards genuinely overlap on a multi-core machine
  while sharing the factor arrays zero-copy.  Both in-process backends
  are one :class:`ThreadBackend`: ``"serial"`` is its one-worker case,
  which never creates an executor.
- ``"socket"`` — worker *processes* reached over TCP, **on any host**:
  ``WorkerPool(backend="socket", workers=["host:port", ...])`` talks to
  ``python -m repro worker --listen HOST:PORT`` servers, with connect
  and exchange timeouts on top.  Because nothing is shared, the
  backend adds a **worker-resident state** protocol on top of the
  stateless ``map``: :meth:`WorkerPool.scatter` ships each work item's
  state to its worker exactly once (keyed by a monotonically
  increasing *epoch*), and :meth:`WorkerPool.run_resident` then runs
  picklable commands against the pinned states, so per-call traffic is
  the command's arguments and return value — for the sharded solver,
  the global ``Sf`` step down and an ``l×k`` contribution back — never
  the shard blocks.  A lost worker raises
  :class:`~repro.utils.transport.WorkerLost`, never a hang.

Worker processes on the same host are ``"socket"`` workers on
localhost (:class:`~repro.utils.transport.LocalWorkerFleet` in tests
and benches).  The removed forked-worker backend, ``"process"``, is
refused by name; configs and checkpoints that record it load as
``"thread"`` (the same bits).

``scatter``/``run_resident`` are implemented by every backend (the
in-process ones simply keep the states in a list), so callers write one
code path and switch backends by constructor argument.

Beside the per-item resident states, the pool carries **version-keyed
shared residents** (:meth:`WorkerPool.share` /
:meth:`WorkerPool.share_update` / :class:`SharedRef`): a value every
worker needs — the sharded solver's global ``Sf`` — is broadcast once,
then *stepped* by shipping only the update function and its (small)
arguments; each side recomputes the identical new value locally, so
per-sweep traffic drops from the full ``n×k`` factor to the ``l×k``
contribution that feeds the step.  A :class:`PoolTelemetry` counter set
on every pool (``pool.telemetry``) measures exactly this: exchange
rounds, commands, bytes up/down, serialize/wait time.

All floating-point work is identical across backends: commands are the
same functions either way, per-index results are collected into input
order, and reductions run on the caller — so solver trajectories are
bit-for-bit equal under ``"serial"``, ``"thread"`` and ``"socket"``
(regression-tested).

A pool that has been :meth:`shutdown` (or ``close``-d) is terminal:
further ``map``/``scatter``/``run_resident`` calls raise
:class:`RuntimeError` instead of silently resurrecting threads or
reconnecting workers behind a caller that believed the resources were
released.
"""

from __future__ import annotations

import math
import os
import selectors
import time
import traceback
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.utils.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_EXCHANGE_TIMEOUT,
    FrameError,
    PayloadDecodeError,
    SocketConnection,
    WorkerLost,
)

T = TypeVar("T")
R = TypeVar("R")

#: Registry of named execution backends (``WorkerPool(backend=...)``).
BACKENDS = ("serial", "thread", "socket")


def validate_backend(backend: str) -> str:
    """Return ``backend`` if it names a registered execution backend.

    The single eager check every layer that accepts a ``backend=``
    string funnels through (engine config, solvers, the pool itself),
    so a typo fails at configuration time with the valid choices listed
    instead of deep inside a solve.
    """
    if backend == "process":
        raise ValueError(
            "backend='process' was removed: it was slower than 'thread' "
            "and computed the same bits; use 'thread', or 'socket' for "
            "worker processes"
        )
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; valid choices: "
            + ", ".join(repr(name) for name in BACKENDS)
        )
    return backend


def _socket_timeout(name: str, value, env: str, default: float) -> float:
    """Seconds for one socket timeout: ``value``, else ``$env``, else ``default``.

    Must be a finite number > 0 (zero would turn every reply wait into
    a poll); anything else raises a ``ValueError`` naming the parameter
    or, for an env value, the variable.
    """
    if value is None:
        raw = os.environ.get(env)
        if raw is None:
            return default
        name = env
        try:
            value = float(raw)
        except ValueError:
            value = raw
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"{name} must be a finite number of seconds > 0, got {value!r}"
        )
    return float(value)


def default_worker_count() -> int:
    """CPU count visible to this process (affinity-aware when possible)."""
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(os.cpu_count() or 1, 1)


@dataclass
class PoolTelemetry:
    """Coordination-cost counters for one :class:`WorkerPool`.

    Monotonic over the pool's lifetime; callers that want per-solve
    numbers take a :meth:`snapshot` before and a :meth:`delta` after.
    ``rounds``/``commands`` count exchanges uniformly across *all*
    backends (the in-process ones included), so expected-round
    assertions written against the thread backend hold verbatim for
    socket pools; ``bytes_*``/``send_seconds`` are filled
    in by the boundary-crossing channels and stay zero in-process.
    """

    #: Exchange rounds (one scatter / run_resident / map / discard each).
    rounds: int = 0
    #: Individual commands across all rounds (one per shard per round).
    commands: int = 0
    #: ``share()`` broadcasts staged (full-value sends).
    shared_sets: int = 0
    #: ``share_update()`` steps staged (value recomputed worker-side).
    shared_updates: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Cut-edge halo redistributions (one per sweep exchange whose
    #: replies published boundary ``Su`` rows).  The halo rides fused
    #: exchanges as command arguments, so it never adds ``rounds``.
    halo_updates: int = 0
    #: Halo payload bytes moved: ghost-row slices delivered with
    #: commands plus boundary rows returned in replies — O(cut-edges×k)
    #: per sweep, counted on every backend (it is a subset of
    #: ``bytes_*`` only on the boundary-crossing ones).
    halo_bytes: int = 0
    #: Seconds spent serializing + writing outbound frames.
    send_seconds: float = 0.0
    #: Seconds the exchange spent blocked waiting for worker replies.
    wait_seconds: float = 0.0
    #: Wall seconds inside exchange rounds end to end (in-process
    #: backends: the commands' own compute time).
    exchange_seconds: float = 0.0

    def snapshot(self) -> dict:
        return dict(vars(self))  # flat numeric fields: asdict minus deepcopy

    def delta(self, before: dict) -> dict:
        """Counter movement since a prior :meth:`snapshot`."""
        now = self.snapshot()
        return {
            key: round(value - before.get(key, 0), 6)
            if isinstance(value, float)
            else value - before.get(key, 0)
            for key, value in now.items()
        }


@dataclass(frozen=True)
class SharedRef:
    """Placeholder for a shared resident's value in command arguments.

    Crossing the boundary as a tiny token, it is resolved against the
    receiving side's shared store (worker store for socket, the pool's
    own mirror for serial/thread) just before the command
    or update function runs — the mechanism that lets a converging
    sweep send a version-checked ``l×k`` contribution instead of
    re-broadcasting the full ``Sf`` every round.
    """

    name: str


def _resolve_shared_args(shared: dict, args: tuple) -> tuple:
    """Swap :class:`SharedRef` tokens for their current shared values."""
    if SharedRef not in map(type, args):  # the per-exchange common case
        return args
    resolved = []
    for arg in args:
        if isinstance(arg, SharedRef):
            entry = shared.get(arg.name)
            if entry is None:
                raise RuntimeError(
                    f"unknown shared resident {arg.name!r}; call "
                    "share() before referencing it"
                )
            resolved.append(entry[1])
        else:
            resolved.append(arg)
    return tuple(resolved)


def _apply_shared_op(shared: dict, op: tuple) -> None:
    """Apply one staged shared-resident op to a ``name → (version,
    value)`` store.

    ``("set", name, version, value)`` installs a broadcast value;
    ``("update", name, version, fn, args)`` recomputes the value
    locally — strictly ordered by version, so a skipped or replayed
    op fails loudly instead of silently diverging from the
    coordinator's mirror.
    """
    kind, name, version = op[0], op[1], op[2]
    if kind == "set":
        shared[name] = (version, op[3])
        return
    current = shared.get(name)
    held = None if current is None else current[0]
    if held != version - 1:
        raise RuntimeError(
            f"stale shared resident {name!r}: holder has version "
            f"{held}, update expects {version - 1}"
        )
    fn, args = op[3], op[4]
    shared[name] = (version, fn(current[1], *_resolve_shared_args(shared, args)))


# --------------------------------------------------------------------- #
# In-process backend (serial and thread)
# --------------------------------------------------------------------- #


class ThreadBackend:
    """Ordered map on the calling thread or a lazy :class:`ThreadPoolExecutor`.

    The executor is created only when ``max_workers > 1`` and a call has
    more than one item; otherwise items run inline, so the serial
    backend (``max_workers=1``) allocates nothing.  Resident states are
    kept in-process (threads share memory), so ``scatter`` is free and
    ``run_resident`` fans the command calls out exactly like ``map``.
    """

    remote = False

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._states: list[Any] = []

    @property
    def active(self) -> bool:
        return self._executor is not None

    @property
    def resident_count(self) -> int:
        return len(self._states)

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-worker",
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if len(items) <= 1 or self.max_workers <= 1:
            return [fn(item) for item in items]
        return list(self._pool().map(fn, items))

    def scatter(self, items, to_payload, from_payload, epoch) -> None:
        del to_payload, from_payload, epoch  # states stay in-process
        self._states = list(items)

    def run_resident(self, fn, per_state_args) -> list:
        pairs = list(zip(self._states, per_state_args))
        return self.map(lambda pair: fn(pair[0], *pair[1]), pairs)

    def prestart(self) -> None:
        pass

    def discard_resident(self) -> None:
        self._states = []

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._states = []


# --------------------------------------------------------------------- #
# Socket backend
# --------------------------------------------------------------------- #


def _worker_loop(conn) -> None:
    """Worker loop: install resident states, run commands against them.

    Serves one client session of a
    :class:`~repro.utils.transport.WorkerServer`.  The connection is a
    strict request→response channel — every command gets exactly one
    reply, so the client can always re-associate replies with commands
    by arrival order.  Resident states are keyed by ``(epoch, index)``;
    an install under a new epoch drops every older state, and a ``run``
    against a stale epoch is an error (the client re-scatters instead of
    trusting leftovers).
    """
    resident: dict[int, Any] = {}
    shared: dict[str, tuple[int, Any]] = {}
    epoch: int | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        except Exception as exc:
            # The message arrived whole but does not decode on this end
            # (PayloadDecodeError) — classic version skew, the client
            # sent a command this build does not define.  The channel
            # itself is still in sync, so name the cause in an error
            # reply instead of dying silently.
            detail = traceback.format_exc()
            try:
                conn.send(
                    (
                        "error",
                        RuntimeError(
                            f"command does not deserialize on the worker "
                            f"({exc!r}); are client and worker running "
                            "the same build?"
                        ),
                        detail,
                    )
                )
                continue
            except Exception:
                break
        kind = message[0]
        if kind == "shutdown":
            break
        try:
            if kind == "install":
                _, new_epoch, index, from_payload, payload = message
                if new_epoch != epoch:
                    resident.clear()
                    shared.clear()
                    epoch = new_epoch
                resident[index] = (
                    payload if from_payload is None else from_payload(payload)
                )
                reply = ("ok", None)
            elif kind == "run":
                _, run_epoch, index, fn, args, shared_ops = message
                if run_epoch != epoch or index not in resident:
                    raise RuntimeError(
                        f"stale resident state: worker holds epoch {epoch}, "
                        f"command expects epoch {run_epoch} item {index}"
                    )
                # Piggybacked shared-resident ops apply before the
                # command, in staging order, so SharedRef arguments
                # resolve against the coordinator's current versions.
                for op in shared_ops:
                    _apply_shared_op(shared, op)
                reply = (
                    "ok",
                    fn(resident[index], *_resolve_shared_args(shared, args)),
                )
            elif kind == "map":
                _, fn, item = message
                reply = ("ok", fn(item))
            elif kind == "discard":
                _, new_epoch = message
                resident.clear()
                shared.clear()
                epoch = new_epoch
                reply = ("ok", None)
            else:
                raise RuntimeError(f"unknown worker command {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - forwarded to client
            detail = traceback.format_exc()
            try:
                reply = ("error", exc, detail)
                conn.send(reply)
                continue
            except Exception:
                reply = ("error", RuntimeError(repr(exc)), detail)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


class SocketBackend:
    """Worker processes over TCP with pinned per-item state.

    One :class:`~repro.utils.transport.SocketConnection` per configured
    ``host:port`` (a ``python -m repro worker`` server), connected on
    first use and kept until ``shutdown``.  Everything the pool needs
    lives here: the resident-state bookkeeping (round-robin placement
    keyed by the scatter epoch), the readiness wait, the lost-worker
    errors, and the **one-in-flight exchange**: each worker is sent its
    commands strictly one at a time — the next command only after the
    previous reply — while all workers are waited on concurrently.  One
    message per direction per worker means the channel can never fill
    both directions at once, so the exchange is deadlock-free for
    arbitrarily large payloads.

    Failures surface eagerly instead of hanging:

    - a worker that cannot be connected (or sends no valid hello)
      raises :class:`~repro.utils.transport.WorkerConnectError` within
      ``connect_timeout``;
    - a worker that dies or breaks protocol raises
      :class:`~repro.utils.transport.WorkerLost` (EOF from a killed
      peer wakes the wait immediately), and ``exchange_timeout`` bounds
      a silent hang.  Either way the pool is permanently broken — the
      lost worker's resident state is gone.

    The addresses and both timeouts arrive checked by
    :class:`WorkerPool`.  Functions crossing the boundary (commands,
    ``from_payload``) must be picklable, i.e. module-level.

    Shared-resident ops staged via :meth:`stage_shared_op` piggyback on
    the next ``run`` command each worker receives: a per-slot cursor
    tracks how far into the op log each worker has been brought, the
    cursor advances only after a successful send (a pre-write
    serialization failure rolls nothing forward), and the log prefix
    every covered slot has received is compacted away after each
    resident round.
    """

    #: Whether commands cross a process/host boundary (SharedRef
    #: arguments then resolve on the worker; in-process pools resolve
    #: them from the coordinator mirror instead).
    remote = True

    def __init__(
        self,
        workers: Sequence[str],
        connect_timeout: float,
        exchange_timeout: float,
        telemetry: PoolTelemetry,
    ) -> None:
        self.addresses = tuple(workers)
        self.connect_timeout = connect_timeout
        self.exchange_timeout = exchange_timeout
        self._conns: list[SocketConnection] = []
        self._selector: selectors.BaseSelector | None = None
        self._registered: set[SocketConnection] = set()
        self._placement: list[int] = []
        self._epoch: int | None = None
        self._broken = False
        self._telemetry = telemetry
        self._shared_ops: list[tuple] = []
        self._op_cursor: dict[int, int] = {}
        self._op_base = 0

    @property
    def active(self) -> bool:
        return bool(self._conns)

    @property
    def resident_count(self) -> int:
        return len(self._placement)

    # -- shared-resident op log ----------------------------------------- #

    def stage_shared_op(self, op: tuple) -> None:
        self._shared_ops.append(op)

    def _pending_ops(self, slot: int) -> tuple:
        cursor = max(self._op_cursor.get(slot, 0), self._op_base)
        return tuple(self._shared_ops[cursor - self._op_base :])

    def _reset_shared_ops(self) -> None:
        self._shared_ops = []
        self._op_cursor = {}
        self._op_base = 0

    def _compact_shared_ops(self) -> None:
        """Drop the log prefix every covered worker has received.

        Slots outside the current placement never receive ``run``
        commands this epoch (and their shared stores are cleared on
        the next epoch change), so only covered slots gate compaction
        — otherwise an idle worker would pin one ``l×k`` op per sweep
        for the whole solve.
        """
        if not self._shared_ops or not self._placement:
            return
        low = min(
            max(self._op_cursor.get(slot, 0), self._op_base)
            for slot in set(self._placement)
        )
        if low > self._op_base:
            del self._shared_ops[: low - self._op_base]
            self._op_base = low

    # -- transport ------------------------------------------------------ #

    def _connect(self) -> None:
        """Connect to every configured worker, once per backend."""
        if self._conns:
            return
        from repro.utils.transport import connect_worker

        conns = []
        try:
            for address in self.addresses:
                conn = connect_worker(address, timeout=self.connect_timeout)
                # Per-chunk receive deadline: _wait() covers the idle
                # wait for a reply, this covers a peer that goes silent
                # halfway through a frame.
                conn.settimeout(self.exchange_timeout)
                conn.telemetry = self._telemetry
                conns.append(conn)
        except BaseException:
            for conn in conns:
                conn.close()
            raise
        self._conns = conns

    def _wait(self, connections: list) -> list:
        """Connections with a readable reply, within the exchange deadline."""
        # One long-lived selector, synced by delta: the exchange calls
        # _wait once per reply wakeup, and the in-flight set changes by
        # one or two connections each time — re-registering everything
        # (or rebuilding the selector) per wakeup would put avoidable
        # syscalls on the per-sweep hot path.
        if self._selector is None:
            self._selector = selectors.DefaultSelector()
        current = set(connections)
        for conn in self._registered - current:
            self._selector.unregister(conn)
        for conn in current - self._registered:
            self._selector.register(conn, selectors.EVENT_READ)
        self._registered = current
        ready = self._selector.select(self.exchange_timeout)
        if not ready:
            self._broken = True
            pending = ", ".join(
                self.addresses[self._conns.index(conn)] for conn in connections
            )
            raise WorkerLost(
                f"no reply from worker(s) {pending} within "
                f"{self.exchange_timeout}s; the pool is now broken — "
                "create a new pool"
            )
        return [key.fileobj for key, _ in ready]

    def _lost(self, slot: int, index: int, exc: Exception) -> WorkerLost:
        """Error for a worker lost around ``index`` (pool now broken)."""
        self._broken = True
        return WorkerLost(
            f"worker {self.addresses[slot]} lost around item {index} "
            f"({exc!r}); the pool is now broken — create a new pool"
        )

    def _broken_error(self) -> WorkerLost:
        return WorkerLost(
            "a worker was lost earlier; this pool is broken — "
            "create a new pool"
        )

    # -- exchange protocol --------------------------------------------- #

    def _exchange(self, commands: Sequence[tuple[int, int, tuple]]) -> list:
        """Run ``(result_index, worker_slot, message)`` commands.

        Sends each worker its commands one at a time, waits on all
        workers concurrently, and returns replies ordered by
        ``result_index``.  The first *worker-side* error (lowest result
        index) is raised after every outstanding reply has been drained,
        so the channel stays in protocol sync for the caller's next
        call.  A *transport* failure (dead peer, timeout, malformed
        frame) leaves replies of unknown provenance in the other
        channels; draining cannot restore protocol sync, so the pool is
        marked permanently broken rather than risking silently
        mis-associated results on a later call.
        """
        if self._broken:
            raise self._broken_error()
        queues: dict[int, deque] = {}
        for index, slot, message in commands:
            queues.setdefault(slot, deque()).append((index, message))

        results: list[Any] = [None] * len(commands)
        errors: list[tuple[int, BaseException, str]] = []
        in_flight: dict[Any, tuple[int, int]] = {}  # conn -> (slot, index)

        def send_next(slot: int) -> None:
            if errors or not queues.get(slot):
                return
            index, message = queues[slot].popleft()
            conn = self._conns[slot]
            next_cursor = None
            if message[0] == "run":
                # Piggyback the shared-resident ops this worker has not
                # yet seen; its cursor advances only if the send lands.
                message = message + (self._pending_ops(slot),)
                next_cursor = self._op_base + len(self._shared_ops)
            try:
                conn.send(message)
            except FrameError as exc:
                # Client-side frame-ceiling rejection: raised before a
                # single byte was written, so the channel is intact —
                # defer-and-drain below, do not break the pool.  (Must
                # precede the OSError clause: FrameError ⊂ OSError.)
                errors.append((index, exc, traceback.format_exc()))
                return
            except (BrokenPipeError, OSError) as exc:
                raise self._lost(slot, index, exc) from exc
            except Exception as exc:
                # A serialization failure (unpicklable command argument)
                # writes nothing, so the channel itself stays in sync —
                # but other workers may hold in-flight commands.  Defer
                # exactly like a worker-side error: stop sending, drain
                # every outstanding reply, then raise.  Raising here
                # instead would leave those replies queued for the
                # *next* exchange to mis-associate.
                errors.append((index, exc, traceback.format_exc()))
                return
            if next_cursor is not None:
                self._op_cursor[slot] = next_cursor
            in_flight[conn] = (slot, index)

        for slot in list(queues):
            send_next(slot)
        while in_flight:
            wait_started = time.perf_counter()
            ready = self._wait(list(in_flight))
            self._telemetry.wait_seconds += time.perf_counter() - wait_started
            for conn in ready:
                slot, index = in_flight.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError, PayloadDecodeError) as exc:
                    raise self._lost(slot, index, exc) from exc
                if reply[0] == "ok":
                    results[index] = reply[1]
                else:
                    errors.append((index, reply[1], reply[2]))
                send_next(slot)
        if errors:
            errors.sort(key=lambda entry: entry[0])
            _, exc, detail = errors[0]
            raise exc from RuntimeError(f"worker traceback:\n{detail}")
        return results

    # -- backend contract ---------------------------------------------- #

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        self._connect()
        workers = len(self._conns)
        return self._exchange(
            [
                (index, index % workers, ("map", fn, item))
                for index, item in enumerate(items)
            ]
        )

    def scatter(self, items, to_payload, from_payload, epoch) -> None:
        self._connect()
        workers = len(self._conns)
        self._placement = [index % workers for index in range(len(items))]
        self._epoch = epoch
        # Workers clear their shared stores on the epoch change, so the
        # op log restarts empty alongside them.
        self._reset_shared_ops()
        commands = [
            (
                index,
                self._placement[index],
                (
                    "install",
                    epoch,
                    index,
                    from_payload,
                    item if to_payload is None else to_payload(item),
                ),
            )
            for index, item in enumerate(items)
        ]
        # Workers outside the new placement (the shard count shrank)
        # would otherwise retain the previous epoch's states forever —
        # the epoch check already prevents *use*, this prevents the
        # memory retention.
        covered = set(self._placement)
        for slot in range(workers):
            if slot not in covered:
                commands.append((len(commands), slot, ("discard", epoch)))
        self._exchange(commands)

    def run_resident(self, fn, per_state_args) -> list:
        results = self._exchange(
            [
                (index, self._placement[index], ("run", self._epoch, index, fn, tuple(args)))
                for index, args in enumerate(per_state_args)
            ]
        )
        self._compact_shared_ops()
        return results

    def discard_resident(self) -> None:
        if self._placement and not self._broken:
            self._exchange(
                [
                    (slot, slot, ("discard", self._epoch))
                    for slot in range(len(self._conns))
                ]
            )
        self._placement = []
        self._reset_shared_ops()

    def prestart(self) -> None:
        self._connect()

    def shutdown(self) -> None:
        if self._selector is not None:
            self._selector.close()
            self._selector = None
            self._registered = set()
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except OSError:
                pass
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._placement = []
        self._epoch = None


# --------------------------------------------------------------------- #
# Facade
# --------------------------------------------------------------------- #


class WorkerPool:
    """Ordered ``map`` plus worker-resident state over a chosen backend.

    Parameters
    ----------
    max_workers:
        Worker bound.  ``None`` uses the machine's CPU count; ``1``
        runs the thread backend serially on the calling thread (no
        threads are created).  Values below 1 are rejected.  Ignored by
        the socket backend, whose width is ``len(workers)``.
    backend:
        ``"serial"``, ``"thread"`` (default) or ``"socket"`` — see the
        module docstring for the trade-offs.
        All backends produce bit-identical results for the same
        commands.
    workers:
        ``backend="socket"`` only: the ``["host:port", ...]`` addresses
        of running ``python -m repro worker`` servers (validated
        eagerly; at least one required).
    connect_timeout / exchange_timeout:
        ``backend="socket"`` only: seconds before a connect attempt /
        a reply wait gives up.  ``None`` reads
        ``REPRO_SOCKET_CONNECT_TIMEOUT`` / ``REPRO_SOCKET_EXCHANGE_TIMEOUT``,
        else the defaults of :mod:`repro.utils.transport`.  Resolved and
        checked here (a finite number > 0, else ``ValueError``), so a
        bad value fails when the pool is built, not at the first
        connect.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        backend: str = "thread",
        workers: Sequence[str] | None = None,
        connect_timeout: float | None = None,
        exchange_timeout: float | None = None,
    ) -> None:
        validate_backend(backend)
        if backend == "socket":
            from repro.utils.transport import validate_workers

            workers = validate_workers(workers)
            connect_timeout = _socket_timeout(
                "connect_timeout", connect_timeout,
                "REPRO_SOCKET_CONNECT_TIMEOUT", DEFAULT_CONNECT_TIMEOUT,
            )
            exchange_timeout = _socket_timeout(
                "exchange_timeout", exchange_timeout,
                "REPRO_SOCKET_EXCHANGE_TIMEOUT", DEFAULT_EXCHANGE_TIMEOUT,
            )
        elif workers is not None:
            raise ValueError(
                "workers= is only meaningful with backend='socket' "
                f"(got backend={backend!r})"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.backend = backend
        self.workers = workers
        self.connect_timeout = connect_timeout
        self.exchange_timeout = exchange_timeout
        if backend == "socket":
            self.max_workers = len(workers)
        else:
            self.max_workers = (
                default_worker_count() if max_workers is None else max_workers
            )
        self._impl: ThreadBackend | SocketBackend | None = None
        self._closed = False
        self._epoch = 0
        #: Lifetime coordination counters (see :class:`PoolTelemetry`).
        self.telemetry = PoolTelemetry()
        #: Coordinator mirror of the shared residents: name →
        #: (version, value).  Updates are computed here with the same
        #: function and arguments the workers run, so mirror and
        #: workers stay bitwise identical.
        self._shared: dict[str, tuple[int, Any]] = {}

    # -- introspection -------------------------------------------------- #

    @property
    def parallel(self) -> bool:
        """Whether this pool can actually overlap work."""
        return self.backend != "serial" and self.max_workers > 1

    @property
    def remote(self) -> bool:
        """Whether resident states live outside this process.

        ``True`` for the socket backend, whose commands,
        states and shared-resident ops cross a pickle boundary (so they
        must carry names, not live objects); ``False`` in-process.
        """
        return self._backend_impl().remote

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def active(self) -> bool:
        """Whether backend resources (threads/connections) are live."""
        return self._impl is not None and self._impl.active

    @property
    def epoch(self) -> int:
        """Epoch of the most recent :meth:`scatter` (0 = none yet)."""
        return self._epoch

    @property
    def resident_count(self) -> int:
        """Number of states pinned by the most recent :meth:`scatter`."""
        return 0 if self._impl is None else self._impl.resident_count

    # -- backend selection ---------------------------------------------- #

    def _backend_impl(self):
        self._require_open()
        if self._impl is None:
            if self.backend == "socket":
                self._impl = SocketBackend(
                    self.workers,
                    self.connect_timeout,
                    self.exchange_timeout,
                    self.telemetry,
                )
            else:
                self._impl = ThreadBackend(
                    self.max_workers if self.backend == "thread" else 1
                )
        return self._impl

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "WorkerPool is closed; create a new pool instead of "
                "reusing one that was shut down"
            )

    # -- work ------------------------------------------------------------ #

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; results come back in input order.

        A worker exception propagates to the caller (remaining items may
        or may not have run — the pool is not transactional).  Under the
        socket backend ``fn`` and the items must be picklable; a
        single-item call runs inline on the caller either way.
        """
        self.telemetry.rounds += 1
        self.telemetry.commands += len(items)
        if not self.parallel or len(items) <= 1:
            self._require_open()
            return [fn(item) for item in items]
        started = time.perf_counter()
        try:
            return self._backend_impl().map(fn, items)
        finally:
            self.telemetry.exchange_seconds += time.perf_counter() - started

    def scatter(
        self,
        items: Sequence[Any],
        to_payload: Callable[[Any], Any] | None = None,
        from_payload: Callable[[Any], Any] | None = None,
    ) -> int:
        """Pin one state per item to the workers; returns the new epoch.

        In-process backends keep ``items`` as-is.  The socket backend
        ships ``to_payload(item)`` (default: the item itself) across the
        boundary once and rebuilds the resident state there via
        ``from_payload`` — both must be picklable module-level
        functions.  A new scatter replaces every state of
        the previous epoch.
        """
        impl = self._backend_impl()
        self._epoch += 1
        self._shared.clear()
        self.telemetry.rounds += 1
        self.telemetry.commands += len(items)
        started = time.perf_counter()
        try:
            impl.scatter(list(items), to_payload, from_payload, self._epoch)
        finally:
            self.telemetry.exchange_seconds += time.perf_counter() - started
        return self._epoch

    def run_resident(
        self, fn: Callable[..., R], per_state_args: Sequence[tuple]
    ) -> list[R]:
        """``fn(state, *per_state_args[i])`` per resident state, in order.

        The command runs where the state lives (caller's process for
        serial/thread, the owning worker otherwise), so only the
        arguments and return values cross any boundary.  States are
        mutable: a command may update its state in place and the change
        persists for subsequent commands in the same epoch.
        """
        impl = self._backend_impl()
        if impl.resident_count == 0:
            raise RuntimeError(
                "no resident state; call scatter() before run_resident()"
            )
        if len(per_state_args) != impl.resident_count:
            raise ValueError(
                f"expected {impl.resident_count} argument tuples "
                f"(one per resident state), got {len(per_state_args)}"
            )
        if not impl.remote and self._shared:
            # In-process, the pool mirror *is* the shared store:
            # resolve SharedRef arguments here, against the exact
            # values the exchange backends recompute worker-side.
            per_state_args = [
                _resolve_shared_args(self._shared, tuple(args))
                for args in per_state_args
            ]
        self.telemetry.rounds += 1
        self.telemetry.commands += len(per_state_args)
        started = time.perf_counter()
        try:
            return impl.run_resident(fn, per_state_args)
        finally:
            self.telemetry.exchange_seconds += time.perf_counter() - started

    # -- shared residents ------------------------------------------------ #

    def share(self, name: str, value: Any) -> int:
        """Broadcast a version-keyed shared resident; returns the version.

        The value is held in the coordinator's mirror immediately and
        shipped to each remote worker piggybacked on its next resident
        command — one full-value send per :meth:`share` call, after
        which :meth:`share_update` keeps every copy current without
        ever re-broadcasting the value.  Shared residents live within
        the current scatter epoch: the next :meth:`scatter` (or
        :meth:`discard_resident`) clears them everywhere.
        """
        self._require_open()
        version = self._shared.get(name, (0, None))[0] + 1
        self._shared[name] = (version, value)
        self.telemetry.shared_sets += 1
        impl = self._backend_impl()
        if impl.remote:
            impl.stage_shared_op(("set", name, version, value))
        return version

    def share_update(self, name: str, fn: Callable, *args: Any) -> int:
        """Step a shared resident to ``fn(current, *args)``; returns the
        new version.

        ``fn`` must be a picklable module-level function, and
        deterministic: the coordinator applies it to its mirror right
        away, and each remote worker applies the *same* call to its
        own copy (strictly version-ordered) when the op reaches it —
        identical code path on identical inputs, so every copy stays
        bitwise equal without the value crossing the wire.  ``args``
        may contain :class:`SharedRef` tokens (see :meth:`shared_ref`),
        resolved against the local store on whichever side applies
        the op.
        """
        self._require_open()
        if name not in self._shared:
            raise KeyError(
                f"unknown shared resident {name!r}; call share() first"
            )
        version, current = self._shared[name]
        resolved = _resolve_shared_args(self._shared, tuple(args))
        self._shared[name] = (version + 1, fn(current, *resolved))
        self.telemetry.shared_updates += 1
        impl = self._backend_impl()
        if impl.remote:
            impl.stage_shared_op(("update", name, version + 1, fn, tuple(args)))
        return version + 1

    def shared_ref(self, name: str) -> SharedRef:
        """Token standing for a shared resident's current value.

        Pass it in :meth:`run_resident` / :meth:`share_update`
        arguments; each receiving side substitutes its own copy, so
        the value itself never rides along.
        """
        return SharedRef(name)

    def shared_value(self, name: str) -> Any:
        """The coordinator mirror's current value for a shared resident."""
        entry = self._shared.get(name)
        if entry is None:
            raise KeyError(
                f"unknown shared resident {name!r}; call share() first"
            )
        return entry[1]

    # -- lifecycle ------------------------------------------------------- #

    def prestart(self) -> None:
        """Materialize backend resources now instead of lazily.

        For the socket backend it connects (and handshakes with) every
        configured worker, so an unreachable host fails here instead of
        inside the first solve.  No-op for in-process backends.
        """
        self._backend_impl().prestart()

    def discard_resident(self) -> None:
        """Drop the resident states of the current epoch everywhere.

        Lets a long-lived shared pool release graph-sized shard state
        between solves instead of pinning the last scatter until the
        next one (or shutdown).  Lenient by design: a no-op on a closed
        or never-used pool.
        """
        if self._closed or self._impl is None:
            return
        self._shared.clear()
        self.telemetry.rounds += 1
        self._impl.discard_resident()

    def shutdown(self) -> None:
        """Release workers and mark the pool closed (idempotent).

        Closing is terminal: subsequent ``map``/``scatter``/
        ``run_resident`` calls raise :class:`RuntimeError` rather than
        silently resurrecting threads or connections.
        """
        if self._impl is not None:
            self._impl.shutdown()
            self._impl = None
        self._shared.clear()
        self._closed = True

    #: Alias for :meth:`shutdown` (context-manager vocabulary).
    close = shutdown

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
