"""Typed, validated, serializable engine configuration.

The streaming engine used to be configured through a flat pile of
constructor kwargs plus ``**solver_kwargs`` — unreadable at call sites,
unvalidated until some layer deep below finally choked, and impossible
to persist without hand-listing every field.  This module replaces that
with a frozen dataclass hierarchy:

- :class:`SolverConfig` — the online solver's hyperparameters
  (Algorithm 2 weights, convergence policy, warm-start smoothing);
- :class:`ShardingConfig` — how the solve is partitioned and executed
  (shard count, execution backend, worker bound, socket workers);
- :class:`ServingConfig` — the classify path (fold-in iterations,
  micro-batch width, LRU size);
- :class:`IngestConfig` — the async ingestion pipeline (queue bound,
  overflow policy);
- :class:`EngineConfig` — the root object tying them together with the
  engine-level fields (classes, seed, checkpoint compaction).

Every config validates at construction — counts must be non-bool ints
in range, weights finite and non-negative, and the ``backend``/
``kernel``/``spmm`` strings are checked eagerly against their
registries so a typo fails here with the valid choices listed, not
three layers down inside the first sharded solve — and round-trips
through ``to_dict``/``from_dict`` (the checkpoint format persists
exactly that dict).  Dicts recorded before an option was removed still
load when they hold the value every solve now runs (see
:data:`_REMOVED_FIELDS`); any other value of a removed option is
refused by name.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro.core.kernels import validate_dtype, validate_kernel
from repro.core.spmm import validate_spmm, validate_spmm_threads
from repro.core.sweep import validate_sharding

#: What ``ingest(..., block=False)`` does when the queue is full.
OVERFLOW_POLICIES = ("drop", "raise")

#: Options that were removed, per config section (``""`` is the top
#: level): ``name -> (values that still load, what runs now)``.  Each
#: loadable value is what every solve runs since the removal —
#: ``async_ingest`` loads at both values because the inline and queued
#: ingest paths gave bit-identical factors.
_REMOVED_FIELDS: dict[str, dict[str, tuple[tuple, str]]] = {
    "": {
        "cross_snapshot_edges": (
            (False,), "Gu links only retweets of same-snapshot tweets"
        ),
    },
    "solver": {
        "update_style": (("projector",), "only the projector updates remain"),
        "objective_every": ((1,), "the objective is evaluated every sweep"),
    },
    "sharding": {
        "partitioner": (("hash",), "users are hash-partitioned by id"),
        "consensus_iterations": (
            (25,), "the merge runs a fixed 25 consensus steps"
        ),
        "halo": (("on",), "cross-shard Gu edges are always kept as halo blocks"),
    },
    "ingest": {
        "async_ingest": ((True, False), "ingest always runs on the queue"),
    },
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_count(value: Any, minimum: int) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool)
        and value >= minimum
    )


def _count(
    name: str, value: Any, minimum: int, optional: bool = False
) -> None:
    """Require a non-bool ``int`` ≥ ``minimum`` (or ``None`` if optional)."""
    _require(
        (optional and value is None) or _is_count(value, minimum),
        f"{name} must be an int >= {minimum}"
        + (" or None" if optional else "") + f", got {value!r}",
    )


def _real(name: str, value: Any) -> None:
    """Require a finite, non-bool real number."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value),
        f"{name} must be a finite number, got {value!r}",
    )


def _weight(name: str, value: Any) -> None:
    """Require a finite real ≥ 0."""
    _real(name, value)
    _require(value >= 0, f"{name} must be >= 0, got {value!r}")


def _without_removed_fields(
    section: str, payload: dict[str, Any]
) -> dict[str, Any]:
    """``payload`` minus the removed options of ``section``.

    A removed option recorded at a value that still loads is dropped;
    any other value raises ``ValueError`` naming the option.  Removed
    values of surviving options load as their replacement, which
    computed the same bits: a solver section's ``"threads"`` spmm
    engine as ``"scipy"``, its ``"numba"`` kernel and engine as
    ``"auto"`` and a positive ``spmm_threads`` as ``None``, and a
    sharding section's ``"process"`` backend as ``"thread"``.
    """
    if section == "solver":
        payload = {**payload}
        if payload.get("spmm") == "threads":
            payload["spmm"] = "scipy"
        for name in ("kernel", "spmm"):
            if payload.get(name) == "numba":
                payload[name] = "auto"
        threads = payload.get("spmm_threads")
        if type(threads) is int and threads >= 1:
            payload["spmm_threads"] = None
    if section == "sharding" and payload.get("backend") == "process":
        payload = {**payload, "backend": "thread"}
    removed = _REMOVED_FIELDS.get(section, {})
    for name in removed.keys() & payload.keys():
        loadable, now = removed[name]
        value = payload[name]
        _require(
            any(type(value) is type(ok) and value == ok for ok in loadable),
            f"{(section + '.') if section else ''}{name}={value!r} was "
            f"removed; {now}",
        )
    return {key: value for key, value in payload.items() if key not in removed}


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the online tri-clustering solver.

    Field defaults are the paper's online settings (Section 5.1), the
    same defaults :class:`~repro.core.online.OnlineTriClustering` ships
    with — an all-default ``SolverConfig`` changes nothing.

    ``dtype`` is the factor precision (``"float64"`` default,
    ``"float32"`` opt-in) — see :mod:`repro.core.kernels`.  ``kernel``
    (``"auto"``/``"numpy"``), ``spmm`` (``"auto"``/``"scipy"``) and
    ``spmm_threads`` (``None``) each have one behaviour since the numba
    paths were removed.  They stay because the perfbench harness reads
    them and splats ``asdict(SolverConfig())`` into the solvers.  The
    removed values are refused here by name, while old configs and
    checkpoints that record them load (see
    :func:`_without_removed_fields`).  Configs hold names only, not
    instances, so they stay serializable.
    """

    alpha: float = 0.9
    beta: float = 0.8
    gamma: float = 0.2
    tau: float = 0.9
    window: int = 2
    max_iterations: int = 100
    tolerance: float = 1e-5
    patience: int = 3
    state_smoothing: float = 0.8
    track_history: bool = False
    # kernel, spmm and spmm_threads: read by the perfbench harness.
    kernel: str = "auto"
    dtype: str = "float64"
    spmm: str = "auto"
    spmm_threads: None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "tolerance"):
            _weight(name, getattr(self, name))
        _real("tau", self.tau)
        _require(0.0 < self.tau <= 1.0, f"tau must be in (0, 1], got {self.tau}")
        _count("window", self.window, 2)
        _count("max_iterations", self.max_iterations, 1)
        _count("patience", self.patience, 1)
        _real("state_smoothing", self.state_smoothing)
        _require(
            0.0 <= self.state_smoothing < 1.0,
            f"state_smoothing must be in [0, 1), got {self.state_smoothing}",
        )
        # Names only (no Kernel instances): configs must serialize.
        _require(
            isinstance(self.kernel, str),
            f"solver.kernel must be a string, got {type(self.kernel).__name__}",
        )
        validate_kernel(self.kernel)
        validate_dtype(self.dtype)
        _require(
            isinstance(self.spmm, str),
            f"solver.spmm must be a string, got {type(self.spmm).__name__}",
        )
        validate_spmm(self.spmm)
        validate_spmm_threads(self.spmm_threads)


@dataclass(frozen=True)
class ShardingConfig:
    """How the per-snapshot solve is partitioned and executed.

    Users are hash-partitioned by id, so a user keeps their shard
    across snapshots (see :func:`repro.graph.partition.hash_partition`).

    ``max_workers`` also bounds the engine's classify thread pool —
    one knob governs the engine's total worker budget, exactly as the
    old flat ``max_workers`` kwarg did.

    ``backend="socket"`` requires ``workers=["host:port", ...]`` — the
    addresses of running ``python -m repro worker`` servers — validated
    (and normalized to a tuple) at construction, so a malformed address
    fails here rather than at the first connect.  The list round-trips
    through ``to_dict``/``from_dict`` like every other field, which is
    how checkpoints remember where the solve's workers live.  The
    removed ``"process"`` backend is refused here, while old configs
    and checkpoints that record it load as ``"thread"`` (the same bits).
    """

    n_shards: int | str = 1
    backend: str = "thread"
    max_workers: int | None = None
    workers: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # The solvers' own check, so config and solver accept the same
        # settings; it returns the socket worker list as a tuple.
        object.__setattr__(
            self,
            "workers",
            validate_sharding(
                self.n_shards,
                self.max_workers,
                self.backend,
                self.workers,
            ),
        )


@dataclass(frozen=True)
class ServingConfig:
    """The classify/fold-in serving path."""

    classify_iterations: int = 25
    classify_batch_size: int = 256
    cache_size: int = 4096

    def __post_init__(self) -> None:
        _count("classify_iterations", self.classify_iterations, 1)
        _count("classify_batch_size", self.classify_batch_size, 1)
        _count("cache_size", self.cache_size, 0)


@dataclass(frozen=True)
class IngestConfig:
    """The asynchronous ingestion pipeline.

    ``engine.ingest`` is an O(1) enqueue: a dedicated worker drains the
    bounded queue, tokenizing and growing the vocabulary off the
    producer's thread; ``engine.flush()`` is the barrier.
    ``max_queued_batches`` bounds the queue; a full queue blocks the
    producer (``block=True``, backpressure) or applies ``overflow``
    (``"raise"`` an :class:`~repro.engine.pipeline.IngestQueueFull`, or
    ``"drop"`` the batch) when the producer passed ``block=False``.
    """

    max_queued_batches: int = 64
    overflow: str = "raise"

    def __post_init__(self) -> None:
        _count("max_queued_batches", self.max_queued_batches, 1)
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.overflow!r}; valid "
                "choices: " + ", ".join(repr(p) for p in OVERFLOW_POLICIES)
            )


@dataclass(frozen=True)
class EngineConfig:
    """Complete, serializable configuration of a streaming engine.

    Nested sections may be given as dicts (handy for JSON/CLI sources);
    they are coerced to their config classes at construction:

    >>> EngineConfig(solver={"max_iterations": 20}).solver.max_iterations
    20

    ``max_profile_age`` enables checkpoint compaction: on ``save()``,
    authors neither posting nor retweeted within that many most recent
    snapshots are aged out of the builder's profile and tweet→author
    bookkeeping, bounding warm-restart state on unbounded streams.
    """

    num_classes: int = 3
    seed: int | None = 0
    max_profile_age: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)

    _SECTIONS = {
        "solver": SolverConfig,
        "sharding": ShardingConfig,
        "serving": ServingConfig,
        "ingest": IngestConfig,
    }

    def __post_init__(self) -> None:
        for name, cls in self._SECTIONS.items():
            value = getattr(self, name)
            if isinstance(value, dict):
                value = cls(**_without_removed_fields(name, value))
                object.__setattr__(self, name, value)
            elif not isinstance(value, cls):
                raise TypeError(
                    f"{name} must be a {cls.__name__} or dict, "
                    f"got {type(value).__name__}"
                )
        _count("num_classes", self.num_classes, 2)
        _count("max_profile_age", self.max_profile_age, 1, optional=True)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (JSON-ready; checkpoints persist it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``TypeError``.

        Removed options are stripped first (see :data:`_REMOVED_FIELDS`).
        """
        payload = _without_removed_fields("", payload)
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise TypeError(
                "unknown EngineConfig field(s): "
                + ", ".join(sorted(repr(k) for k in unknown))
            )
        return cls(**payload)

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with top-level fields replaced (sections take dicts too)."""
        return replace(self, **changes)
