"""Typed, validated, serializable engine configuration.

The streaming engine used to be configured through a flat pile of
constructor kwargs plus ``**solver_kwargs`` — unreadable at call sites,
unvalidated until some layer deep below finally choked, and impossible
to persist without hand-listing every field.  This module replaces that
with a frozen dataclass hierarchy:

- :class:`SolverConfig` — the online solver's hyperparameters
  (Algorithm 2 weights, convergence policy, warm-start smoothing);
- :class:`ShardingConfig` — how the solve is partitioned and executed
  (shard count, partitioner, execution backend, worker bound);
- :class:`ServingConfig` — the classify path (fold-in iterations,
  micro-batch width, LRU size);
- :class:`IngestConfig` — the async ingestion pipeline (queue bound,
  overflow policy);
- :class:`EngineConfig` — the root object tying them together with the
  engine-level fields (classes, seed, checkpoint compaction).

Every config validates at construction — including the
``backend``/``partitioner`` strings, checked eagerly against the
registries in :mod:`repro.utils.executor` and
:mod:`repro.graph.partition` so a typo fails here with the valid
choices listed, not three layers down inside the first sharded solve —
and round-trips through ``to_dict``/``from_dict`` (the checkpoint
format persists exactly that dict).  The old flat-kwargs constructor
of :class:`~repro.engine.streaming.StreamingSentimentEngine` completed
its one-release deprecation cycle and is gone; configuration enters
through this hierarchy only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro.core.kernels import validate_dtype, validate_kernel
from repro.core.spmm import validate_spmm, validate_spmm_threads
from repro.graph.partition import validate_halo, validate_partitioner
from repro.utils.executor import validate_backend
from repro.utils.transport import validate_workers

#: What ``ingest(..., block=False)`` does when the queue is full.
OVERFLOW_POLICIES = ("drop", "raise")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _without_removed_fields(solver: dict[str, Any]) -> dict[str, Any]:
    """A solver-section dict minus fields and values of removed options.

    Configs and checkpoints written before the Lagrangian update style
    was removed record ``update_style``; its surviving value
    ``"projector"`` is what every solver now runs, so it is dropped.
    Any other value names an update rule that no longer exists.  Those
    written before the ``"threads"`` spmm engine was removed may record
    ``spmm="threads"``; it computed scipy's bits, so it loads as
    ``"scipy"``.
    """
    if solver.get("spmm") == "threads":
        solver = {**solver, "spmm": "scipy"}
    if "update_style" not in solver:
        return solver
    style = solver["update_style"]
    _require(
        style == "projector",
        f"update_style {style!r} was removed; only the projector "
        "updates remain",
    )
    return {key: value for key, value in solver.items() if key != "update_style"}


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the online tri-clustering solver.

    Field defaults are the paper's online settings (Section 5.1), the
    same defaults :class:`~repro.core.online.OnlineTriClustering` ships
    with — an all-default ``SolverConfig`` changes nothing.

    ``kernel`` selects the fused sweep-kernel implementation
    (``"auto"``/``"numpy"``/``"numba"``; configs accept names only, not
    :class:`~repro.core.kernels.Kernel` instances, so they stay
    serializable) and ``dtype`` the factor precision (``"float64"``
    default, ``"float32"`` opt-in) — see :mod:`repro.core.kernels`.
    ``spmm`` selects the sparse·dense product engine
    (``"auto"``/``"scipy"``/``"numba"``, names only; the removed
    ``"threads"`` engine is refused here, while old configs and
    checkpoints that record it load as ``"scipy"``) and
    ``spmm_threads`` its thread budget (``None`` = process default) —
    see :mod:`repro.core.spmm`; engines are float64 bit-identical, so
    both knobs are speed-only.  ``objective_every`` evaluates the
    objective every N sweeps (default 1 = every sweep; larger values
    coarsen convergence detection but cut per-sweep cost).
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
    kernel: str = "auto"
    dtype: str = "float64"
    spmm: str = "auto"
    spmm_threads: int | None = None
    objective_every: int = 1

    def __post_init__(self) -> None:
        _require(
            isinstance(self.objective_every, int) and self.objective_every >= 1,
            f"objective_every must be an int >= 1, got {self.objective_every!r}",
        )
        _require(0.0 < self.tau <= 1.0, f"tau must be in (0, 1], got {self.tau}")
        _require(self.window >= 2, f"window must be >= 2, got {self.window}")
        _require(
            self.max_iterations >= 1,
            f"max_iterations must be >= 1, got {self.max_iterations}",
        )
        _require(self.patience >= 1, f"patience must be >= 1, got {self.patience}")
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

    ``max_workers`` also bounds the engine's classify thread pool —
    one knob governs the engine's total worker budget, exactly as the
    old flat ``max_workers`` kwarg did.

    ``backend="socket"`` requires ``workers=["host:port", ...]`` — the
    addresses of running ``python -m repro worker`` servers — validated
    (and normalized to a tuple) at construction, so a malformed address
    fails here rather than at the first connect.  The list round-trips
    through ``to_dict``/``from_dict`` like every other field, which is
    how checkpoints remember where the solve's workers live.
    """

    n_shards: int | str = 1
    partitioner: str = "hash"
    backend: str = "thread"
    max_workers: int | None = None
    consensus_iterations: int = 25
    workers: tuple[str, ...] | None = None
    #: Cut-edge halo exchange: ``"on"`` evaluates the graph regularizer
    #: on the full ``Gu`` via per-sweep boundary-row exchanges;
    #: ``"off"`` drops cross-shard edges (legacy block-diagonal model).
    #: Checkpoints saved before this knob existed restore as ``"off"``
    #: (they were solved block-diagonal; restoring preserves that).
    halo: str = "on"

    def __post_init__(self) -> None:
        if self.n_shards != "auto" and (
            not isinstance(self.n_shards, int) or self.n_shards < 1
        ):
            raise ValueError(
                f"n_shards must be >= 1 or 'auto', got {self.n_shards!r}"
            )
        validate_partitioner(self.partitioner)
        validate_backend(self.backend)
        validate_halo(self.halo)
        if self.backend == "socket":
            object.__setattr__(self, "workers", validate_workers(self.workers))
        elif self.workers is not None:
            raise ValueError(
                "sharding.workers is only meaningful with "
                f"backend='socket' (got backend={self.backend!r})"
            )
        _require(
            self.max_workers is None or self.max_workers >= 1,
            f"max_workers must be >= 1 or None, got {self.max_workers}",
        )
        _require(
            self.consensus_iterations >= 1,
            f"consensus_iterations must be >= 1, got {self.consensus_iterations}",
        )


@dataclass(frozen=True)
class ServingConfig:
    """The classify/fold-in serving path."""

    classify_iterations: int = 25
    classify_batch_size: int = 256
    cache_size: int = 4096

    def __post_init__(self) -> None:
        _require(
            self.classify_iterations >= 1,
            f"classify_iterations must be >= 1, got {self.classify_iterations}",
        )
        _require(
            self.classify_batch_size >= 1,
            f"classify_batch_size must be >= 1, got {self.classify_batch_size}",
        )
        _require(
            self.cache_size >= 0,
            f"cache_size must be >= 0, got {self.cache_size}",
        )


@dataclass(frozen=True)
class IngestConfig:
    """The asynchronous ingestion pipeline.

    With ``async_ingest`` on (the default), ``engine.ingest`` is an
    O(1) enqueue: a dedicated worker drains the bounded queue,
    tokenizing and growing the vocabulary off the producer's thread.
    ``max_queued_batches`` bounds the queue; a full queue blocks the
    producer (``block=True``, backpressure) or applies ``overflow``
    (``"raise"`` an :class:`~repro.engine.pipeline.IngestQueueFull`, or
    ``"drop"`` the batch) when the producer passed ``block=False``.
    ``async_ingest=False`` restores the synchronous tokenize-on-ingest
    path; both produce bit-identical factors (regression-tested).
    """

    async_ingest: bool = True
    max_queued_batches: int = 64
    overflow: str = "raise"

    def __post_init__(self) -> None:
        _require(
            self.max_queued_batches >= 1,
            f"max_queued_batches must be >= 1, got {self.max_queued_batches}",
        )
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
    cross_snapshot_edges: bool = False
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
                if cls is SolverConfig:
                    value = _without_removed_fields(value)
                object.__setattr__(self, name, cls(**value))
            elif not isinstance(value, cls):
                raise TypeError(
                    f"{name} must be a {cls.__name__} or dict, "
                    f"got {type(value).__name__}"
                )
        _require(
            self.num_classes >= 2,
            f"num_classes must be >= 2, got {self.num_classes}",
        )
        _require(
            self.max_profile_age is None or self.max_profile_age >= 1,
            f"max_profile_age must be >= 1 or None, got {self.max_profile_age}",
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (JSON-ready; checkpoints persist it)."""
        validate_partitioner(self.sharding.partitioner, allow_callable=False)
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``TypeError``."""
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

