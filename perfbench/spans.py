"""Span recorder, instance-level probes and wall-time accounting.

The traced run records spans from the benchmark's own files only:

- around calls the benchmark makes itself (``service.ingest``,
  ``engine.flush``, ``service.snapshot``, ``service.classify``, the
  load generator's sleeps);
- through instance wrappers on objects the program hands out
  (``engine.builder.ingest``, ``engine.builder.build_snapshot``,
  ``solver.partial_fit``, ``engine.classify_memberships``, the engine's
  vectorizer ``transform``) -- an attribute set on one instance, never
  on a class or module;
- through :class:`TimingSpmm` and :class:`TimingKernel`, which the
  solver receives through its public ``spmm=`` / ``kernel=`` arguments.
  Both delegate to the engine or kernel the untraced run would resolve,
  so the arithmetic, and every bit of the result, is unchanged.

Spans stay in memory as ``[name, thread, start, end, parent, n]``
lists (``n`` is a per-span count such as flops or tweets) and are
written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.core.kernels import Kernel
from repro.core.spmm import SpmmEngine

#: Layers reported as ``self.<layer>_ms`` in every traced result.
LAYERS = (
    "pipeline", "incremental", "solver", "executor", "spmm", "kernels",
    "vectorizer", "inference", "streaming", "service", "loadgen",
)

KERNEL_METHODS = (
    "accumulate", "multiply_tail", "projector_tail",
    "graph_terms", "graph_tail", "prior_tail",
)


def layer_of(name: str) -> str:
    """A span counts towards the layer its name starts with."""
    return name.split(".", 1)[0]


class Tracer:
    """Nested spans per thread, kept in one in-memory list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        #: Spans are recorded only inside :meth:`recording`.
        self.enabled = False

    @contextmanager
    def recording(self):
        """Record spans only for the measured phase inside this block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list | None:
        if not self.enabled:
            return None
        stack = self._stack()
        record = [
            name,
            threading.get_ident(),
            time.perf_counter(),
            0.0,
            stack[-1] if stack else None,
            0,
        ]
        self.spans.append(record)  # list.append is atomic under the GIL
        stack.append(record)
        return record

    def close(self, record: list | None, n: float = 0) -> None:
        if record is None:
            return
        record[3] = time.perf_counter()
        record[5] = n
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def add_child(self, parent: list | None, name: str, seconds: float) -> None:
        """Record an aggregate child of ``parent`` lasting ``seconds``.

        Used for time the program reports as a sum rather than as one
        interval (the pool's ``exchange_seconds``): the record starts
        with its parent and counts towards the parent's children.
        """
        if parent is None:
            return
        start = parent[2]
        self.spans.append(
            [name, parent[1], start, start + seconds, parent, 0]
        )

    def wrap(self, obj, attr: str, name: str, count=None) -> None:
        """Trace calls to ``obj.attr`` through an instance attribute.

        ``count(args)`` (optional) fills the span's ``n`` field.
        """
        original = getattr(obj, attr)

        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(record, count(args) if count is not None else 0)

        setattr(obj, attr, traced)

    # -------------------------------------------------------------- #
    # Read-out
    # -------------------------------------------------------------- #

    def named(self, name: str) -> list[list]:
        return [record for record in self.spans if record[0] == name]

    def total_ms(self, name: str) -> float:
        return 1000.0 * sum(r[3] - r[2] for r in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def sum_n(self, name: str) -> float:
        return float(sum(r[5] for r in self.named(name)))

    def kernel_spans(self) -> list[list]:
        return [r for r in self.spans if r[0].startswith("kernels.")]

    def write(self, path: Path, summary: dict) -> None:
        """Write the spans as gzipped JSON lines, summary first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        index = {id(record): i for i, record in enumerate(self.spans)}
        threads: dict[int, int] = {}
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"summary": summary}) + "\n")
            for i, (name, thread, start, end, parent, n) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "thread": threads.setdefault(thread, len(threads)),
                            "start": round(start, 7),
                            "end": round(end, 7),
                            "parent": None if parent is None else index[id(parent)],
                            "n": n,
                        }
                    )
                    + "\n"
                )


class TimingSpmm(SpmmEngine):
    """Times every product of the engine the solver would have used."""

    def __init__(self, tracer: Tracer, inner: SpmmEngine) -> None:
        self.tracer = tracer
        self.inner = inner
        self.name = inner.name
        self.prefers_csr = inner.prefers_csr
        self.threads = inner.threads

    def matmul(self, x, dense):
        record = self.tracer.open("spmm.matmul")
        try:
            return self.inner.matmul(x, dense)
        finally:
            nnz = x.nnz if hasattr(x, "nnz") else x.size
            width = dense.shape[1] if dense.ndim == 2 else 1
            self.tracer.close(record, 2 * nnz * width)


class TimingKernel(Kernel):
    """Times every sweep tail of the kernel the solver would have used."""

    def __init__(self, tracer: Tracer, inner: Kernel) -> None:
        self.name = inner.name
        for method in KERNEL_METHODS:
            setattr(
                self, method,
                _timed(tracer, f"kernels.{method}", getattr(inner, method)),
            )


def _timed(tracer: Tracer, name: str, fn):
    def timed(*args):
        record = tracer.open(name)
        try:
            return fn(*args)
        finally:
            tracer.close(record)

    return timed


# ------------------------------------------------------------------ #
# Accounting
# ------------------------------------------------------------------ #


def _overlap(a: list, b: list) -> float:
    return max(0.0, min(a[3], b[3]) - max(a[2], b[2]))


def account(tracer: Tracer, windows: list[tuple[int, float, float]]) -> dict:
    """Split the generator threads' wall time into per-layer self time.

    ``windows`` holds ``(thread, start, end)`` for each thread that
    drives the measured phase.  A span's self time is its duration
    minus its children's.  The ingest worker's ``incremental.ingest``
    spans run on another thread; the part of a ``pipeline.flush`` wait
    they cover is moved from ``pipeline`` to ``incremental``.  What no
    span covers is the residual (benchmark loop overhead).
    """
    ingest = tracer.named("incremental.ingest")
    buckets: dict[str, float] = defaultdict(float)
    wall = 0.0
    for thread, start, end in windows:
        wall += end - start
        own = [
            r for r in tracer.spans
            if r[1] == thread and r[2] >= start and r[3] <= end
        ]
        children: dict[int, float] = defaultdict(float)
        for record in own:
            if record[4] is not None:
                children[id(record[4])] += record[3] - record[2]
        for record in own:
            self_time = record[3] - record[2] - children[id(record)]
            buckets[layer_of(record[0])] += self_time
            if record[0] == "pipeline.flush":
                drained = sum(_overlap(record, other) for other in ingest)
                drained = min(drained, self_time)
                buckets["pipeline"] -= drained
                buckets["incremental"] += drained
    out = {f"self.{layer}_ms": 1000.0 * buckets[layer] for layer in LAYERS}
    out["account.wall_ms"] = 1000.0 * wall
    out["account.residual_ms"] = 1000.0 * (wall - sum(buckets.values()))
    return out
