"""The sparse·dense product engine of the sweep hot path.

Every multiplicative update is dominated by an ``X @ H``-shaped
sparse×dense product (``O(nnz·k)``).  :class:`SpmmEngine` evaluates it
as ``np.asarray(x @ dense)``, the scipy expression the call sites
historically inlined.  Routing every product of a solve through one
engine object lets an instance probe see them all: perfbench's
``TimingSpmm`` and the benchmarks inject an instance through the
solvers' ``spmm=`` argument.

Solver constructors accept a *name* (``"auto"`` or ``"scipy"``, both
this engine) or an :class:`SpmmEngine` instance.  The ``"threads"`` and
``"numba"`` engines were removed, and so was the ``spmm_threads`` budget
that only numba read: each computed the scipy engine's bits and no
benchmark row showed it faster.  Those values are refused by name,
while configs and checkpoints that recorded them load as what runs now
(see :mod:`repro.engine.config`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Engine names accepted by solver constructors and ``SolverConfig``.
SPMM_ENGINES = ("auto", "scipy")

MatrixLike = np.ndarray | sp.spmatrix


def validate_spmm(spmm: object) -> None:
    """Raise ``ValueError`` unless ``spmm`` is a known name or instance."""
    if isinstance(spmm, SpmmEngine):
        return
    if spmm in ("threads", "numba"):
        raise ValueError(
            f"spmm={spmm!r} was removed: it computed the same bits as "
            "'scipy'; use 'scipy' or 'auto'"
        )
    if spmm not in SPMM_ENGINES:
        raise ValueError(
            f"spmm must be one of {SPMM_ENGINES} or an SpmmEngine "
            f"instance, got {spmm!r}"
        )


def validate_spmm_threads(threads: object) -> None:
    """Raise ``ValueError`` unless ``threads`` is ``None``.

    The budget sized the removed numba paths' thread pools; the field
    stays (``None`` only) because the perfbench harness passes it.
    """
    if threads is not None:
        raise ValueError(
            f"spmm_threads={threads!r} was removed with the numba engine "
            "it sized; leave it None"
        )


class SpmmEngine:
    """The sparse·dense product engine: ``np.asarray(x @ dense)``."""

    name = "scipy"
    #: Read by nothing in this package; perfbench's ``TimingSpmm``
    #: copies both attributes from the engine it wraps.
    prefers_csr = False
    threads = 1

    def matmul(self, x: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``x @ dense`` as a plain ndarray, for sparse or dense ``x``."""
        return np.asarray(x @ dense)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name}>"


_SCIPY_ENGINE = SpmmEngine()


def resolve_spmm(
    spmm: object = "auto", threads: int | None = None
) -> SpmmEngine:
    """Resolve an engine name (or pass through an instance) to an engine.

    ``threads`` stays in the signature because the perfbench harness
    passes ``SolverConfig.spmm_threads`` here; it must be ``None``.
    """
    if isinstance(spmm, SpmmEngine):
        return spmm
    validate_spmm(spmm)
    validate_spmm_threads(threads)
    return _SCIPY_ENGINE


def default_spmm() -> SpmmEngine:
    """The engine used when products are computed without an explicit one."""
    return _SCIPY_ENGINE
