"""Host topology probes and BLAS threadpool capping.

At bench scale the sweeps spend their time in OpenBLAS GEMMs, and
OpenBLAS defaults to one thread per logical core *per process*.  A
sharded solve that fans out to W socket workers on one host therefore
launches W × cores BLAS threads that fight over the same cores — the
classic oversubscription collapse where adding workers makes the wall
clock *worse*.  The fix is to cap each worker's BLAS pool (to 1 by
default), which is what :func:`cap_blas_threads` does inside the
socket worker mains (:mod:`repro.utils.transport`).

``threadpoolctl`` is the canonical tool for this but is not a
dependency of this repo, so the cap is implemented directly:

- environment variables (``OPENBLAS_NUM_THREADS`` etc.) cover any BLAS
  loaded *after* the cap, and are inherited by child processes;
- for the already-loaded case, the vendored OpenBLAS shared objects
  inside ``numpy.libs``/``scipy.libs`` are located by glob and their
  ``openblas_set_num_threads`` entry points called through ``ctypes``.
  PyPI wheels mangle the symbol (``scipy_openblas_set_num_threads64_``
  in current numpy wheels), so a small candidate list is probed.

Everything here is defensive: on exotic builds (no vendored OpenBLAS,
Accelerate, MKL) the ctypes leg quietly applies to zero libraries and
only the environment variables act.  The functions never raise.
"""

from __future__ import annotations

import ctypes
import glob
import os

#: Environment variables that size BLAS/OpenMP pools at load time.
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Mangled names under which wheel-vendored OpenBLAS exports its
#: thread-count setter/getter (probed in order; first hit wins).
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_GET_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

#: Socket workers read this to override their default BLAS cap of 1;
#: ``0`` means "leave the BLAS pool alone".
WORKER_BLAS_ENV = "REPRO_WORKER_BLAS_THREADS"


# --------------------------------------------------------------------- #
# Host topology
# --------------------------------------------------------------------- #


def logical_core_count() -> int:
    """Logical CPUs on the host (hyperthreads included)."""
    return os.cpu_count() or 1


def affinity_core_count() -> int:
    """Logical CPUs this process may run on (cgroup/taskset aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return logical_core_count()


def physical_core_count() -> int | None:
    """Physical cores from ``/proc/cpuinfo``, or ``None`` off Linux.

    Counts distinct ``(physical id, core id)`` pairs, the same method
    ``lscpu`` uses; hyperthread siblings share a pair.
    """
    try:
        pairs = set()
        physical = core = None
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "physical id":
                    physical = value.strip()
                elif key == "core id":
                    core = value.strip()
                elif not line.strip():
                    if core is not None:
                        pairs.add((physical, core))
                    physical = core = None
        if core is not None:
            pairs.add((physical, core))
        return len(pairs) or None
    except OSError:
        return None


def host_info() -> dict:
    """Topology + BLAS facts for benchmark reports.

    Keys: ``logical_cores``, ``physical_cores`` (``None`` when
    unknown), ``affinity_cores``, ``blas_threads`` (per detected
    OpenBLAS library), ``blas_env`` (the sizing variables that are
    set).
    """
    return {
        "logical_cores": logical_core_count(),
        "physical_cores": physical_core_count(),
        "affinity_cores": affinity_core_count(),
        "blas_threads": blas_thread_info(),
        "blas_env": {
            name: os.environ[name]
            for name in BLAS_ENV_VARS
            if name in os.environ
        },
    }


# --------------------------------------------------------------------- #
# OpenBLAS handles
# --------------------------------------------------------------------- #


_handles: list[tuple[str, ctypes.CDLL]] | None = None


def _openblas_libraries() -> list[str]:
    """Vendored OpenBLAS shared objects next to numpy/scipy."""
    paths: list[str] = []
    for module_name in ("numpy", "scipy"):
        try:
            module = __import__(module_name)
        except ImportError:
            continue
        site_dir = os.path.dirname(os.path.dirname(module.__file__))
        pattern = os.path.join(
            site_dir, f"{module_name}.libs", "*openblas*"
        )
        paths.extend(sorted(glob.glob(pattern)))
    return paths


def _openblas_handles() -> list[tuple[str, ctypes.CDLL]]:
    global _handles
    if _handles is None:
        _handles = []
        for path in _openblas_libraries():
            try:
                # Already mapped by numpy/scipy; this only bumps the
                # refcount and hands us the symbol table.
                _handles.append((os.path.basename(path), ctypes.CDLL(path)))
            except OSError:
                continue
    return _handles


def _find_symbol(dll: ctypes.CDLL, candidates: tuple[str, ...]):
    for name in candidates:
        try:
            return getattr(dll, name)
        except AttributeError:
            continue
    return None


def blas_thread_info() -> dict[str, int]:
    """Current thread count per detected OpenBLAS library."""
    info: dict[str, int] = {}
    for name, dll in _openblas_handles():
        getter = _find_symbol(dll, _GET_SYMBOLS)
        if getter is None:
            continue
        try:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            info[name] = int(getter())
        except (ctypes.ArgumentError, OSError):
            continue
    return info


def cap_blas_threads(limit: int) -> list[str]:
    """Cap BLAS pools to ``limit`` threads; returns the libraries hit.

    Sets the sizing environment variables (for libraries not yet
    loaded, and for child processes) and calls ``set_num_threads`` on
    every detected OpenBLAS.  Never raises; ``limit < 1`` is treated
    as 1.
    """
    limit = max(1, int(limit))
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(limit)
    capped: list[str] = []
    for name, dll in _openblas_handles():
        setter = _find_symbol(dll, _SET_SYMBOLS)
        if setter is None:
            continue
        try:
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            setter(limit)
            capped.append(name)
        except (ctypes.ArgumentError, OSError):
            continue
    return capped
