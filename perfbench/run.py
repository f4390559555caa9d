"""End-to-end benchmark of the repro engine: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced and prints every ``end_to_end`` metric
of ``BENCHMARK.json``.  ``--trace 1`` runs the workload untraced, then
again traced, checks that both passes give bitwise-identical
memberships for the fixed probe set, and prints every ``per_layer``
metric, including the tracing overhead and the untraced pass's tail
latencies (``tail.*``); the spans go to
``perfbench/out/<workload>.trace.jsonl.gz``.  The last line of standard
output is the result object; the lines before it are the provenance
block and a readable table.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported repro from outside this checkout: {repro.__file__}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    from repro.core.kernels import numba_available
    from repro.experiments.reporting import describe_host
    from repro.utils.threads import host_info

    host = host_info()
    return {
        "host": host,
        "host_summary": describe_host(host),
        "numba": numba_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, size, trace: bool, info: dict) -> dict:
    """Run one workload and return the result object (without units)."""
    from spans import Tracer

    prepared = workload.prepare(seed, size, seconds)
    gc.collect()
    gc.freeze()  # keep the generated inputs out of the collector's scans
    untraced = workload.run(prepared, seconds, size, None)
    failures = list(untraced.failures)
    attempted = untraced.attempted
    if not trace:
        metrics = dict(untraced.e2e, peak_rss_mb=peak_rss_mb())
        outcome = untraced
    else:
        tracer = Tracer()
        outcome = workload.run(prepared, seconds, size, tracer)
        failures += outcome.failures
        attempted += outcome.attempted + 1
        if outcome.probe.tobytes() != untraced.probe.tobytes():
            failures.append("traced probe memberships differ from untraced")
        overhead = outcome.wall - untraced.wall
        metrics = dict(
            outcome.layers,
            **untraced.tails,
            **{
                "trace.overhead_ms": 1000.0 * overhead,
                "trace.overhead_pct": 100.0 * overhead / untraced.wall,
                "trace.spans": len(tracer.spans),
            },
        )
        tracer.write(
            HERE / "out" / f"{workload.name}.trace.jsonl.gz",
            {"workload": workload.name, "provenance": info, "metrics": metrics},
        )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "repeatable": outcome.repeatable,
    }


def with_units(metrics: dict, specs: list[dict]) -> dict:
    """Attach ``BENCHMARK.json`` units; every listed metric must exist."""
    names = [spec["name"] for spec in specs]
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {
        spec["name"]: {"value": float(metrics[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "toy"), default="full",
        help="input size; 'toy' is for the smoke check",
    )
    args = parser.parse_args(argv)

    _import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    from loadgen import FULL, TOY
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    size = TOY if args.size == "toy" else FULL
    info = provenance(args.seed)
    print(json.dumps({"provenance": info}))
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, size,
            bool(args.trace), info,
        )
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        result["metrics"] = with_units(result["metrics"], specs)
    except Exception:  # report the failed run as a result, then exit non-zero
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "failures": ["run raised"], "repeatable": {}}
    for failure in result.pop("failures"):
        print(f"check failed: {failure}")
    print(json.dumps({"repeatable": result.pop("repeatable")}))
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
