"""Toy-size smoke check of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

For every workload it runs ``run.py --size toy`` four times: untraced
and traced on seed 1, traced again on seed 1, and untraced on seed 2.
It checks that

- every ``end_to_end`` and ``per_layer`` metric of ``BENCHMARK.json``
  is printed with its unit;
- the two traced seed-1 runs, and the untraced one, report identical
  accuracy, drift and solver iteration counts;
- every run exits 0 with ``correct: true`` (seed 2 included).

Toy inputs are too small for the accuracy floors, which are off at
that size.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "3"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", SECONDS, "--trace", str(trace), "--size", "toy",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit(
            f"FAIL {workload} seed {seed} trace {trace}: exit "
            f"{completed.returncode}\n{completed.stdout}{completed.stderr}"
        )
    result = json.loads(lines[-1])
    repeatable = next(
        json.loads(line)["repeatable"]
        for line in lines
        if line.startswith('{"repeatable"')
    )
    if not result["correct"] or result["failed"]:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: {result}")
    return result, repeatable


def check_units(result: dict, specs: list[dict], label: str) -> None:
    expected = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        sys.exit(f"FAIL {label}: metrics/units {got} != {expected}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_repeat = run(workload, 1, 0)
        check_units(plain, spec["end_to_end"], f"{workload} trace 0")
        traced, traced_repeat = run(workload, 1, 1)
        check_units(traced, spec["per_layer"], f"{workload} trace 1")
        _, again_repeat = run(workload, 1, 1)
        if traced_repeat != again_repeat:
            sys.exit(f"FAIL {workload}: {traced_repeat} != {again_repeat}")
        shared = {key: traced_repeat[key] for key in plain_repeat}
        if shared != plain_repeat:
            sys.exit(f"FAIL {workload}: traced {shared} != untraced {plain_repeat}")
        run(workload, 2, 0)
        print(f"ok {workload}: {traced_repeat}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
