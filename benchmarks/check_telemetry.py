"""Assert the coordination-cost invariants recorded in bench_sharding.json.

The sharding bench records :class:`~repro.utils.executor.PoolTelemetry`
per matrix cell (summed across snapshots).  This checker turns those
numbers into hard pass/fail counters — unlike wall-clock, they are
deterministic, so CI can gate on them even on noisy shared runners:

- **rounds**: one fused sweep+objective exchange per sweep, plus
  exactly three fixed rounds per snapshot solve (the shard scatter, the
  contribution prime, and the factor merge).  A regression that splits
  the fused command back into separate pass and objective exchanges, or
  starts re-broadcasting ``Sf``, breaks this equality immediately.
  The cut-edge halo rides the fused exchange as command arguments, so
  this equality holding on multi-shard cells *is* the zero-extra-rounds
  guarantee.
- **shared_sets**: ``Sf`` is broadcast as a versioned shared resident
  exactly once per solve (plus the ``sf_prior`` resident — two sets per
  snapshot); every subsequent advance is a version-bumping ``l×k``
  update, never a re-send.
- **shared_updates**: exactly one ``Sf`` version bump per sweep.
- **halo_updates / halo_bytes**: at multiple shards, every snapshot
  whose partition cuts a ``Gu`` edge consumes exactly one boundary-row
  exchange per sweep, and its payload (delivered ghost slices +
  returned boundary rows, float64 ``O(cut-edge boundary rows × k)``)
  is strictly positive and 8-byte-granular; at one shard both are
  exactly zero — the halo machinery must be completely inert.  Payload
  bytes are counted coordinator-side, so for a fixed shard count they
  must agree bit-exactly across backends.

Usage::

    python benchmarks/check_telemetry.py benchmarks/results/bench_sharding.json
"""

import json
import sys
from pathlib import Path


def check(payload: dict) -> int:
    """Validate every pooled cell; returns the number of cells checked."""
    checked = 0
    halo_bytes_by_cell: dict = {}
    for run in payload["runs"]:
        telemetry = run.get("telemetry")
        cell = f"{run['backend']} x {run['n_shards']} shard(s)"
        if not telemetry:
            # The only cell allowed to run without a pool is the plain
            # thread 1-shard baseline.
            assert run["backend"] == "thread" and run["n_shards"] == 1, (
                f"{cell}: pooled cell recorded no telemetry"
            )
            continue
        sweeps, snapshots = run["sweeps"], run["snapshots"]
        assert telemetry["rounds"] == sweeps + 3 * snapshots, (
            f"{cell}: expected one exchange round per sweep plus "
            f"scatter/prime/merge per solve "
            f"({sweeps} + 3*{snapshots}), got {telemetry['rounds']}"
        )
        assert telemetry["shared_sets"] == 2 * snapshots, (
            f"{cell}: Sf (and sf_prior) must be broadcast once per "
            f"solve (2*{snapshots}), got {telemetry['shared_sets']}"
        )
        assert telemetry["shared_updates"] == sweeps, (
            f"{cell}: expected one Sf version bump per sweep "
            f"({sweeps}), got {telemetry['shared_updates']}"
        )
        if run["backend"] != "thread":
            assert telemetry["bytes_sent"] > 0, f"{cell}: no bytes sent?"
            assert telemetry["bytes_received"] > 0, (
                f"{cell}: no bytes received?"
            )
        halo_updates = telemetry.get("halo_updates", 0)
        halo_bytes = telemetry.get("halo_bytes", 0)
        if run["n_shards"] > 1:
            # Per solve the halo is all-or-nothing: a snapshot whose
            # partition cuts at least one Gu edge consumes exactly one
            # boundary exchange per sweep; a cut-free snapshot runs
            # with the halo completely inert.
            expected = 0
            for row in run["per_snapshot"]:
                assert row["halo_updates"] in (0, row["iterations"]), (
                    f"{cell} snapshot {row['index']}: expected one halo "
                    f"exchange per sweep ({row['iterations']}) or an "
                    f"inert solve, got {row['halo_updates']}"
                )
                assert (row["halo_updates"] > 0) == (
                    row["halo_bytes"] > 0
                ), (
                    f"{cell} snapshot {row['index']}: halo bytes and "
                    f"updates must activate together"
                )
                expected += row["halo_updates"]
            assert halo_updates == expected, (
                f"{cell}: cell total {halo_updates} halo exchanges != "
                f"sum of per-snapshot counts {expected}"
            )
            assert halo_updates > 0, (
                f"{cell}: halo never engaged — no snapshot cut a Gu edge?"
            )
            assert halo_bytes > 0 and halo_bytes % 8 == 0, (
                f"{cell}: halo payload must be positive whole float64 "
                f"words, got {halo_bytes} bytes"
            )
            key = run["n_shards"]
            previous = halo_bytes_by_cell.setdefault(key, (cell, halo_bytes))
            assert previous[1] == halo_bytes, (
                f"{cell}: halo payload is coordinator-side accounting and "
                f"must be backend-independent; {previous[0]} recorded "
                f"{previous[1]} bytes, this cell {halo_bytes}"
            )
        else:
            assert halo_updates == 0 and halo_bytes == 0, (
                f"{cell}: halo machinery must be inert "
                f"(updates={halo_updates}, bytes={halo_bytes})"
            )
        checked += 1
    assert checked > 0, "no pooled cells in the results file"
    return checked


def main(argv: list[str]) -> int:
    path = Path(
        argv[1] if len(argv) > 1 else "benchmarks/results/bench_sharding.json"
    )
    payload = json.loads(path.read_text(encoding="utf-8"))
    checked = check(payload)
    print(f"telemetry invariants hold for {checked} pooled cells in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
