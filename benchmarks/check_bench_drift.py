"""Fail when a regenerated ``BENCH_*.json`` differs from its committed copy.

Run it after regenerating the benchmark files::

    python benchmarks/bench_iterated.py
    python benchmarks/bench_batched_conv.py
    python benchmarks/bench_hard_faults.py
    python benchmarks/bench_abft.py
    python benchmarks/bench_records.py
    python benchmarks/check_bench_drift.py

Each of the five files is compared with ``git show HEAD:<file>``,
ignoring the wall-clock fields every run changes.  Any other difference -- a
modeled figure, a trial, a fault event -- means the committed file is
stale: the script lists where and exits 1.  So does a file HEAD does
not hold, which it names as not committed.  The service benches are
not checked: their scheduling order is not deterministic.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Files whose every field but the wall-clock ones is deterministic.
DETERMINISTIC = (
    "BENCH_iterated_fusion.json",
    "BENCH_batched_conv.json",
    "BENCH_hard_faults.json",
    "BENCH_abft.json",
    "BENCH_records.json",
)

#: Wall-clock fields, which differ on every run.
WALL_CLOCK = {
    "timestamp",
    "campaign_seconds",
    "wall_blocked_s",
    "wall_unblocked_s",
}


def differences(old, new, path="$"):
    """Yield a line for every place ``new`` differs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted((set(old) | set(new)) - WALL_CLOCK):
            if key not in new:
                yield f"{path}.{key}: removed"
            elif key not in old:
                yield f"{path}.{key}: added"
            else:
                yield from differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}: {len(old)} entries -> {len(new)}"
        for index, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{index}]")
    elif old != new:
        yield f"{path}: {old!r} -> {new!r}"


def main() -> int:
    stale = False
    for name in DETERMINISTIC:
        committed = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if committed.returncode:
            stale = True
            print(f"{name}: not committed at HEAD")
            continue
        found = list(
            differences(
                json.loads(committed.stdout),
                json.loads((ROOT / name).read_text(encoding="utf-8")),
            )
        )
        if found:
            stale = True
            print(f"{name}: stale, {len(found)} difference(s)")
            for line in found[:20]:
                print(f"  {line}")
        else:
            print(f"{name}: matches the committed file")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
