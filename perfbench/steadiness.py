"""Run-to-run steadiness: two sets of runs per workload, spread tables.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py

Each of ``SETS`` sets runs every workload once per seed (seeds
1..``SEEDS``, the same in every set) for ``BENCHMARK.json``'s
``run_seconds``.  For each workload x end-to-end metric the table gives
the spread -- interquartile range over median, as
``statistics.quantiles(values, n=4)`` computes the quartiles -- of the
raw and of the host-speed-corrected values within each set, and the
drift of the corrected median from the first set to the last.  Any
cell above a tenth is marked; the README names its cause.  Two runs of
one seed must print the same operation and trail digests; a mismatch
is reported and makes the script exit 1.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT = 0.10
SEEDS = 10
SETS = 2
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int) -> Dict[str, object]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    raw_line = next(line for line in lines if line.startswith("perfbench-raw "))
    return {"result": json.loads(lines[-1]), **json.loads(raw_line[len("perfbench-raw "):])}


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    runs: Dict[str, List[List[Dict[str, object]]]] = {w: [] for w in WORKLOADS}
    for _ in range(SETS):
        for workload in WORKLOADS:
            runs[workload].append(
                [run_once(workload, seed) for seed in range(1, SEEDS + 1)]
            )
    lines = [
        f"seeds 1..{SEEDS}, {SETS} sets, --seconds {SECONDS}; "
        f"spread = IQR/median; * marks a cell above {LIMIT}",
        "",
        "| workload | metric | raw spread | corrected spread | drift of median |",
        "|---|---|---|---|---|",
    ]
    status = 0
    for workload in WORKLOADS:
        sets = runs[workload]
        for seed_runs in zip(*sets):
            digests = {(r["ops_digest"], r["trail_digest"]) for r in seed_runs}
            if len(digests) != 1:
                lines.append(f"DIGEST MISMATCH on {workload}: {sorted(digests)}")
                status = 1
        if not all(r["result"]["correct"] for runs_ in sets for r in runs_):
            lines.append(f"INCORRECT run on {workload}")
            status = 1
        for metric in sets[0][0]["result"]["metrics"]:
            corrected = [[r["result"]["metrics"][metric]["value"] for r in s] for s in sets]
            raw = [[r["raw"].get(metric, r["result"]["metrics"][metric]["value"]) for r in s]
                   for s in sets]
            cells = [
                max(spread(v) for v in raw),
                max(spread(v) for v in corrected),
                abs(statistics.median(corrected[-1]) / statistics.median(corrected[0]) - 1),
            ]
            text = [f"{c:.3f}{' *' if c > LIMIT else ''}" for c in cells]
            lines.append(f"| {workload} | {metric} | " + " | ".join(text) + " |")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
