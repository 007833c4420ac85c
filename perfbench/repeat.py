#!/usr/bin/env python3
"""Run the benchmark ten times per workload, untraced, and summarize the spread.

Run from the repository root:

    python3 perfbench/repeat.py

Runs are sequential, ``run_seconds`` long as BENCHMARK.json sets, with seeds
1, 1001, ..., 9001. Each run's output is kept under ``bench_out/runs/``. The
summary, printed as JSON, gives for every workload and metric the median, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread: the
distance between the quartiles as a share of the median, next to the metric's
bound. A before/after comparison runs this on both commits.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / "bench_out" / "runs"
SEEDS = range(1, 10_000, 1000)  # operations use seed + i; keep runs' inputs apart


def summarize(outputs: list[dict], bounds: dict[str, float]) -> dict:
    values: dict[str, list[float]] = {}
    for out in outputs:
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {
        "runs": len(outputs),
        "correct": all(o["correct"] for o in outputs),
        "failed": sum(o["failed"] for o in outputs),
        "metrics": {},
    }
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        row = {"median": med, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / abs(med) if med else None}
        if name in bounds:
            row["bound"] = bounds[name]
        summary["metrics"][name] = row
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    RUNS.mkdir(parents=True, exist_ok=True)
    result = {}
    for workload in (w["name"] for w in spec["workloads"]):
        outputs = []
        for seed in SEEDS:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{' '.join(cmd)} exited with code {done.returncode}")
            (RUNS / f"{workload}-seed{seed}.txt").write_text(done.stdout)
            outputs.append(json.loads(done.stdout.splitlines()[-1]))
        result[workload] = summarize(outputs, bounds)
        print(f"{workload}: {len(outputs)} runs done", file=sys.stderr)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
