"""Repeat run.py over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--trace-runs 1] [--label TEXT] [--out FILE]

Runs every declared workload ten times untraced, with seeds 0 to 9, and
``--trace-runs`` times traced.  For each end-to-end metric it prints
the median of the per-run values and their spread, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json; a
spread above a third of the bound is flagged.  ``--out`` writes the same
numbers, with the per-layer medians of the traced runs, as JSON; this is
how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(next(
        line for line in lines if line.startswith("environment "))[len("environment "):])
    return result


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"label": args.label, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = range(RUNS)
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "environment": results[0]["environment"],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{workload}: fail_ratio {entry['failed'] / entry['attempted']:.6g} "
              f"({entry['failed']} failed / {entry['attempted']} attempted)")
        for name, bound in bounds.items():
            stats = describe([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            flag = ""
            if name != "setup_s" and stats["spread"] > bound / 3:
                flag, steady = "  <-- above a third of the bound", False
            entry["end_to_end"][name] = stats
            print(f"  {name:20s} median {stats['median']:.6g}  spread {stats['spread']:.4f}"
                  f"  bound {bound}{flag}")
        if args.trace_runs:
            traced = [run(workload, seed, seconds, 1)
                      for seed in range(args.trace_runs)]
            entry["per_layer"] = {
                m["name"]: {"median": statistics.median(r["metrics"][m["name"]]["value"]
                                                         for r in traced), "unit": m["unit"]}
                for m in bench["per_layer"]}
            for name, stats in entry["per_layer"].items():
                print(f"  {name:32s} {stats['median']:.6g} {stats['unit']}")
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
