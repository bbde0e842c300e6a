"""Benchmark of the sphereflock numpy engine, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client in a closed loop: every sample is a fresh interpreter
(child.py) that sets up the workload, runs one iteration of it and checks
every output; the next sample starts when the previous one has exited.
Samples are started until ``--seconds`` would be exceeded.  The first
sample warms the bytecode and page caches; its times are dropped, its
outputs are still checked.  The workload process runs single-threaded,
with the BLAS pool pinned to one thread.

``--trace 0`` reports the end-to-end metrics (medians over samples).
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics (medians over traced samples) plus ``trace.overhead_s``,
the traced minus the untraced median wall time.

Prints one line per metric, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  The full record
(environment, every sample, every problem found) goes to
``.perfbench_out/result-<workload>-seed<seed>-trace<t>.json``.  Exits 2
without a result when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXIT_NO_RESULT = 2
RUN_LIMIT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class NoPackage(RuntimeError):
    """The workload process could not import sphereflock from src/."""


def machine() -> dict:
    """nproc and cache sizes of the machine the parent runs on."""
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            caches[level.lower()] = int(out) if out.isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            caches[level.lower()] = None
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "pinned_env": PINNED_ENV, **caches}


def sample(workload: str, seed: int, index: int, trace: bool, smoke: bool,
           timeout: float) -> dict:
    """Run one child to completion; returns its report or a crash record."""
    out_dir = Path(tempfile.mkdtemp(prefix="sample-", dir=OUT))
    env = {**os.environ, **PINNED_ENV}
    try:
        t0 = time.perf_counter()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--t0", repr(t0),
               "--out", str(out_dir), "--sample", str(index)] + (["--smoke"] if smoke else [])
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"crash": f"timed out after {timeout:.0f} s"}
        if proc.returncode == child.EXIT_NO_PACKAGE:
            raise NoPackage(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        report = json.loads(lines[-1])
        if trace:
            shutil.move(out_dir / "spans.json", OUT / f"spans-{workload}-seed{seed}.json")
        return report
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(args) -> dict:
    """Closed loop of samples for ``args.seconds``; returns the aggregated record."""
    ops = child.WORKLOADS[args.workload].ops
    start = time.perf_counter()
    deadline = start + args.seconds
    plain, traced, durations = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    environment = None
    # after the warm-up sample, traced runs alternate traced and untraced samples
    want = (2, 2) if args.trace else (3, 0)
    i = 0
    while True:
        now = time.perf_counter()
        enough = len(plain) >= want[0] and len(traced) >= want[1]
        typical = statistics.median(durations) if durations else 0.0
        if enough and now + typical > deadline:
            break
        is_traced = bool(args.trace) and i % 2 == 1
        report = sample(args.workload, args.seed, i, is_traced, args.smoke,
                        timeout=max(1.0, start + RUN_LIMIT_S - now))
        durations.append(time.perf_counter() - now)
        attempted += ops
        if "crash" in report:
            failed += ops
            problems.append(f"sample {i}: {report['crash']}")
            if time.perf_counter() - start > RUN_LIMIT_S:
                break
        else:
            environment = environment or report["environment"]
            bad = [p for p in report["problems"] if p]
            failed += len(bad)
            problems += [f"sample {i}: {'; '.join(p)}" for p in bad]
            if i > 0:
                (traced if is_traced else plain).append(report)
        i += 1
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "problems": problems, "environment": environment,
            "measured_s": time.perf_counter() - start}


def summarize(record: dict, trace: bool, units: dict[str, str]) -> dict[str, dict]:
    """Metric name -> {value (median), q1, q3, n, unit}."""
    series: dict[str, list[float]] = {}
    plain = record["plain"]
    series["setup_s"] = [r["setup_s"] for r in plain]
    series["wall_s"] = [r["wall_s"] for r in plain]
    series["agent_steps_per_s"] = [r["agent_steps"] / r["wall_s"] for r in plain]
    series["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    if trace:
        for r in record["traced"]:
            for name, value in r["layers"].items():
                series.setdefault(name, []).append(value)
        series["trace.overhead_s"] = [statistics.median(series["trace.wall_s"])
                                      - statistics.median(series["wall_s"])]
    out = {}
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(child.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny spans, for the self-test; not a measurement")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    OUT.mkdir(exist_ok=True)
    try:
        record = collect(args)
    except NoPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    if not record["plain"] or (args.trace and not record["traced"]):
        print("perfbench: no sample completed\n" + "\n".join(record["problems"]),
              file=sys.stderr)
        return EXIT_NO_RESULT
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    metrics = summarize(record, bool(args.trace), units)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: declared metrics not measured: {missing}", file=sys.stderr)
        return EXIT_NO_RESULT

    environment = {**machine(), **record["environment"]}
    fail_ratio = record["failed"] / record["attempted"]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "span": child.SPANS[args.workload][args.smoke],
              "environment": environment, "attempted": record["attempted"],
              "failed": record["failed"], "fail_ratio": fail_ratio,
              "problems": record["problems"], "metrics": metrics,
              "samples": {"plain": record["plain"], "traced": record["traced"]}}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  span "
          f"{result['span']}  measured {record['measured_s']:.1f} s")
    print("environment " + json.dumps(environment, sort_keys=True))
    if environment["backend"] != "numpy":
        print(f"NOTE: {environment['backend']} backend: not comparable with numpy-path runs")
    for name in names:
        m = metrics[name]
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}  "
              f"(median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    print(f"  {'fail_ratio':32s} {fail_ratio:.6g}  ({record['failed']} failed / "
          f"{record['attempted']} attempted)")
    for line in record["problems"][:10]:
        print(f"  problem: {line}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
