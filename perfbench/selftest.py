"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: each workload at its smoke span, untraced and traced, through
   run.py.  Every metric BENCHMARK.json declares must be emitted with its
   declared unit and a finite value, the fail_ratio line must be printed,
   and no operation may fail.
2. Gate: each workload's smoke span runs in-process, the correctness gate
   must pass on the real outputs and fail on each deliberately corrupted
   copy (perturbed final state or frame, off-by-one-ulp fitted rate,
   excess drift, rising energy, negative ledger slack, zero antipode
   margin, a dropped frame, swapped seed-sweep members, a rotated final
   state).  The seeded workloads run at a seed with a recorded reference
   and at one without.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def smoke() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in child.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            where = f"smoke {workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{where}: exit {proc.returncode} {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{where}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} operations failed")
            for metric in declared[group]:
                got = result["metrics"].get(metric["name"], {})
                expect(got.get("unit") == metric["unit"]
                       and math.isfinite(got.get("value", math.nan)),
                       f"{where}: {metric['name']} emitted as {got}")
            expect(len(result["metrics"]) == len(declared[group]), f"{where}: no extra metrics")
            expect(any(line.split()[:1] == ["fail_ratio"] for line in lines),
                   f"{where}: fail_ratio printed")


def corrupted(out, corrupt):
    """A deep copy of ``out`` after ``corrupt`` ran on it."""
    bad = copy.deepcopy(out)
    corrupt(bad)
    return bad


def replace_frame(traj, index: int, **fields) -> None:
    frame = traj.frames[index]
    traj.frames[index] = dataclasses.replace(
        frame, diagnostics=dataclasses.replace(frame.diagnostics, **fields))


def rotated_final(traj, angle: float = 1e-6) -> None:
    """Rotate the final state about z: every invariant and identity still holds."""
    from sphereflock import Ensemble

    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    frame = traj.frames[-1]
    ens = frame.ensemble
    traj.frames[-1] = dataclasses.replace(
        frame, ensemble=Ensemble(ens.positions @ rot.T, ens.velocities @ rot.T))


def gate_cases(scratch: Path) -> None:
    child.import_package()
    recorded_seed, unrecorded_seed = child.REFERENCE_SEEDS[0], 3

    def run(name, seed=unrecorded_seed):
        work = child.WORKLOADS[name](seed, child.SPANS[name][1], child.NoTracer(), scratch)
        with contextlib.ExitStack() as hooks:
            work.hooks(hooks)
            out = work.run()
        return work, out

    def passes(problems) -> bool:
        return all(not p for p in problems)

    # paper-rendezvous: the outputs are files, so corrupt them on disk
    work, out = run("paper-rendezvous")
    expect(passes(work.check(out)), "gate passes paper-rendezvous")
    clean_summary = work.summary.read_text()
    summary = json.loads(clean_summary)
    summary["final_frame"]["d_x"] *= 1.0 + 1e-7
    work.summary.write_text(json.dumps(summary))
    expect(not passes(work.check(out)), "gate fails a perturbed final frame")
    summary = json.loads(clean_summary)
    summary["max_step_drift"]["radial"] = 1e-9
    work.summary.write_text(json.dumps(summary))
    expect(not passes(work.check(out)), "gate fails excess pre-projection drift")
    work.summary.write_text(clean_summary)
    fit = json.loads(out[2])
    fit["rate"] = float(np.nextafter(fit["rate"], math.inf))
    expect(not passes(work.check((out[0], out[1], json.dumps(fit)))),
           "gate fails a fit-rate one ulp off the summary")
    expect(passes(work.check(out)), "gate passes paper-rendezvous again once restored")

    # seed-sweep: simulate trajectories held in memory
    def swap_members(results):
        results[0], results[1] = results[1], results[0]

    def drop_frame(results):
        del results[0][1].frames[-1]

    for seed in (recorded_seed, unrecorded_seed):
        work, out = run("seed-sweep", seed)
        expect(passes(work.check(out)), f"gate passes seed-sweep at seed {seed}")
        for what, corrupt in (("swapped members", swap_members),
                              ("a dropped frame", drop_frame)):
            expect(not passes(work.check(corrupted(out, corrupt))),
                   f"gate fails seed-sweep at seed {seed} with {what}")
    expect(not passes(work.check(corrupted(out, lambda r: rotated_final(r[5][1])), sample=5)),
           "gate fails seed-sweep with the checked member's final state rotated")

    def perturb_state(results):
        ens = results[0][1].final.ensemble
        ens.positions = ens.positions * (1.0 + 1e-3)

    def raise_energy(results):
        traj = results[0][1]
        replace_frame(traj, -1, e_total=traj.frames[-2].diagnostics.e_total + 1e-6)

    def drift(results):
        results[0][1].max_step_tangency = 1e-8

    for what, corrupt in (("a perturbed final state", perturb_state),
                          ("a rising energy", raise_energy), ("excess tangency drift", drift)):
        expect(not passes(work.check(corrupted(out, corrupt))),
               f"gate fails seed-sweep with {what}")

    # energy-ledger
    work, out = run("energy-ledger")
    expect(passes(work.check(out)), "gate passes energy-ledger")
    expect(not passes(work.check(dataclasses.replace(out, slack=-1e-9))),
           "gate fails a negative ledger slack")
    expect(not passes(work.check(dataclasses.replace(out, e_end=out.e_end * (1.0 + 1e-7)))),
           "gate fails an energy off the reference")

    # crowd-256
    for seed in (recorded_seed, unrecorded_seed):
        work, out = run("crowd-256", seed)
        expect(passes(work.check(out)), f"gate passes crowd-256 at seed {seed}")
        expect(not passes(work.check(corrupted(out, rotated_final))),
               f"gate fails crowd-256 at seed {seed} with a rotated final state")
    expect(not passes(work.check(corrupted(
        out, lambda traj: replace_frame(traj, -1, antipode_margin=0.0)))),
        "gate fails a zero antipode margin")
    work, out = run("crowd-256", recorded_seed)
    expect(not passes(work.check(corrupted(
        out, lambda traj: replace_frame(traj, -1, d_x=traj.final.diagnostics.d_x * (1 + 1e-7))))),
        "gate fails crowd-256 with a final frame off the reference")


def main() -> int:
    smoke()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as scratch:
        gate_cases(Path(scratch))
    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
