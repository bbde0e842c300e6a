"""One iteration of one benchmark workload, in a fresh interpreter.

run.py starts this script once per sample, so that set-up time includes
interpreter start and peak RSS is the workload's own:

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --t0 PERF_COUNTER --out DIR [--sample I] [--smoke]

``--t0`` is the parent's ``time.perf_counter()`` just before the spawn
(CLOCK_MONOTONIC, shared by all processes on Linux).  The last stdout line
is one JSON object.  ``--sample`` is the sample's index in its run; it
picks the seed-sweep member the gate re-integrates.  Exit code 3 means the
package could not be imported from ``src/``; an exception inside an
operation is a failed operation.

    python3 perfbench/child.py --record-reference

re-records ``reference.json``, the outputs the correctness gate compares
against: those of the two paper-data workloads, and the final frames of
``seed-sweep`` and ``crowd-256`` at the seeds in REFERENCE_SEEDS.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import importlib.util
import io
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import gate
import yardstick

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PACKAGE = 3

# Per workload: the span one iteration integrates (t_end, or steps for
# crowd-256), full and smoke.  Sized so that one iteration takes ~0.6 s on
# one core of a 2-CPU x86 box: short samples let the yardstick readings
# around them track the machine's speed closely (see yardstick.py).
SPANS = {
    "paper-rendezvous": (1.0, 0.2),
    "seed-sweep": (0.05, 0.02),
    "energy-ledger": (0.2, 0.01),
    "crowd-256": (7, 2),
}

# The default workload seed and a second one, unused while the benchmark was
# tuned; reference.json holds the seeded workloads' final frames at both.
REFERENCE_SEEDS = (0, 1000)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def wrap(self, owner, attr: str, name: str):
        """Record a span around every call made through ``owner.attr``."""
        def traced(inner):
            def call(*args, **kwargs):
                with self.span(name):
                    return inner(*args, **kwargs)
            return call
        with patched(owner, attr, traced):
            yield


class NoTracer:
    """Tracing off: the same calls, nothing recorded, nothing patched."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, owner, attr: str, name: str):
        return contextlib.nullcontext()


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    inner = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(inner))
    try:
        yield
    finally:
        setattr(owner, attr, inner)


def keep_result(store: list):
    """Wrapper factory that appends every return value to ``store``."""
    def make(inner):
        def call(*args, **kwargs):
            out = inner(*args, **kwargs)
            store.append(out)
            return out
        return call
    return make


def keep_first_arg(store: list):
    """Wrapper factory that keeps the latest first argument in ``store[0]``."""
    def make(inner):
        def call(first, *args, **kwargs):
            store[:] = [first]
            return inner(first, *args, **kwargs)
        return call
    return make


def _failure(exc: BaseException) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


class Workload:
    """One workload: its constructor is set-up; ``run`` is the timed part.

    ``ops`` operations (simulate or energy_audit calls) per iteration;
    ``check`` returns one list of gate problems per operation.  ``sample``
    is the sample's index in its run.
    """

    ops = 1

    def held(self, out) -> list:
        """Trajectories the iteration returned, for integrator.trajectory_bytes."""
        return []

    def output_bytes(self) -> int:
        return 0


class PaperRendezvous(Workload):
    """`sphereflock simulate --preset paper-sigma1`, then `fit-rate` on its CSV."""

    def __init__(self, seed, span, tracer, out_dir: Path):
        from sphereflock import cli

        self.cli = cli
        self.tracer = tracer
        self.t_end = float(span)
        self.n_agents = 6
        self.steps = int(round(self.t_end / 1e-3))
        self.csv = out_dir / "frames.csv"
        self.summary = out_dir / "summary.json"
        self.sim_argv = ["simulate", "--preset", "paper-sigma1", "--t-end", repr(self.t_end),
                         "--out", str(self.csv), "--summary", str(self.summary)]
        self.fit_argv = ["fit-rate", "--csv", str(self.csv),
                         "--window", repr(self.t_end / 8.0), repr(self.t_end)]
        self.trajectories: list = []

    def hooks(self, stack):
        cli, tr = self.cli, self.tracer
        from sphereflock import diagnostics

        stack.enter_context(patched(cli, "simulate", keep_result(self.trajectories)))
        for attr in ("build_scenario", "check_initial", "simulate", "fit_decay_rate",
                     "write_frames_csv", "read_frames_csv", "write_json"):
            stack.enter_context(tr.wrap(cli, attr, f"cli.{attr}"))
        stack.enter_context(tr.wrap(diagnostics, "make_frame", "diagnostics.make_frame"))

    def run(self):
        sim_out, fit_out = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(sim_out), self.tracer.span("cli.main"):
                rc_sim = self.cli.main(self.sim_argv)
            with contextlib.redirect_stdout(fit_out), self.tracer.span("cli.main"):
                rc_fit = self.cli.main(self.fit_argv)
        except Exception as exc:  # one failed operation, reported below
            return exc
        return rc_sim, rc_fit, fit_out.getvalue()

    def check(self, out, sample=0) -> list[list[str]]:
        if isinstance(out, BaseException):
            return [_failure(out)]
        rc_sim, rc_fit, fit_text = out
        if rc_sim != 0 or rc_fit != 0:
            return [[f"exit codes simulate {rc_sim}, fit-rate {rc_fit}"]]
        import numpy as np

        summary = json.loads(self.summary.read_text())
        energy = np.loadtxt(self.csv, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        return [gate.paper_problems(summary, json.loads(fit_text), energy,
                                    self.trajectories[-1],
                                    gate.load_reference("paper-rendezvous", self.t_end))]

    def final_states(self, out):
        return [(t.final.ensemble, t.params) for t in self.trajectories[-1:]]

    def held(self, out):
        return self.trajectories

    def output_bytes(self) -> int:
        return self.csv.stat().st_size if self.csv.exists() else 0


class SeedSweep(Workload):
    """Criterion 8's traffic: 20 seeded tight caps, check_initial + simulate each."""

    members = ops = 20

    def __init__(self, seed, span, tracer, out_dir):
        from sphereflock import ModelParams, SimConfig, paper_kernel, random_scenario

        self.tracer = tracer
        self.seed = seed
        self.params = ModelParams(paper_kernel(), 1.0)
        self.sim = SimConfig(dt=1e-3, t_end=float(span), frame_stride=10)
        with tracer.span("scenarios.build"):
            self.scenarios = [random_scenario(seed + k, 6, math.pi / 64, 0.01, self.params,
                                              sim=self.sim) for k in range(self.members)]
        self.n_agents = 6
        self.steps = self.members * int(round(self.sim.t_end / self.sim.dt))

    def hooks(self, stack):
        from sphereflock import diagnostics

        stack.enter_context(self.tracer.wrap(diagnostics, "make_frame",
                                             "diagnostics.make_frame"))

    def run(self):
        from sphereflock import check_initial, simulate

        results = []
        for sc in self.scenarios:
            try:
                with self.tracer.span("check_initial"):
                    report = check_initial(sc.ensemble, self.params)
                with self.tracer.span("simulate"):
                    results.append((report, simulate(sc.ensemble, self.params, self.sim)))
            except Exception as exc:  # one failed operation, reported below
                results.append(exc)
        return results

    def check(self, out, sample=0):
        """Every member against its recorded final frame, if its seed has one;
        member ``sample % 20`` also against plain RK4."""
        recorded = gate.load_reference("seed-sweep", self.sim.t_end, self.seed)
        problems = []
        for k, (sc, r) in enumerate(zip(self.scenarios, out)):
            if isinstance(r, BaseException):
                problems.append(_failure(r))
                continue
            report, traj = r
            found = gate.report_problems(report) + gate.trajectory_problems(traj, self.sim)
            if recorded is not None:
                found += gate.reference_problems(traj, recorded[k])
            if k == sample % self.members:
                found += gate.plain_rk4_problems(traj, sc.ensemble, self.sim)
            problems.append(found)
        return problems

    def final_states(self, out):
        return [(r[1].final.ensemble, self.params) for r in out
                if not isinstance(r, BaseException)]

    def held(self, out):
        return [r[1] for r in out if not isinstance(r, BaseException)]


class EnergyLedger(Workload):
    """Criterion 3's path: energy_audit with per-step dissipation, dt = 2.5e-4."""

    dt = 2.5e-4

    def __init__(self, seed, span, tracer, out_dir):
        from sphereflock import paper_scenario

        self.tracer = tracer
        with tracer.span("scenarios.build"):
            self.scenario = paper_scenario(1.0)
        self.t_end = float(span)
        self.n_agents = 6
        self.steps = int(round(self.t_end / self.dt))
        self.last_state: list = []

    def hooks(self, stack):
        from sphereflock import diagnostics

        stack.enter_context(patched(diagnostics, "pairwise_dissipation",
                                    keep_first_arg(self.last_state)))
        stack.enter_context(self.tracer.wrap(diagnostics, "pairwise_dissipation",
                                             "diagnostics.pairwise_dissipation"))

    def run(self):
        from sphereflock.integrator import energy_audit

        sc = self.scenario
        try:
            with self.tracer.span("energy_audit"):
                return energy_audit(sc.ensemble, sc.params, dt=self.dt, t_end=self.t_end)
        except Exception as exc:  # one failed operation, reported below
            return exc

    def check(self, out, sample=0):
        if isinstance(out, BaseException):
            return [_failure(out)]
        final = self.last_state[0] if self.last_state else None
        return [gate.ledger_problems(out, final, self.scenario.params,
                                     gate.load_reference("energy-ledger", self.t_end))]

    def final_states(self, out):
        return [(s, self.scenario.params) for s in self.last_state]


class Crowd256(Workload):
    """256 agents in a wide cap, stride-1 frames: the O(n^2) tables at scale."""

    def __init__(self, seed, span, tracer, out_dir):
        from sphereflock import ModelParams, SimConfig, paper_kernel, random_scenario

        self.tracer = tracer
        self.seed = seed
        self.params = ModelParams(paper_kernel(), 1.0)
        self.sim = SimConfig(dt=1e-3, t_end=int(span) * 1e-3, frame_stride=1)
        with tracer.span("scenarios.build"):
            self.scenario = random_scenario(seed, 256, 0.5, 0.1, self.params, sim=self.sim)
        self.n_agents = 256
        self.steps = int(span)

    def hooks(self, stack):
        from sphereflock import diagnostics

        stack.enter_context(self.tracer.wrap(diagnostics, "make_frame",
                                             "diagnostics.make_frame"))

    def run(self):
        from sphereflock import simulate

        try:
            with self.tracer.span("simulate"):
                return simulate(self.scenario.ensemble, self.params, self.sim)
        except Exception as exc:  # one failed operation, reported below
            return exc

    def check(self, out, sample=0):
        """Against plain RK4, and against the recorded final frame if the seed has one."""
        if isinstance(out, BaseException):
            return [_failure(out)]
        recorded = gate.load_reference("crowd-256", self.steps, self.seed)
        problems = (gate.crowd_problems(out, self.sim)
                    + gate.plain_rk4_problems(out, self.scenario.ensemble, self.sim))
        if recorded is not None:
            problems += gate.reference_problems(out, recorded)
        return [problems]

    def final_states(self, out):
        return [] if isinstance(out, BaseException) else [(out.final.ensemble, self.params)]

    def held(self, out):
        return [] if isinstance(out, BaseException) else [out]


WORKLOADS = {
    "paper-rendezvous": PaperRendezvous,
    "seed-sweep": SeedSweep,
    "energy-ledger": EnergyLedger,
    "crowd-256": Crowd256,
}

# Span name -> the layer whose time it is.  "workload" is the root span; its
# self time is the part of the traced wall time no layer span covers.
LAYER_OF_SPAN = {
    "workload": "unattributed",
    "cli.main": "cli",
    "cli.build_scenario": "scenarios",
    "scenarios.build": "scenarios",
    "cli.check_initial": "admissibility",
    "check_initial": "admissibility",
    "cli.simulate": "integrator",
    "simulate": "integrator",
    "energy_audit": "integrator",
    "diagnostics.make_frame": "frame",
    "diagnostics.pairwise_dissipation": "dissipation",
    "cli.fit_decay_rate": "fit",
    "cli.write_frames_csv": "csv",
    "cli.read_frames_csv": "csv",
    "cli.write_json": "json",
}


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: number of spans, summed duration and summed self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {layer: {"count": 0, "total": 0.0, "self": 0.0}
              for layer in set(LAYER_OF_SPAN.values())}
    for (name, start, end, _), inner in zip(spans, child_time):
        layer = totals[LAYER_OF_SPAN[name]]
        layer["count"] += 1
        layer["total"] += end - start
        layer["self"] += end - start - inner
    return totals


def per_call_us(fn, arg_lists, repeat: int) -> float:
    times = []
    for args in arg_lists:
        for _ in range(repeat):
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6 if times else 0.0


def held_bytes(objects) -> int:
    """Bytes tracemalloc sees held by a deep copy of ``objects``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        duplicate = copy.deepcopy(objects)
        held = tracemalloc.get_traced_memory()[0] - before
        del duplicate
    finally:
        tracemalloc.stop()
    return held


def layer_metrics(work, out, spans) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (see README.md)."""
    from sphereflock import dynamics, geometry

    t = layer_totals(spans)

    def per_call(layer):
        n = t[layer]["count"]
        return t[layer]["total"] / n * 1e6 if n else 0.0

    states = work.final_states(out)
    repeat = 5 if work.n_agents > 64 else 50
    wall = t["unattributed"]["total"]
    return {
        "integrator.steps": work.steps,
        "integrator.step_us": t["integrator"]["self"] / work.steps * 1e6,
        "integrator.trajectory_bytes": held_bytes(work.held(out)),
        "dynamics.rhs_calls": 4 * work.steps,
        "dynamics.rhs_us": per_call_us(dynamics.rhs, states, repeat),
        "geometry.transport_us": per_call_us(
            geometry.pairwise_transport, [(s.positions, s.velocities) for s, _ in states], repeat),
        "diagnostics.frames": t["frame"]["count"],
        "diagnostics.frame_us": per_call("frame"),
        "diagnostics.dissipation_calls": t["dissipation"]["count"],
        "diagnostics.dissipation_us": per_call("dissipation"),
        "diagnostics.fit_us": per_call("fit"),
        "output.csv_s": t["csv"]["total"],
        "output.csv_bytes": work.output_bytes(),
        "output.json_s": t["json"]["total"],
        "cli.self_s": t["cli"]["self"],
        "admissibility.checks": t["admissibility"]["count"],
        "admissibility.check_us": per_call("admissibility"),
        "scenarios.build_s": t["scenarios"]["total"],
        "trace.wall_s": wall,
        "trace.unattributed_s": t["unattributed"]["self"],
    }


def environment() -> dict:
    import numpy as np
    from sphereflock import _fast, paper_kernel

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": "numba" if _fast.available(paper_kernel()) else "numpy",
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_package():
    """Import sphereflock from this checkout's src/, or exit with EXIT_NO_PACKAGE."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sphereflock
    except ImportError as exc:
        print(f"cannot import sphereflock from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    if not Path(sphereflock.__file__).resolve().is_relative_to(src.resolve()):
        print(f"sphereflock imported from {sphereflock.__file__}, not {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)


def run_once(name: str, seed: int, smoke: bool, trace: bool, out_dir: Path, t0: float,
             sample: int = 0) -> dict:
    import_package()
    tracer = Tracer() if trace else NoTracer()
    work = WORKLOADS[name](seed, SPANS[name][smoke], tracer, out_dir)
    ready = time.perf_counter()
    yard_before = yardstick.seconds(work.n_agents)
    with contextlib.ExitStack() as hooks:
        work.hooks(hooks)
        start = time.perf_counter()
        with tracer.span("workload"):
            out = work.run()
        done = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    yard_after = yardstick.seconds(work.n_agents)
    problems = work.check(out, sample)
    speed = (yard_before + yard_after) / 2.0 / yardstick.NOMINAL_S
    result = {
        "setup_s": (ready - t0) / speed,
        "wall_s": (done - start) / speed,
        "raw": {"setup_s": ready - t0, "wall_s": done - start,
                "yardstick_s": [yard_before, yard_after]},
        "agent_steps": work.n_agents * work.steps,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "environment": environment(),
    }
    if trace:
        layers = layer_metrics(work, out, tracer.spans)
        result["layers"] = {k: v / speed if k.endswith(("_s", "_us")) else v
                            for k, v in layers.items()}
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    return result


def record_reference() -> None:
    import_package()
    table = {"paper-rendezvous": {}, "energy-ledger": {}}
    scratch = ROOT / ".perfbench_out" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    for span in SPANS["paper-rendezvous"]:
        work = PaperRendezvous(0, span, NoTracer(), scratch)
        with contextlib.ExitStack() as hooks:
            work.hooks(hooks)
            work.run()
        summary = json.loads(work.summary.read_text())
        table["paper-rendezvous"][repr(float(span))] = {"final_frame": summary["final_frame"]}
    for span in SPANS["energy-ledger"]:
        audit = EnergyLedger(0, span, NoTracer(), scratch).run()
        table["energy-ledger"][repr(float(span))] = {"e_end": audit.e_end,
                                                     "dissipated": audit.dissipated}

    def final_frame(traj):
        d = dataclasses.asdict(traj.final.diagnostics)
        return {name: d[name] for name in gate.REFERENCE_FIELDS}

    for name in ("seed-sweep", "crowd-256"):
        for span in SPANS[name]:
            by_seed = table.setdefault(name, {}).setdefault(repr(float(span)), {})
            for seed in REFERENCE_SEEDS:
                out = WORKLOADS[name](seed, span, NoTracer(), scratch).run()
                by_seed[str(seed)] = ([final_frame(traj) for _, traj in out]
                                      if name == "seed-sweep" else final_frame(out))
    gate.REFERENCE_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None or args.t0 is None or args.out is None:
        parser.error("--workload, --t0 and --out are required")
    result = run_once(args.workload, args.seed, args.smoke, bool(args.trace), args.out, args.t0,
                      args.sample)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
