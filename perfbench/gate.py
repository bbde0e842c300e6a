"""Correctness gate applied to every operation the benchmark times.

Each function returns a list of problems; an empty list means the output
passed.  The bounds are the README's: per-step pre-projection drift
(radial <= 1e-10, tangency <= 1e-9), frame-to-frame energy non-increase
within 1e-8 relative, and the dissipation identity at the final state
within 1e-10 (scaled by max(1, |dE/dt|), as acceptance criterion 3 does).
A simulate call must also return the frame count its config asks for,
ending at t_end, match the final frame recorded in reference.json where
its seed has one, and (for the member the workload picks) reach the state
a plain per-step loop over the public ``rk4_step`` reaches.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

MAX_RADIAL = 1e-10
MAX_TANGENCY = 1e-9
MAX_ENERGY_RISE = 1e-8
MAX_RESIDUAL = 1e-10
MAX_SLACK = 1e-6
REFERENCE_RTOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Final-frame fields compared against the recorded reference.  The drift
# fields are rounding noise (~1e-16) with no stable relative value; they are
# bounded absolutely instead.
REFERENCE_FIELDS = ("t", "e_total", "e_kinetic", "e_config", "d_x", "d_v", "v_max",
                    "flock_align", "antipode_margin", "x_max")


def load_reference(workload: str, span, seed=None):
    """Recorded outputs for a workload at one span (and seed), if any."""
    if not REFERENCE_PATH.exists():
        return None
    recorded = json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(repr(float(span)))
    if seed is None or recorded is None:
        return recorded
    return recorded.get(str(seed))


def drift_problems(radial: float, tangency: float) -> list[str]:
    problems = []
    if not radial <= MAX_RADIAL:
        problems.append(f"pre-projection radial drift {radial:.3e} > {MAX_RADIAL:.0e}")
    if not tangency <= MAX_TANGENCY:
        problems.append(f"pre-projection tangency drift {tangency:.3e} > {MAX_TANGENCY:.0e}")
    return problems


def energy_problems(e) -> list[str]:
    e = np.asarray(e, dtype=float)
    if e.size == 0 or not np.all(np.isfinite(e)):
        return ["energy series empty or non-finite"]
    if e.size < 2:
        return []
    worst = float(np.max(np.diff(e) / np.maximum(1.0, e[:-1])))
    if worst > MAX_ENERGY_RISE:
        return [f"energy rose by {worst:.3e} (relative) between frames"]
    return []


def residual_problems(ensemble, params) -> list[str]:
    from sphereflock.diagnostics import dissipation_residual, energy_rate

    res = dissipation_residual(ensemble, params)
    scaled = res / max(1.0, abs(energy_rate(ensemble, params)))
    if not scaled <= MAX_RESIDUAL:
        return [f"dissipation residual {scaled:.3e} > {MAX_RESIDUAL:.0e} at the final state"]
    return []


def report_problems(report) -> list[str]:
    """check_initial's verdicts must be its finite margins' signs."""
    d = report.as_dict()
    values = [d["v_initial"], d["e_initial"], d["x_initial"], d["bound_x"],
              *d["margins"].values(), *d["thresholds"].values()]
    if not all(math.isfinite(v) for v in values):
        return ["admissibility report has non-finite values"]
    margins = d["margins"]
    if [d["verdict_v"], d["verdict_e"], d["verdict_x"]] != [margins[k] > 0 for k in "vex"]:
        return ["admissibility verdicts disagree with their margins"]
    return []


def shape_problems(traj, sim) -> list[str]:
    """The frame count ``sim`` asks for, the last frame at t_end."""
    want = int(round(sim.t_end / sim.dt)) // sim.frame_stride + 1
    if len(traj.frames) != want:
        return [f"{len(traj.frames)} frames, expected {want}"]
    final = traj.final
    if not (math.isclose(final.time, sim.t_end, rel_tol=1e-12)
            and math.isclose(final.diagnostics.t, sim.t_end, rel_tol=1e-12)):
        return [f"last frame at t = {final.time!r} ({final.diagnostics.t!r}), "
                f"expected {sim.t_end!r}"]
    return []


def trajectory_problems(traj, sim) -> list[str]:
    """Gate shared by every simulate call: shape, drift, energy, dissipation identity."""
    if not traj.frames:
        return ["trajectory has no frames"]
    return (shape_problems(traj, sim)
            + drift_problems(traj.max_step_radial, traj.max_step_tangency)
            + energy_problems(traj.series("e_total"))
            + residual_problems(traj.final.ensemble, traj.params))


def reference_problems(traj, reference: dict) -> list[str]:
    """The final frame against the one recorded in reference.json."""
    if not traj.frames:
        return []
    return _relative_mismatches(dataclasses.asdict(traj.final.diagnostics), reference,
                                REFERENCE_FIELDS)


def plain_rk4_problems(traj, e0, sim) -> list[str]:
    """The final state against the one plain RK4 reaches from ``e0``."""
    if not traj.frames:
        return []
    return state_problems(traj.final.ensemble, plain_rk4(e0, traj.params, sim))


def plain_rk4(e0, params, sim):
    """The state ``simulate(e0, params, sim)`` should end in, one rk4_step at a time."""
    from sphereflock import rk4_step

    ensemble = e0
    for _ in range(int(round(sim.t_end / sim.dt))):
        ensemble = rk4_step(ensemble, sim.dt, params, sim.projection).ensemble
    return ensemble


def state_problems(got, want) -> list[str]:
    """Positions and velocities equal to REFERENCE_RTOL of the state's scale."""
    problems = []
    for name in ("positions", "velocities"):
        g, w = getattr(got, name), getattr(want, name)
        worst = float(np.max(np.abs(g - w))) if g.shape == w.shape else math.inf
        if not worst <= REFERENCE_RTOL * max(1.0, float(np.max(np.abs(w)))):
            problems.append(f"final {name} differ from plain RK4 by {worst:.3e}")
    return problems


def crowd_problems(traj, sim) -> list[str]:
    problems = trajectory_problems(traj, sim)
    margin = float(np.min(traj.series("antipode_margin"))) if traj.frames else math.nan
    if not margin > 0.0:
        problems.append(f"antipode_margin {margin} is not positive")
    return problems


def _relative_mismatches(got: dict, want: dict, fields) -> list[str]:
    bad = []
    for name in fields:
        g, w = float(got[name]), float(want[name])
        if not abs(g - w) <= REFERENCE_RTOL * abs(w):
            bad.append(f"{name} = {g!r} differs from the reference {w!r}")
    return bad


def paper_problems(summary: dict, fit_rate_out: dict, csv_energy, traj,
                   reference: dict | None) -> list[str]:
    """Gate for `simulate --preset paper-sigma1` followed by `fit-rate`."""
    problems = drift_problems(summary["max_step_drift"]["radial"],
                              summary["max_step_drift"]["tangency"])
    problems += energy_problems(csv_energy)
    problems += residual_problems(traj.final.ensemble, traj.params)
    fit = summary.get("fit")
    if fit is None:
        problems.append("summary has no fitted rate")
    elif fit_rate_out.get("rate") != fit["rate"]:
        problems.append(f"fit-rate gives {fit_rate_out.get('rate')!r}, "
                        f"the summary {fit['rate']!r}")
    final = summary["final_frame"]
    problems += drift_problems(final["drift_radial"], final["drift_tangency"])
    if reference is None:
        problems.append("no recorded reference for this span")
    else:
        problems += _relative_mismatches(final, reference["final_frame"], REFERENCE_FIELDS)
    return problems


def ledger_problems(audit, final_ensemble, params, reference: dict | None) -> list[str]:
    """Gate for energy_audit: ledger slack, energy decrease, identity, reference."""
    problems = []
    if not 0.0 <= audit.slack <= MAX_SLACK:
        problems.append(f"ledger slack {audit.slack:.3e} outside [0, {MAX_SLACK:.0e}]")
    problems += energy_problems([audit.e_start, audit.e_end])
    if final_ensemble is None:
        problems.append("final state not observed")
    else:
        problems += residual_problems(final_ensemble, params)
    if reference is None:
        problems.append("no recorded reference for this span")
    else:
        got = {"e_end": audit.e_end, "dissipated": audit.dissipated}
        problems += _relative_mismatches(got, reference, ("e_end", "dissipated"))
    return problems
