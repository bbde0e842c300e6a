"""Frame CSV and summary JSON emission.

The frame CSV column contract (exact, ordered):

    t, E, E_K, E_C, D_x, D_v, V_max, flock_align, antipode_margin,
    drift_radial, drift_tangency, X_max

Values are printed with 17 significant digits so parsing them back yields
bit-identical doubles.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import fmt_float
from .diagnostics import RateFit
from .integrator import Trajectory

CSV_COLUMNS = ("t", "E", "E_K", "E_C", "D_x", "D_v", "V_max", "flock_align",
               "antipode_margin", "drift_radial", "drift_tangency", "X_max")


def write_frames_csv(path, trajectory: Trajectory) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for frame in trajectory.frames:
            fh.write(",".join(fmt_float(v) for v in frame.diagnostics.as_row()) + "\n")


def read_frames_csv(path) -> dict[str, np.ndarray]:
    """Columns of a frame CSV, keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"CSV width {data.shape[1]} does not match header {header}")
    return {name: data[:, k] for k, name in enumerate(header)}


def write_state_csv(path, trajectory: Trajectory) -> None:
    """Opt-in per-agent position dump, one row per recorded frame."""
    n = trajectory.frames[0].ensemble.n
    cols = ["t"] + [f"x{i}_{c}" for i in range(1, n + 1) for c in "xyz"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for frame in trajectory.frames:
            row = [frame.time] + list(frame.ensemble.positions.reshape(-1))
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def frame_dict(diag) -> dict:
    return {k: float(v) for k, v in dataclasses.asdict(diag).items()}


def fit_dict(fit: RateFit) -> dict:
    return dict(dataclasses.asdict(fit), window=list(fit.window))


def build_summary(label: str, trajectory: Trajectory, fit: RateFit | None,
                  admissibility: dict | None, runtime: dict,
                  adjustments: dict | None = None) -> dict:
    """Run summary: thresholds and verdicts, final frame, fitted vs guaranteed rate.

    ``admissibility`` is None for runs without bonding (sigma = 0), where
    the guarantee calculus is undefined.
    """
    summary = {
        "label": label,
        "admissibility": admissibility,
        "delta_guaranteed": (admissibility["thresholds"]["delta"]
                            if admissibility is not None else None),
        "final_frame": frame_dict(trajectory.final.diagnostics),
        "initial_frame": frame_dict(trajectory.frames[0].diagnostics),
        "fit": fit_dict(fit) if fit is not None else None,
        "max_step_drift": {
            "radial": trajectory.max_step_radial,
            "tangency": trajectory.max_step_tangency,
        },
        "runtime": runtime,
    }
    if adjustments:
        summary["input_adjustments"] = adjustments
    return summary


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
