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
from .errors import ConfigError
from .integrator import Trajectory

CSV_COLUMNS = ("t", "E", "E_K", "E_C", "D_x", "D_v", "V_max", "flock_align",
               "antipode_margin", "drift_radial", "drift_tangency", "X_max")


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row with every value at 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def write_frames_csv(path, trajectory: Trajectory) -> None:
    _write_csv(path, CSV_COLUMNS, (frame.diagnostics.as_row() for frame in trajectory.frames))


def read_frames_csv(path) -> dict[str, np.ndarray]:
    """Columns of a frame CSV, keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ConfigError(f"CSV {path} has no rows below its header")
    data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"CSV width {data.shape[1]} does not match header {header}")
    return {name: data[:, k] for k, name in enumerate(header)}


def write_state_csv(path, trajectory: Trajectory) -> None:
    """Opt-in per-agent position dump, one row per recorded frame."""
    n = trajectory.frames[0].ensemble.n
    _write_csv(path, ["t"] + [f"x{i}_{c}" for i in range(1, n + 1) for c in "xyz"],
               ([frame.time, *frame.ensemble.positions.reshape(-1)]
                for frame in trajectory.frames))


def build_summary(label: str, trajectory: Trajectory, fit: RateFit | None,
                  admissibility: dict | None, runtime: dict, adjustments: dict) -> dict:
    """Run summary: thresholds and verdicts, final frame, fitted vs guaranteed rate.

    ``admissibility`` is None for runs without bonding (sigma = 0), where
    the guarantee calculus is undefined.
    """
    return {
        "label": label,
        "admissibility": admissibility,
        "delta_guaranteed": (admissibility["thresholds"]["delta"]
                            if admissibility is not None else None),
        "final_frame": dataclasses.asdict(trajectory.final.diagnostics),
        "initial_frame": dataclasses.asdict(trajectory.frames[0].diagnostics),
        "fit": dataclasses.asdict(fit) if fit is not None else None,
        "max_step_drift": {
            "radial": trajectory.max_step_radial,
            "tangency": trajectory.max_step_tangency,
        },
        "runtime": runtime,
        "input_adjustments": adjustments,
    }


def json_text(payload: dict) -> str:
    """The strict RFC 8259 JSON text of every file and stdout payload (NaN, inf raise)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def write_json(path, payload: dict) -> None:
    text = json_text(payload) + "\n"  # formed first: a rejected payload leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
