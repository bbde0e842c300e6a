"""Fixed-step RK4 time integration with constraint control.

The classical fourth-order scheme does not exactly preserve the sphere and
tangency constraints, so by default every step renormalizes positions and
re-projects velocities afterwards; the pre-projection drift is measured
each step and the running maximum kept on the trajectory so the
projection's magnitude stays auditable.  Fixed step only: the decay-rate
diagnostics depend on uniform sampling.

The inner loop dispatches to a compiled kernel (``_fast``) when numba is
installed and the communication kernel has a closed-form fast code;
otherwise a plain numpy loop with identical semantics runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fast, diagnostics
from .dynamics import Ensemble, ModelParams, _rhs_arrays, constraint_violation
from .errors import AntipodalPair


@dataclass(frozen=True)
class SimConfig:
    """Integration controls.

    dt defaults to 1e-3, small enough that per-step constraint drift and
    discrete energy monotonicity hold with margin on the benchmark runs.
    Frames are recorded every ``frame_stride`` steps.
    """

    dt: float = 1e-3
    t_end: float = 80.0
    projection: bool = True
    frame_stride: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError("t_end must be finite and nonnegative")
        if self.frame_stride < 1:
            raise ValueError("frame_stride must be at least 1")


@dataclass(frozen=True)
class StepResult:
    """One RK4 step plus the constraint drift measured before projection."""

    ensemble: Ensemble
    pre_radial: float
    pre_tangency: float


@dataclass(frozen=True)
class Frame:
    time: float
    ensemble: Ensemble
    diagnostics: "diagnostics.DiagnosticsFrame"


@dataclass
class Trajectory:
    """Recorded frames at uniform spacing dt * frame_stride.

    ``max_step_radial`` / ``max_step_tangency`` are the worst pre-projection
    per-step constraint violations seen over the whole run.  Immutable by
    convention once produced.
    """

    frames: list[Frame]
    params: ModelParams
    config: SimConfig
    max_step_radial: float = 0.0
    max_step_tangency: float = 0.0
    label: str = ""

    @property
    def times(self) -> np.ndarray:
        return np.array([f.time for f in self.frames])

    def series(self, name: str) -> np.ndarray:
        """Per-frame values of one DiagnosticsFrame field."""
        return np.array([getattr(f.diagnostics, name) for f in self.frames])

    @property
    def final(self) -> Frame:
        return self.frames[-1]


def constraint_drift(ensemble: Ensemble) -> tuple[float, float]:
    """(max_i |norm(x_i) - 1|, max_i |<v_i, x_i>|)."""
    return constraint_violation(ensemble.positions, ensemble.velocities)


def _rk4_raw(X, V, dt, params):
    """Reference numpy RK4 step for the second-order system (dx = v, dv = a)."""
    _, a1 = _rhs_arrays(X, V, params)
    half = 0.5 * dt
    v2 = V + half * a1
    _, a2 = _rhs_arrays(X + half * V, v2, params)
    v3 = V + half * a2
    _, a3 = _rhs_arrays(X + half * v2, v3, params)
    v4 = V + dt * a3
    _, a4 = _rhs_arrays(X + dt * v3, v4, params)
    sixth = dt / 6.0
    Xn = X + sixth * (V + 2.0 * (v2 + v3) + v4)
    Vn = V + sixth * (a1 + 2.0 * (a2 + a3) + a4)
    return Xn, Vn


def _project_raw(X, V):
    Xp = X / np.linalg.norm(X, axis=1, keepdims=True)
    Vp = V - (Xp * V).sum(axis=1, keepdims=True) * Xp
    return Xp, Vp


def rk4_step(ensemble: Ensemble, dt: float, params: ModelParams,
             project: bool = True) -> StepResult:
    """Advance one classical RK4 step (four right-hand-side evaluations).

    Local truncation error is O(dt^5) against the exact flow.  With
    ``project`` the result is renormalized to the sphere and re-projected
    to the tangent spaces; the drift measured beforehand is returned either
    way.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    X, V = _rk4_raw(ensemble.positions, ensemble.velocities, dt, params)
    radial, tangency = constraint_violation(X, V)
    if project:
        X, V = _project_raw(X, V)
    return StepResult(Ensemble(X, V), radial, tangency)


def _advance(X, V, dt, steps, params, project):
    """Advance `steps` steps in place; returns pre-projection drift maxima.

    Raises AntipodalPair with ``steps_done`` set to the count of completed
    steps within this call.
    """
    kernel = params.kernel
    if _fast.available(kernel):
        status, done, max_r, max_t = _fast.advance(
            X, V, dt, steps, params.sigma, kernel.fast_code, kernel.fast_param,
            project)
        if status != 0:
            k, i = divmod(status - 1, X.shape[0])
            exc = AntipodalPair(f"agents {k} and {i} are antipodal", pair=(k, i))
            exc.steps_done = done
            raise exc
        return max_r, max_t
    max_r = 0.0
    max_t = 0.0
    for s in range(steps):
        try:
            Xn, Vn = _rk4_raw(X, V, dt, params)
        except AntipodalPair as exc:
            exc.steps_done = s
            raise
        radial, tangency = constraint_violation(Xn, Vn)
        max_r = max(max_r, radial)
        max_t = max(max_t, tangency)
        if project:
            Xn, Vn = _project_raw(Xn, Vn)
        X[:] = Xn
        V[:] = Vn
    return max_r, max_t


@dataclass(frozen=True)
class EnergyAudit:
    """Discrete ledger for the energy inequality over one run.

    ``slack`` = E(t_end) + trapezoidal integral of the dissipation sum
    - E(0).  Exactly integrated solutions give 0; the trapezoid
    overestimates the convex decaying dissipation, so slack comes out
    slightly positive and shrinks as O(dt^2).  The step must resolve the
    initial alignment transient, which decays at roughly the communication
    rate at contact.
    """

    e_start: float
    e_end: float
    dissipated: float
    slack: float
    dt: float
    t_end: float


def energy_audit(e0: Ensemble, params: ModelParams, dt: float, t_end: float,
                 project: bool = True) -> EnergyAudit:
    """Integrate with per-step (stride-1) trapezoidal dissipation accounting."""
    X = e0.positions.copy()
    V = e0.velocities.copy()
    kernel = params.kernel
    fast = _fast.available(kernel)

    def dissipation_now() -> float:
        if fast:
            return float(_fast.dissipation(X, V, kernel.fast_code, kernel.fast_param))
        return diagnostics.pairwise_dissipation(Ensemble(X, V, validate=False), params)

    e_start = diagnostics.energy(e0, params.sigma)[0]
    n_steps = int(round(t_end / dt))
    prev = dissipation_now()
    total = 0.0
    for _ in range(n_steps):
        _advance(X, V, dt, 1, params, project)
        cur = dissipation_now()
        total += 0.5 * (prev + cur) * dt
        prev = cur
    e_end = diagnostics.energy(Ensemble(X, V, validate=project), params.sigma)[0]
    return EnergyAudit(e_start=e_start, e_end=e_end, dissipated=total,
                       slack=e_end + total - e_start, dt=dt, t_end=t_end)


def simulate(e0: Ensemble, params: ModelParams, config: SimConfig,
             label: str = "") -> Trajectory:
    """Integrate from e0 to t_end, recording a frame every frame_stride steps.

    Deterministic for fixed inputs.  An antipodal configuration aborts the
    run: the raised AntipodalPair carries the failing time and the partial
    trajectory recorded so far.
    """
    n_steps = int(round(config.t_end / config.dt))
    frames: list[Frame] = []
    traj = Trajectory(frames, params, config, label=label)

    X = e0.positions.copy()
    V = e0.velocities.copy()
    e0.check()

    def record(step: int) -> None:
        # Without projection the state drifts off the constraint manifold by
        # design; only projected runs promise frames meeting the invariants.
        ens = Ensemble(X, V, validate=config.projection)
        frames.append(Frame(step * config.dt, ens,
                            diagnostics.make_frame(step * config.dt, ens, params)))

    record(0)
    stride = config.frame_stride
    chunks, remainder = divmod(n_steps, stride)
    step = 0
    for chunk_steps in [stride] * chunks + ([remainder] if remainder else []):
        try:
            max_r, max_t = _advance(X, V, config.dt, chunk_steps, params,
                                    config.projection)
        except AntipodalPair as exc:
            exc.time = (step + getattr(exc, "steps_done", 0)) * config.dt
            exc.partial_trajectory = traj
            raise
        traj.max_step_radial = max(traj.max_step_radial, max_r)
        traj.max_step_tangency = max(traj.max_step_tangency, max_t)
        step += chunk_steps
        if step % stride == 0:
            record(step)
    return traj
