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
from .dynamics import (Ensemble, ModelParams, _rhs_and_dissipation, _rhs_arrays,
                       constraint_violation)
from .errors import AntipodalPair, NonFinite
from .geometry import project_state


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


def _worst(a: float, b: float) -> float:
    """max(a, b), NaN if either is (Python's max(x, nan) returns x)."""
    return b if b > a or b != b else a


def _rk4_raw(X, V, a1, dt, params):
    """Reference numpy RK4 step for the second-order system (dx = v, dv = a),
    given the stage-one acceleration a1 at (X, V)."""
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


def _step(X, V, a1, dt, params, project):
    """The numpy step from (X, V) with acceleration a1 there: RK4, then the
    drift (radial, tangency) of its result, then optionally the projection
    back onto the sphere and tangent planes."""
    Xn, Vn = _rk4_raw(X, V, a1, dt, params)
    radial, tangency = constraint_violation(Xn, Vn)
    if project:
        Xn, Vn = project_state(Xn, Vn)
    return Xn, Vn, radial, tangency


def rk4_step(ensemble: Ensemble, dt: float, params: ModelParams,
             project: bool = True) -> StepResult:
    """Advance one classical RK4 step (four right-hand-side evaluations).

    Local truncation error is O(dt^5) against the exact flow.  With
    ``project`` the result is renormalized to the sphere and re-projected
    to the tangent spaces; without it the result is returned unvalidated.
    The drift measured beforehand is returned either way.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    X, V = ensemble.positions, ensemble.velocities
    X, V, radial, tangency = _step(X, V, _rhs_arrays(X, V, params)[1], dt, params, project)
    return StepResult(Ensemble(X, V, validate=project), radial, tangency)


def _advance(X, V, dt, steps, params, project):
    """Advance `steps` steps in place; returns pre-projection drift maxima.

    Raises AntipodalPair with ``steps_done`` set to the count of completed
    steps within this call, and NonFinite if the state is not finite after
    them (NaN and inf persist, so one check per call suffices).
    """
    kernel = params.kernel
    if _fast.available(kernel):
        status, done, max_r, max_t = _fast.advance(
            X, V, dt, steps, params.sigma, kernel.fast_code, kernel.fast_param,
            project)
        if status != 0:
            # status = 1 + k n + i; the i-outer loop meets a pair first at i < k
            k, i = divmod(status - 1, X.shape[0])
            exc = AntipodalPair.between(i, k)
            exc.steps_done = done
            raise exc
    else:
        max_r = max_t = 0.0
        for s in range(steps):
            try:
                Xn, Vn, radial, tangency = _step(X, V, _rhs_arrays(X, V, params)[1], dt,
                                                 params, project)
            except AntipodalPair as exc:
                exc.steps_done = s
                raise
            max_r, max_t = _worst(max_r, radial), _worst(max_t, tangency)
            X[:] = Xn
            V[:] = Vn
    if not (np.isfinite(X).all() and np.isfinite(V).all()):
        raise NonFinite(f"the state is not finite after {steps} steps of dt = {dt:g}")
    return max_r, max_t


@dataclass(frozen=True)
class EnergyAudit:
    """Discrete ledger for the energy inequality over one run.

    ``slack`` = E(t_end) + trapezoidal integral of the dissipation sum
    - E(0).  Exactly integrated solutions give 0; the trapezoid
    overestimates the convex decaying dissipation, so slack comes out
    slightly positive and shrinks as O(dt^2).  The step must resolve the
    initial alignment transient, which decays at roughly the communication
    rate at contact.  ``max_step_radial`` / ``max_step_tangency`` are the
    worst pre-projection drifts of the run's steps, as on a Trajectory.
    """

    e_start: float
    e_end: float
    dissipated: float
    slack: float
    dt: float
    t_end: float
    max_step_radial: float
    max_step_tangency: float


def _ledger_numpy(X, V, dt, n_steps, params):
    """Yield (radial drift, tangency drift, D) for the start state and after
    each projected step, advancing X, V in place.

    One pair pass per state gives both D and the next step's stage-one
    acceleration, so a step costs four pair passes.  The final state's D
    comes from the independent ``pairwise_dissipation``.
    """
    a1, rate = _rhs_and_dissipation(X, V, params)
    yield 0.0, 0.0, rate
    for s in range(1, n_steps + 1):
        Xn, Vn, radial, tangency = _step(X, V, a1, dt, params, True)
        X[:] = Xn
        V[:] = Vn
        if s < n_steps:
            a1, rate = _rhs_and_dissipation(X, V, params)
        else:
            rate = diagnostics.pairwise_dissipation(Ensemble(X, V, validate=False), params)
        yield radial, tangency, rate


def _ledger_fast(X, V, dt, n_steps, params):
    """``_ledger_numpy`` through the compiled step and dissipation loops."""
    kernel = params.kernel

    def rate() -> float:
        return float(_fast.dissipation(X, V, kernel.fast_code, kernel.fast_param))

    yield 0.0, 0.0, rate()
    for _ in range(n_steps):
        yield *_advance(X, V, dt, 1, params, project=True), rate()


def energy_audit(e0: Ensemble, params: ModelParams, dt: float, t_end: float) -> EnergyAudit:
    """Integrate with projection and per-step (stride-1) trapezoidal dissipation accounting.

    Also records the worst pre-projection step drift.  Raises NonFinite,
    with ``time`` the last state whose dissipation sum was finite, as soon
    as the sum is not finite.
    """
    X = e0.positions.copy()
    V = e0.velocities.copy()
    e_start = diagnostics.energy(e0, params.sigma)[0]
    n_steps = int(round(t_end / dt))
    ledger = _ledger_fast if _fast.available(params.kernel) else _ledger_numpy
    steps = ledger(X, V, dt, n_steps, params)
    prev = next(steps)[2]
    total = max_r = max_t = t_finite = 0.0
    try:
        for s, (radial, tangency, cur) in enumerate(steps, 1):
            if not math.isfinite(cur):
                raise NonFinite(f"the dissipation sum is {cur} at t = {s * dt:g}")
            total += 0.5 * (prev + cur) * dt
            prev = cur
            max_r, max_t = _worst(max_r, radial), _worst(max_t, tangency)
            t_finite = s * dt
    except NonFinite as exc:
        exc.time = t_finite
        raise
    e_end = diagnostics.energy(Ensemble(X, V), params.sigma)[0]
    return EnergyAudit(e_start=e_start, e_end=e_end, dissipated=total,
                       slack=e_end + total - e_start, dt=dt, t_end=t_end,
                       max_step_radial=max_r, max_step_tangency=max_t)


def simulate(e0: Ensemble, params: ModelParams, config: SimConfig,
             label: str = "") -> Trajectory:
    """Integrate from e0 to t_end, recording a frame every frame_stride steps.

    Deterministic for fixed inputs.  An antipodal configuration aborts the
    run: the raised AntipodalPair carries the failing time and the partial
    trajectory recorded so far.  A state that stops being finite aborts it
    the same way with NonFinite, whose time is that of the last frame.
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
        except (AntipodalPair, NonFinite) as exc:
            exc.time = (step + getattr(exc, "steps_done", 0)) * config.dt
            exc.partial_trajectory = traj
            raise
        traj.max_step_radial = _worst(traj.max_step_radial, max_r)
        traj.max_step_tangency = _worst(traj.max_step_tangency, max_t)
        step += chunk_steps
        if step % stride == 0:
            record(step)
    return traj
