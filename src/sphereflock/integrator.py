"""Fixed-step RK4 time integration with constraint control.

The classical fourth-order scheme does not exactly preserve the sphere and
tangency constraints, so by default every step renormalizes positions and
re-projects velocities afterwards; the pre-projection drift is measured
each step and the running maximum kept on the trajectory so the
projection's magnitude stays auditable.  Fixed step only: the decay-rate
diagnostics depend on uniform sampling.

One stepping loop, ``_run``, serves both entry points.  It advances whole
chunks and yields the state at each boundary: ``simulate`` records a frame
there, its chunk a frame stride, and ``energy_audit`` closes the trapezoid of
dissipation sums that the loop keeps, its chunk one step.  A run owns one
``dynamics._Workspace`` and builds the pair tables of each state it holds
on it, with ``_pair_tables``: each RK4 stage's, for that stage's pair pass,
and each boundary state's once, for its frame and the next chunk's first
RK4 stage.  So the tables ``_run`` yields are views into the workspace's
buffers, valid only until the run resumes.  The workspace also holds the
run's state and RK4 stages, as (x, v, a) blocks.  ``rk4_step`` takes the
same step on a workspace of its own, so a loop of it stays an independent
replay of ``simulate``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import diagnostics, dynamics
from .dynamics import Ensemble, ModelParams, _pair_tables, _rhs_and_dissipation, _Workspace
from .errors import AntipodalPair, NonFinite
from .geometry import _drift_and_project


@dataclass(frozen=True)
class SimConfig:
    """Integration controls.

    dt defaults to 1e-3, small enough that per-step constraint drift and
    discrete energy monotonicity hold with margin on the benchmark runs.
    Frames are recorded every ``frame_stride`` steps, and only whole strides
    are integrated: a run ends at its last frame.
    """

    dt: float = 1e-3
    t_end: float = 80.0
    projection: bool = True
    frame_stride: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0
                and math.isfinite(self.t_end / self.dt)):
            raise ValueError("t_end must be finite and nonnegative, with t_end / dt finite")
        stride = self.frame_stride
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValueError(f"frame_stride must be an integer of at least 1, got {stride!r}")

    @property
    def n_steps(self) -> int:
        """Steps of size dt to t_end, rounded to the nearest whole step."""
        return int(round(self.t_end / self.dt))


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
    """Recorded frames at uniform spacing dt * frame_stride, the last the run's end.

    ``max_step_radial`` / ``max_step_tangency`` are the worst pre-projection
    per-step constraint violations seen over the whole run.  Immutable by
    convention once produced.
    """

    frames: list[Frame]
    params: ModelParams
    max_step_radial: float = 0.0
    max_step_tangency: float = 0.0

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


def _step(ws, dt, params, project):
    """The numpy step of the state Y = [X, V] in ws's stage blocks, in place, with
    its acceleration in ws.a: classical RK4 for dx = v, dv = a, then the drift
    (radial, tangency) of its result, returned, and optionally the projection,
    both from ``_drift_and_project``.  Stage s is Y + c F_(s-1), F_s = [v_s, a_s],
    and the result Y + dt/6 (F_0 + 2 (F_1 + F_2) + F_3), in the textbook's order."""
    half = 0.5 * dt
    y = ws.y
    for (f, ys, a), c in zip(ws.rk, (half, half, dt)):
        np.multiply(f, c, out=ys)
        np.add(y, ys, out=ys)
        dynamics._pair_pass(ys, params, _pair_tables(ys[0], ys[1], ws), out=a)
    f0, f1, f2, f3 = ws.derivs
    np.add(f1, f2, out=f1)
    f1 *= 2.0
    f1 += f0
    f1 += f3
    f1 *= dt / 6.0
    y += f1
    return _drift_and_project(y, project)


def rk4_step(ensemble: Ensemble, dt: float, params: ModelParams,
             project: bool = True) -> StepResult:
    """Advance one classical RK4 step (four right-hand-side evaluations).

    Local truncation error is O(dt^5) against the exact flow.  With
    ``project`` the result is renormalized to the sphere and re-projected
    to the tangent spaces; without it the result is returned unvalidated.
    The drift measured beforehand is returned either way.
    """
    SimConfig(dt=dt)  # the one rule for a step: finite and positive
    ws = _Workspace(ensemble.n, (ensemble.positions, ensemble.velocities))
    dynamics._pair_pass(ws.y, params, _pair_tables(ws.x, ws.v, ws), out=ws.a)
    radial, tangency = _step(ws, dt, params, project)
    return StepResult(Ensemble(ws.x, ws.v, validate=project), radial, tangency)


def _run(X, V, dt, chunks, stride, params, project):
    """Advance a copy of (X, V) by `chunks` chunks of `stride` steps each.

    Yields (steps done, X, V, worst radial drift, worst tangency drift, tables,
    (dissipated, rate)) for the state at each chunk boundary, the initial state
    first: X and V are the run's state, held in its workspace and advanced in
    place, the drifts the running pre-projection maxima, tables that state's
    ``_pair_tables``, built once for its frame and the next chunk's k1, in the
    run's one workspace: views into its buffers, valid only until the run
    resumes.  rate is the dissipation sum D at the last chunk's start, from its
    first k1 (None before the first step), and dissipated the trapezoid of the
    chunk starts' D up to there, spaced stride * dt.

    Raises AntipodalPair with ``time`` the start of the step that met the
    pair, and NonFinite with ``time`` that of the chunk's start state if
    the state is not finite after the chunk (NaN and inf persist, so one
    check per chunk suffices).
    """
    ws = _Workspace(X.shape[0], (X, V))
    X, V, state, a1 = ws.x, ws.v, ws.y, ws.a
    max_r, max_t, dissipated, rate = 0.0, 0.0, 0.0, None
    for done in range(0, chunks * stride + 1, stride):
        tables = _pair_tables(X, V, ws)
        yield done, X, V, max_r, max_t, tables, (dissipated, rate)
        if done == chunks * stride:
            return
        s = 0
        try:
            last, rate = rate, _rhs_and_dissipation(state, params, tables, out=a1)[1]
            if last is not None:
                dissipated += 0.5 * (last + rate) * (stride * dt)
            for s in range(stride):
                if s:
                    dynamics._pair_pass(state, params, _pair_tables(X, V, ws), out=a1)
                radial, tangency = _step(ws, dt, params, project)
                max_r, max_t = _worst(max_r, radial), _worst(max_t, tangency)
        except AntipodalPair as exc:
            exc.time = (done + s) * dt
            raise
        if not np.isfinite(state).all():
            raise NonFinite(f"the state is not finite after {stride} steps of dt = {dt:g}",
                            time=done * dt)


@dataclass(frozen=True)
class EnergyAudit:
    """Discrete ledger for the energy inequality over one run.

    ``slack`` = E(t_end) + trapezoidal integral of the dissipation sum
    - E(0).  Exactly integrated solutions give 0; the trapezoid
    overestimates the convex decaying dissipation, so slack comes out
    slightly positive and shrinks as O(dt^2).  The step must resolve the
    initial alignment transient, which decays at roughly the communication
    rate at contact.  ``t_end`` is the time the ledger closes, n_steps * dt in
    SimConfig's whole steps.  ``max_step_radial`` / ``max_step_tangency`` are
    the worst pre-projection drifts of the run's steps, as on a Trajectory.
    """

    e_start: float
    e_end: float
    dissipated: float
    slack: float
    dt: float
    t_end: float
    max_step_radial: float
    max_step_tangency: float


def energy_audit(e0: Ensemble, params: ModelParams, dt: float, t_end: float) -> EnergyAudit:
    """Integrate with projection and per-step (stride-1) trapezoidal dissipation accounting.

    Also records the worst pre-projection step drift.  The stepping loop keeps
    the trapezoid, and the final state's dissipation sum, from the independent
    ``pairwise_dissipation``, closes it.  Checks e0 and aborts as ``simulate``
    does, with the same ``time``, but without a partial trajectory.
    """
    n_steps = SimConfig(dt=dt, t_end=t_end).n_steps  # simulate's rule on dt and t_end
    e0.check()
    e_start = diagnostics.energy(e0, params.sigma)[0]
    for _, X, V, max_r, max_t, _tables, (dissipated, rate) in _run(
            e0.positions, e0.velocities, dt, n_steps, 1, params, True):
        pass
    final = Ensemble(X, V)
    rate_end = diagnostics.pairwise_dissipation(final, params)
    if rate is not None:
        dissipated += 0.5 * (rate + rate_end) * dt
    e_end = diagnostics.energy(final, params.sigma)[0]
    return EnergyAudit(e_start=e_start, e_end=e_end, dissipated=dissipated,
                       slack=e_end + dissipated - e_start, dt=dt, t_end=n_steps * dt,
                       max_step_radial=max_r, max_step_tangency=max_t)


def simulate(e0: Ensemble, params: ModelParams, config: SimConfig) -> Trajectory:
    """Integrate from e0 in whole strides of frame_stride steps up to t_end,
    recording a frame at t = 0 and after each: the run ends at its last frame.

    Deterministic for fixed inputs.  An antipodal configuration aborts the
    run: the raised AntipodalPair carries the failing time and the partial
    trajectory recorded so far.  A state that stops being finite aborts it
    the same way with NonFinite, whose time is that of the last frame.
    """
    frames: list[Frame] = []
    traj = Trajectory(frames, params)

    e0.check()

    stride = config.frame_stride
    run = _run(e0.positions, e0.velocities, config.dt, config.n_steps // stride, stride,
               params, config.projection)
    try:
        for step, X, V, traj.max_step_radial, traj.max_step_tangency, tables, _ledger in run:
            ens, t = Ensemble(X, V, validate=False), step * config.dt
            frame = diagnostics.make_frame(t, ens, params, tables)
            if config.projection:  # unprojected runs leave the manifold by design
                ens.check((frame.drift_radial, frame.drift_tangency))
            frames.append(Frame(t, ens, frame))
    except (AntipodalPair, NonFinite) as exc:
        exc.partial_trajectory = traj
        raise
    return traj
