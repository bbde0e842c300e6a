"""Energy, dissipation, diameters, frame diagnostics, and rate fitting.

The energy of a state is E = E_K + E_C with

    E_K = (1/N) sum_k |v_k|^2,
    E_C = (sigma / 2 N^2) sum_{k,l} |x_k - x_l|^2,

and along exact solutions it dissipates as

    dE/dt = - sum_{i,j} (psi_ij / N^2) |R_{x_j -> x_i} v_j - v_i|^2.

That identity is algebraic in the right-hand side, so the residual
computed here (chain-rule dE/dt plus the dissipation sum) is a correctness
check on the force implementation, independent of integrator accuracy.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .dynamics import (Ensemble, ModelParams, _pair_dot, _pair_tables, _rates,
                       constraint_violation, rhs)
from .errors import InsufficientSamples, NonPositiveValue
from .geometry import _cross_tables, _transport_components, antipodal_mask


@dataclass(frozen=True)
class DiagnosticsFrame:
    """One row of per-frame diagnostics.  Field order is the CSV contract."""

    t: float
    e_total: float
    e_kinetic: float
    e_config: float
    d_x: float
    d_v: float
    v_max: float
    flock_align: float
    antipode_margin: float
    drift_radial: float
    drift_tangency: float
    x_max: float

    def as_row(self) -> tuple:
        return astuple(self)


#: DiagnosticsFrame field names, in CSV column order.
FRAME_FIELDS = tuple(f.name for f in fields(DiagnosticsFrame))


def _energies(V: np.ndarray, xsq: np.ndarray, sigma: float) -> tuple[float, float, float]:
    """(E, E_K, E_C) from the velocities and the (n, n) table |x_k - x_l|^2."""
    n = V.shape[0]
    ek = float((V * V).sum()) / n
    ec = sigma / (2.0 * n * n) * float(xsq.sum())
    return ek + ec, ek, ec


def _gap_fields(ensemble: Ensemble, sigma: float, xsq=None) -> dict[str, float]:
    """The frame fields read off one set of pair gap tables (x1 = xsq if given), by name."""
    X, V = ensemble.positions, ensemble.velocities
    x1 = _pair_dot(X, X) if xsq is None else xsq
    x2, x3 = _pair_dot(V, X), _pair_dot(V, V)
    e, ek, ec = _energies(V, x1, sigma)
    return dict(e_total=e, e_kinetic=ek, e_config=ec, d_x=float(np.sqrt(x1.max())),
                d_v=float(np.sqrt(x3.max())), v_max=float(np.sqrt((V * V).sum(axis=1).max())),
                x_max=float(np.sqrt((x1 * x1 + x2 * x2 + x3 * x3).max())))


def energy(ensemble: Ensemble, sigma: float) -> tuple[float, float, float]:
    """(E, E_K, E_C); the configurational sum runs over all ordered pairs."""
    return _energies(ensemble.velocities, _pair_dot(ensemble.positions, ensemble.positions), sigma)


def diameters(ensemble: Ensemble) -> tuple[float, float, float]:
    """(max pair position distance, max pair velocity distance, max speed)."""
    gaps = _gap_fields(ensemble, 0.0)
    return gaps["d_x"], gaps["d_v"], gaps["v_max"]


def _misalignment(X: np.ndarray, V: np.ndarray, dots: np.ndarray, cw=None) -> np.ndarray:
    """|R_{x_k -> x_i} v_k - v_i|^2 as an (n, n) table indexed [k, i], from the
    componentwise transport; cw = (cross tables, weights) as
    ``_transport_components`` takes them, built there if None."""
    out = 0.0
    for a, Ta in enumerate(_transport_components(X, V, dots, cw)):
        Ta -= V[:, a]
        Ta *= Ta
        out += Ta
    return out


def pairwise_dissipation(ensemble: Ensemble, params: ModelParams) -> float:
    """sum_{i,j} (psi_ij / N^2) |R_{x_j -> x_i} v_j - v_i|^2.

    Builds its own tables and geometry's cross weights, sharing nothing with
    the rhs pair pass, so it stays an independent check of the fused D."""
    X, V = ensemble.positions, ensemble.velocities
    dots = X @ X.T
    psim = _rates(antipodal_mask(X, dots), _pair_dot(X, X), params.kernel)
    return float((psim * _misalignment(X, V, dots)).sum()) / (ensemble.n * ensemble.n)


def energy_rate(ensemble: Ensemble, params: ModelParams) -> float:
    """Analytic dE/dt by the chain rule through the right-hand side."""
    V = ensemble.velocities
    n = ensemble.n
    _, dV = rhs(ensemble, params)
    kinetic = 2.0 * float((V * dV).sum()) / n
    config = params.sigma / (n * n) * float(_pair_dot(V, ensemble.positions).sum())
    return kinetic + config


def dissipation_residual(ensemble: Ensemble, params: ModelParams) -> float:
    """|dE/dt + dissipation sum|; an identity, so near zero at machine precision."""
    return abs(energy_rate(ensemble, params) + pairwise_dissipation(ensemble, params))


def make_frame(t: float, ensemble: Ensemble, params: ModelParams, tables=None) -> DiagnosticsFrame:
    """Every frame field from one set of gap tables and one misalignment table;
    ``tables`` are the state's ``dynamics._pair_tables`` if already built.

    flock_align = max_{i,j} |x_i + x_j| |R_{x_j -> x_i} v_j - v_i|, 0 by convention
    for pairs inside the antipodal tolerance, and antipode_margin = min_{i,j} |x_i + x_j|.
    """
    X, V = ensemble.positions, ensemble.velocities
    tables = _pair_tables(X, V) if tables is None else tables
    prod = np.sqrt(_misalignment(X, V, tables.dots, (_cross_tables(X), tables.w)))
    margin = np.sqrt(sum(np.add.outer(x, x) ** 2 for x in X.T))
    prod *= margin  # margin is pair-symmetric
    prod[tables.bad] = 0.0
    align, closest = float(prod.max()), float(margin.min())
    del prod, margin  # before _gap_fields builds its tables
    radial, tangency = constraint_violation(X, V)
    return DiagnosticsFrame(t=t, **_gap_fields(ensemble, params.sigma, tables.xsq),
                            flock_align=align, antipode_margin=closest,
                            drift_radial=radial, drift_tangency=tangency)


@dataclass(frozen=True)
class VelocityBoundReport:
    """Outcome of the uniform maximal-speed bound check.

    worst_violation <= 0 means the bound held at every frame.  ``vacuous``
    is set when the declared floor psi_m is not actually a lower bound for
    the pairwise rates along the trajectory, in which case the bound
    asserts nothing.
    """

    worst_violation: float
    vacuous: bool
    psi_m: float


def velocity_bound_check(trajectory, psi_m: float) -> VelocityBoundReport:
    """Check V(t)^2 against the exponential-relaxation envelope.

    V(t)^2 <= e^(-psi_m t / 2) V(0)^2
              + (1 - e^(-psi_m t / 2)) (2 sup E_K + (4 sigma^2/psi_m^2) sup D_x^2)

    with running suprema over [0, t].  Requires psi_ij >= psi_m along the
    whole trajectory; since psi is decreasing that reduces to
    psi_m <= psi(max_t D_x(t)), checked per frame.
    """
    params = trajectory.params
    t = trajectory.times
    v2 = trajectory.series("v_max") ** 2
    ek = trajectory.series("e_kinetic")
    dx2 = trajectory.series("d_x") ** 2

    if not psi_m > 0.0:  # NaN-safe guards: a NaN floor is vacuous too
        return VelocityBoundReport(float("nan"), True, psi_m)
    psi_floor = float(np.min(params.kernel.psi(np.minimum(trajectory.series("d_x"), 2.0))))
    if not psi_m <= psi_floor + 1e-12:
        return VelocityBoundReport(float("nan"), True, psi_m)

    decay = np.exp(-0.5 * psi_m * t)
    envelope = decay * v2[0] + (1.0 - decay) * (
        2.0 * np.maximum.accumulate(ek)
        + (4.0 * params.sigma**2 / psi_m**2) * np.maximum.accumulate(dx2)
    )
    return VelocityBoundReport(float(np.max(v2 - envelope)), False, psi_m)


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential rate of a positive series.

    ``degenerate`` marks a constant series, where r^2 is undefined and both
    outputs are reported as 0.
    """

    rate: float
    r_squared: float
    degenerate: bool
    n_samples: int
    window: tuple[float, float]


def fit_decay_rate(times, values, window) -> RateFit:
    """Fit value ~ a exp(-rate t) by least squares on log(value) over window.

    Requires at least 10 samples inside the window, all finite and strictly positive.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 10:
        raise InsufficientSamples(f"{int(mask.sum())} samples in window [{lo}, {hi}], need 10")
    tw, vw = t[mask], v[mask]
    if not (np.isfinite(vw).all() and (vw > 0.0).all()):
        raise NonPositiveValue("log fit requires finite, strictly positive values")
    logv = np.log(vw)
    slope, intercept = np.polyfit(tw, logv, 1)
    ss_tot = float(((logv - logv.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return RateFit(0.0, 0.0, True, len(tw), (lo, hi))
    resid = logv - (slope * tw + intercept)
    r2 = 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(-float(slope), r2, False, len(tw), (lo, hi))
