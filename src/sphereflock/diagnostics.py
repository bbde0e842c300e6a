"""Energy, dissipation, diameters, frame diagnostics, and rate fitting.

The energy of a state is E = E_K + E_C with

    E_K = (1/N) sum_k |v_k|^2,
    E_C = (sigma / 2 N^2) sum_{k,l} |x_k - x_l|^2,

and along exact solutions it dissipates as

    dE/dt = - sum_{i,j} (psi_ij / N^2) |R_{x_j -> x_i} v_j - v_i|^2.

That identity is algebraic in the right-hand side, so the residual
computed here (chain-rule dE/dt plus the dissipation sum) is a correctness
check on the force implementation, independent of integrator accuracy.  A frame
reads the pair tables ``dynamics._pair_tables`` built; one-shot calls build their own,
and ``diameters`` and ``check_initial`` only the distance table.  The frame's
misalignment is two gemms on the pass's rows m_k = v_k x x_k and weights w
(``_frame_misalignment``); ``pairwise_dissipation`` keeps the componentwise
transport of ``geometry``, sharing no table with the pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .dynamics import (_LEVI, Ensemble, ModelParams, _distance_table, _pair_dot, _pair_tables,
                       _rates, _Workspace, constraint_violation, rhs)
from .errors import InsufficientSamples, NonPositiveValue
from .geometry import _cross_weights, _transport_components, antipodal_mask


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
        return _frame_row(self)


#: DiagnosticsFrame field names, in CSV column order.
FRAME_FIELDS = tuple(f.name for f in fields(DiagnosticsFrame))
# the fields as a plain tuple, without dataclasses.astuple's recursive deep copy
_frame_row = attrgetter(*FRAME_FIELDS)


def _energies(V: np.ndarray, xsq: np.ndarray, sigma: float) -> tuple[float, float, float]:
    """(E, E_K, E_C) from the velocities and the (n, n) table |x_k - x_l|^2."""
    n = V.shape[0]
    ek = float((V * V).sum()) / n
    ec = sigma / (2.0 * n * n) * float(xsq.sum())
    return ek + ec, ek, ec


def _gap_tables(V: np.ndarray, ws) -> tuple[np.ndarray, np.ndarray]:
    """x2 = <v_k - v_i, x_k - x_i> and x3 = |v_k - v_i|^2 into ws.scratch[0] and [3]: per
    component one stacked matmul of ws's factors (X^T left by ``_distance_table``, V^T
    copied here) gives x_k,a - x_i,a and v_k,a - v_i,a, added in ``_pair_dot``'s order."""
    x2, pair, x3 = ws.scratch[0], ws.stack[:2], ws.scratch[3]
    ws.v_rows[...] = V.T
    for a, (left, right) in enumerate(zip(ws.factors[:, :, 1:3].swapaxes(2, 3),
                                          ws.factors[:, :, :2])):
        dx, dv = np.matmul(left, right, out=pair)
        np.multiply(dv, dx, out=dx if a else x2)
        np.multiply(dv, dv, out=dv if a else x3)
        if a:
            x2 += dx
            x3 += dv
    return x2, x3


def _gap_fields(ensemble: Ensemble, sigma: float, tables=None) -> dict[str, float]:
    """The frame fields read off one set of pair gap tables, by name: x1 = xsq of the
    state's built pair ``tables`` (None: the distance table alone, built here on a fresh
    workspace), x2 and x3 from ``_gap_tables``, each squared before it is read."""
    X, V = ensemble.positions, ensemble.velocities
    ws = _Workspace(X.shape[0]) if tables is None else tables.ws
    x1 = _distance_table(X, ws) if tables is None else tables.xsq
    e, ek, ec = _energies(V, x1, sigma)
    x2, x3 = _gap_tables(V, ws)
    x2 *= x2
    sq = np.multiply(x1, x1, out=ws.scratch[1])
    sq += x2
    d_v = float(np.sqrt(x3.max()))
    x3 *= x3
    sq += x3
    return dict(e_total=e, e_kinetic=ek, e_config=ec, d_x=float(np.sqrt(x1.max())), d_v=d_v,
                v_max=float(np.sqrt((V * V).sum(axis=1).max())),
                x_max=float(np.sqrt(sq.max())))


def energy(ensemble: Ensemble, sigma: float) -> tuple[float, float, float]:
    """(E, E_K, E_C); the configurational sum runs over all ordered pairs."""
    return _energies(ensemble.velocities, _pair_dot(ensemble.positions, ensemble.positions), sigma)


def diameters(ensemble: Ensemble) -> tuple[float, float, float]:
    """(max pair position distance, max pair velocity distance, max speed)."""
    gaps = _gap_fields(ensemble, 0.0)
    return gaps["d_x"], gaps["d_v"], gaps["v_max"]


def _misalignment(X: np.ndarray, V: np.ndarray, dots: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|R_{x_k -> x_i} v_k - v_i|^2 as an (n, n) table indexed [k, i], from the
    componentwise transport with rank-one weights w, in fresh tables."""
    for a, Ta in enumerate(_transport_components(X, V, dots, w)):
        Ta -= V[:, a]
        Ta *= Ta
        if a:
            out += Ta
        else:
            out = Ta
    return out


# _EPS[a, b, c] = epsilon_abc, so _EPS @ X^T is Q_a[b, i] = sum_c epsilon_abc x_i,c,
# exactly (one nonzero product per entry), and X Q_a the cross table (x_k x x_i)_a.
_EPS = np.ascontiguousarray(_LEVI.T).reshape(3, 3, 3)


def _frame_misalignment(X: np.ndarray, V: np.ndarray, tables) -> np.ndarray:
    """|R_{x_k -> x_i} v_k - v_i|^2, indexed [k, i], into ws.scratch[0] from the state's
    built ``tables``.  By BAC-CAB, with m_k = v_k x x_k, component a of T[k, i] - v_i is

        (x_i x m_k)_a + <x_k, v_k> x_i,a - v_i,a + w_ki (x_k x x_i)_a,

    two gemms per component: the rows [-m_k, <x_k, v_k>, -1] by [Q_a; x_a; v_a] into
    ws.stack, and X Q_a into scratch 0, weighted by w and added; then the squares are
    summed in component order."""
    ws = tables.ws
    np.negative(tables.m, out=ws.mis_m)
    np.add.reduce(np.multiply(X, V, out=ws.prod), axis=1, out=ws.mis_xv)
    np.matmul(_EPS, ws.x_rows, out=ws.mis_q)
    ws.mis_x[...] = ws.x_rows
    ws.mis_v[...] = V.T
    stack, cross = np.matmul(ws.mis_left, ws.mis_right, out=ws.stack), ws.scratch[0]
    for Ta, Qa in zip(stack, ws.mis_q):
        np.matmul(X, Qa, out=cross)
        cross *= tables.w
        Ta += cross
    np.multiply(stack, stack, out=stack)
    np.add(stack[0], stack[1], out=cross)
    cross += stack[2]
    return cross


def pairwise_dissipation(ensemble: Ensemble, params: ModelParams) -> float:
    """sum_{i,j} (psi_ij / N^2) |R_{x_j -> x_i} v_j - v_i|^2.

    Builds its own tables and geometry's cross weights, sharing nothing with
    the rhs pair pass, so it stays an independent check of the fused D."""
    X, V = ensemble.positions, ensemble.velocities
    dots = X @ X.T
    psim = _rates(antipodal_mask(X, dots), _pair_dot(X, X), params.kernel)
    mis = _misalignment(X, V, dots, _cross_weights(X, V, dots))
    return float((psim * mis).sum()) / (ensemble.n * ensemble.n)


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


def _margin_table(ws) -> np.ndarray:
    """|x_k + x_i|^2 into ws.scratch[1], from the factors [x_a, 1] by [1; x_a]."""
    s0, s1, s2 = np.matmul(ws.factors[:, 0, 1::2].swapaxes(1, 2), ws.right_x, out=ws.stack)
    np.multiply(ws.stack, ws.stack, out=ws.stack)
    s0 += s1
    s0 += s2
    return s0


def make_frame(t: float, ensemble: Ensemble, params: ModelParams, tables=None) -> DiagnosticsFrame:
    """Every frame field from one set of gap tables and one misalignment table.

    ``tables`` are the state's built ``dynamics._pair_tables``, or None for a
    one-shot call, which builds them on a fresh workspace.  The misalignment
    table is ``_frame_misalignment``'s two gemms on the tables' m and w.  The
    frame's own tables go into the four scratch tables of the tables' workspace,
    so the tables themselves stay intact for the state's next pair pass.

    flock_align = max_{i,j} |x_i + x_j| |R_{x_j -> x_i} v_j - v_i|, 0 by convention
    for pairs inside the antipodal tolerance and for i = j (R = I, whatever the
    transport's rounding), and antipode_margin = min_{i,j} |x_i + x_j|.
    """
    X, V = ensemble.positions, ensemble.velocities
    tables = _pair_tables(X, V) if tables is None else tables
    prod = _frame_misalignment(X, V, tables)
    np.sqrt(prod, out=prod)
    margin = np.sqrt(_margin_table(tables.ws), out=tables.ws.scratch[1])
    prod *= margin  # margin is pair-symmetric
    if tables.bad is not None:
        prod[tables.bad] = 0.0
    np.fill_diagonal(prod, 0.0)
    align, closest = float(prod.max()), float(margin.min())
    radial, tangency = constraint_violation(X, V)
    return DiagnosticsFrame(t=t, **_gap_fields(ensemble, params.sigma, tables),
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


def fit_decay_rate(times, values, window=None) -> RateFit:
    """Fit value ~ a exp(-rate t) by least squares on log(value) over window,
    by default (t_last / 8, t_last) with t_last the last of the times.

    Requires at least 10 samples inside the window, all finite and strictly positive.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if window is None:  # empty times: an empty window, which raises below
        window = (t[-1] / 8.0, t[-1]) if t.size else (np.nan, np.nan)
    lo, hi = float(window[0]), float(window[1])
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 10:
        raise InsufficientSamples(f"{int(mask.sum())} samples in window [{lo}, {hi}], need 10")
    tw, vw = t[mask], v[mask]
    if not (np.isfinite(vw).all() and (vw > 0.0).all()):
        raise NonPositiveValue("log fit requires finite, strictly positive values")
    logv = np.log(vw)
    # errstate too: with numpy's errors ignored, such times reach LAPACK as NaN
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")  # numpy warns on times it cannot fit a line to
        try:
            slope, intercept = np.polyfit(tw, logv, 1)
        except (Warning, FloatingPointError) as exc:
            raise InsufficientSamples(f"no line fits the times in [{lo}, {hi}]: {exc}") from None
    ss_tot = float(((logv - logv.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return RateFit(0.0, 0.0, True, len(tw), (lo, hi))
    resid = logv - (slope * tw + intercept)
    r2 = 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(-float(slope), r2, False, len(tw), (lo, hi))
