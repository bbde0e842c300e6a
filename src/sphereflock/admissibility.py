"""Decay-rate constants and the sufficient condition on initial data.

For a kernel psi and bonding rate sigma the guaranteed contraction rate of
the pair system is mu (see ``dynamics.spectral_abscissa``), and the
remainder F obeys

    |F| <= C (V + V^2)/4 (D_x^2 + D_v^2) + (sigma/2) D_x^4

with an aggregation constant C depending on psi and sigma only.  From mu
and C come the speed threshold V0, the energy threshold E0, and the
pair-functional ceiling X_M fixed by

    sqrt(X_M) = mu / (sqrt(128) C sigma) * psi(sqrt(X_M))      if mu/4C < 1
    sqrt(X_M) = sqrt(mu) / (sqrt(32 C) sigma) * psi(sqrt(X_M)) if mu/4C >= 1.

Initial data with V(0) < V0, E(0) < E0, and X(0) < min(mu/2 sigma, X_M)
are guaranteed exponential rendezvous at rate delta = mu/2; these strict
inequalities are evaluated with zero slack, and borderline data are
reported inadmissible with their margins.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import diagnostics
from .dynamics import Ensemble, ModelParams, spectral_abscissa
from .errors import NoRoot
from .kernels import Kernel

_BISECTION_STEPS = 200


def aggregate_constant(kernel: Kernel, sigma: float) -> float:
    """Aggregation constant C(psi, sigma) = max(16, 48 |psi|_C1 + 8 sigma + 24 psi0).

    Derivation: sum the componentwise remainder bounds

        |F2| <= (V + 6|psi|_C1) V D_x^2 + psi0 V D_x^3 + (sigma/2) D_x^4
        |F3| <= (3V + 6|psi|_C1 + 2 sigma) V D_x^2
                + (3V + 7|psi|_C1) V D_v^2 + psi0 V D_x^4,

    absorb D_x^3 <= 2 D_x^2 and D_x^4 <= 4 D_x^2 (diameter at most 2), and
    match the V^2 part against C V^2/4 (needs C >= 16) and the V part
    against C V/4 (needs C >= 48 |psi|_C1 + 8 sigma + 24 psi0, using
    psi0 <= |psi|_C1).  This is the smallest constant the componentwise
    bounds support; any valid smaller C would only enlarge the admissible
    set.
    """
    return max(16.0, 48.0 * kernel.c1_norm + 8.0 * sigma + 24.0 * kernel.psi0)


def _xm_coefficient(sigma: float, mu: float, c: float) -> float:
    if mu / (4.0 * c) < 1.0:
        return mu / (math.sqrt(128.0) * c * sigma)
    return math.sqrt(mu) / (math.sqrt(32.0 * c) * sigma)


def solve_x_m(kernel: Kernel, sigma: float, mu: float, c: float) -> float:
    """Unique root X_M in (0, 4) of sqrt(X) = coef * psi(sqrt(X)).

    In s = sqrt(X) the residual h(s) = s - coef psi(s) is strictly
    increasing from h(0) = -coef psi0 < 0 to h(2) = 2, so one bisection
    bracket suffices; bisection is used (not Newton) because psi' may be
    steep near 0 and bisection is unconditionally convergent here.
    """
    if kernel.psi0 <= 0.0:
        raise NoRoot("kernel with psi(0) = 0 admits no positive fixed point")
    coef = _xm_coefficient(sigma, mu, c)

    def h(s: float) -> float:
        return s - coef * float(kernel.psi(s))

    lo, hi = 0.0, 2.0
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return s * s


def x_m_residual(kernel: Kernel, sigma: float, mu: float, c: float, x_m: float) -> float:
    """|sqrt(X_M) - coef * psi(sqrt(X_M))|, the fixed-point certificate."""
    s = math.sqrt(x_m)
    return abs(s - _xm_coefficient(sigma, mu, c) * float(kernel.psi(s)))


@dataclass(frozen=True)
class Thresholds:
    """Constants of the rendezvous guarantee for one (kernel, sigma)."""

    mu: float
    c_const: float
    v0: float
    e0: float
    x_m: float
    psi_m: float
    delta: float


def _speed_energy_thresholds(mu: float, c: float) -> tuple[float, float]:
    """(V0, E0) from the two-case displays; E0 = V0^2/4 in both branches.

    With the aggregation constant above, C >= 48 psi0 >= 48 mu, so the
    mu/4C >= 1 branch cannot trigger for any admissible kernel; it is kept
    for fidelity to the case displays and reachable with synthetic inputs.
    """
    ratio = mu / (4.0 * c)
    if ratio < 1.0:
        return ratio, mu * mu / (64.0 * c * c)
    return math.sqrt(ratio), mu / (16.0 * c)


def thresholds(kernel: Kernel, sigma: float) -> Thresholds:
    """All guarantee constants: mu, C, V0, E0, X_M, psi_m, delta = mu/2.

    V0 and E0 branch on mu/4C:

        V0 = mu/4C,        E0 = mu^2/64C^2   if mu/4C < 1
        V0 = sqrt(mu/4C),  E0 = mu/16C       if mu/4C >= 1.
    """
    mu = spectral_abscissa(kernel.psi0, sigma)
    c = aggregate_constant(kernel, sigma)
    v0, e0 = _speed_energy_thresholds(mu, c)
    x_m = solve_x_m(kernel, sigma, mu, c)
    psi_m = float(kernel.psi(math.sqrt(x_m)))
    return Thresholds(mu=mu, c_const=c, v0=v0, e0=e0, x_m=x_m,
                      psi_m=psi_m, delta=0.5 * mu)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of the initial-data condition, clause by clause.

    The three clauses are the strict inequalities V(0) < V0, E(0) < E0,
    X(0) < min(mu/2 sigma, X_M); ``admissible`` is their conjunction.
    """

    thresholds: Thresholds
    v_initial: float
    e_initial: float
    x_initial: float
    bound_x: float
    verdict_v: bool
    verdict_e: bool
    verdict_x: bool

    @property
    def admissible(self) -> bool:
        return self.verdict_v and self.verdict_e and self.verdict_x

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "admissible": self.admissible,
            "margins": {
                "v": self.thresholds.v0 - self.v_initial,
                "e": self.thresholds.e0 - self.e_initial,
                "x": self.bound_x - self.x_initial,
            },
        }


def check_initial(e0: Ensemble, params: ModelParams) -> AdmissibilityReport:
    """Evaluate the admissibility condition on an initial state."""
    th = thresholds(params.kernel, params.sigma)
    gaps = diagnostics._gap_fields(e0, params.sigma)
    e_init, v_max, x_init = gaps["e_total"], gaps["v_max"], gaps["x_max"]
    bound_x = min(th.mu / (2.0 * params.sigma), th.x_m)
    return AdmissibilityReport(
        thresholds=th,
        v_initial=v_max,
        e_initial=e_init,
        x_initial=x_init,
        bound_x=bound_x,
        verdict_v=v_max < th.v0,
        verdict_e=e_init < th.e0,
        verdict_x=x_init < bound_x,
    )
