"""Model right-hand side, Lagrange multiplier, and the linearized pair system.

The second-order dynamics on the unit sphere for agents (x_i, v_i):

    dx_i/dt = v_i
    dv_i/dt = -(|v_i|^2/|x_i|^2) x_i
              + (1/N) sum_k psi(|x_i - x_k|) (R_{x_k -> x_i} v_k - v_i)
              + (sigma/N) sum_k (x_k - <x_i, x_k> x_i)

The centripetal term is the Lagrange multiplier keeping positions on the
sphere and velocities tangent; the k = i summand vanishes under the
coincident-limit convention R = I.

The coupling sum runs as one pass over (n, n) tables (``_pair_pass``),
with no cross table x_k x x_i.  Two vector identities, exact for any
vectors and so also at the off-sphere RK stages, stand in for them:

    |x_k x x_i|^2 = |x_k|^2 |x_i - x_k|^2 - <x_k, x_i - x_k>^2,
    <x_k x x_i, v_k> = <v_k x x_k, x_i>,

the first from the squared-distance and dot tables (about eps relative
for close pairs, where the cross form is eps / |x_i - x_k|; near the
antipode it cancels, so the pairs the antipodal pre-screen picks out take
the exact cross product), the second one matmul.  By BAC-CAB the
<x_k,x_i> v_k - <x_i,v_k> x_k terms of the transport sum to
x_i x sum_k psi_ik (v_k x x_k).  The frame diagnostics and
``pairwise_dissipation`` keep the componentwise transport of ``geometry``.

For every pair (i, j) the triple

    X = (|x_i - x_j|^2, <v_i - v_j, x_i - x_j>, |v_i - v_j|^2)

satisfies dX/dt = A X + F with the constant matrix A built from psi0 and
sigma and an inhomogeneous remainder F = (0, F2, F3).  Both sides are
implemented here independently: the chain-rule derivative of X through the
right-hand side (``pair_derivative_table``) and the explicit A/F formulas,
so their agreement is a genuine whole-formula cross-check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import InitVar, dataclass

import numpy as np

from . import geometry
from .errors import AntipodalPair, InvalidEnsemble
from .geometry import _CROSS_GUARD, _transport_table, antipodal_mask, project_state
from .kernels import Kernel

# Ensemble state invariants (looser than construction-time projection noise
# so that long projected runs stay admissible).
RADIAL_TOL = 1e-9
TANGENCY_TOL = 1e-8

_PairTables = namedtuple("_PairTables", "dots bad xsq w m")  # built by _pair_tables


@dataclass(frozen=True)
class ModelParams:
    """Communication kernel and bonding-force rate."""

    kernel: Kernel
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")


@dataclass(eq=False)
class Ensemble:
    """Positions on the unit sphere and tangent velocities for N agents.

    Arrays are (n, 3) float64 and copied on construction.  Validation
    enforces |norm(x_i) - 1| <= 1e-9 and |<v_i, x_i>| <= 1e-8; pass
    ``validate=False`` to hold deliberately off-manifold states (e.g. for
    drift measurements).
    """

    positions: np.ndarray
    velocities: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        self.positions = np.array(self.positions, dtype=float)
        self.velocities = np.array(self.velocities, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise InvalidEnsemble(f"positions must be (n, 3), got {self.positions.shape}")
        if self.velocities.shape != self.positions.shape:
            raise InvalidEnsemble("positions and velocities must have the same shape")
        if validate:
            self.check()

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def check(self) -> None:
        radial, tangency = constraint_violation(self.positions, self.velocities)
        # written so that NaN fails too
        if not radial <= RADIAL_TOL:
            raise InvalidEnsemble(f"max |norm(x)-1| = {radial:.3e} exceeds {RADIAL_TOL:.1e}")
        if not tangency <= TANGENCY_TOL:
            raise InvalidEnsemble(f"max |<v, x>| = {tangency:.3e} exceeds {TANGENCY_TOL:.1e}")

    @classmethod
    def projected(cls, positions, velocities) -> "Ensemble":
        """Build a valid ensemble by renormalizing and tangent-projecting."""
        return cls(*project_state(positions, velocities))


def constraint_violation(X: np.ndarray, V: np.ndarray) -> tuple[float, float]:
    """(max_i |norm(x_i)-1|, max_i |<v_i, x_i>|) for raw state arrays."""
    radial = float(np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)))
    tangency = float(np.max(np.abs((X * V).sum(axis=1))))
    return radial, tangency


def _pair_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, n) table of <a_k - a_l, b_k - b_l>, built one component at a time."""
    out = 0.0
    for a, b in zip(A.T, B.T):
        d = np.subtract.outer(a, a)
        d *= d if A is B else np.subtract.outer(b, b)
        out += d
    return out


# _LEVI[3 b + c, a] = epsilon_abc, so the row-wise cross product G x X is
# (G[:, :, None] * X[:, None, :]).reshape(n, 9) @ _LEVI, cheaper than np.cross.
_LEVI = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1], [0, 0, 0], [1, 0, 0],
                  [0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)


def _pair_tables(X: np.ndarray, V: np.ndarray) -> _PairTables:
    """A state's pair tables, indexed [k, i]: dots = <x_k, x_i>, bad = the antipodal
    mask, xsq = |x_i - x_k|^2, the rank-one transport weight w, and the rows
    m_k = v_k x x_k.  Built once per recorded state, for its frame and the next
    step's k1; the mask is not raised on, so a frame can record the state.

    w = (1 - <x_k,x_i>) <x_k x x_i, v_k> / |x_k x x_i|^2 (0 at or below
    _CROSS_GUARD) is formed without cross tables, by two identities exact
    for any vectors, so also at the off-sphere RK stages:

    - |x_k x x_i|^2 = |x_k|^2 |x_i - x_k|^2 - <x_k, x_i - x_k>^2, from xsq and
      dots - |x_k|^2.  For close pairs it is accurate to about eps relative
      (the cross form: eps / |x_i - x_k|); the diagonal gives 0, so w = 0.
      It cancels near the antipode, so pairs the antipodal pre-screen picks
      out (dots < _OPPOSITE_DOT) take it from their exact cross product;
    - <x_k x x_i, v_k> = <m_k, x_i>, one matmul M X^T.
    """
    n = X.shape[0]
    dots = X @ X.T
    xsq = _pair_dot(X, X)
    sq = dots.diagonal()[:, None]  # |x_k|^2
    p = dots - sq
    p *= p
    nsq = xsq * sq
    nsq -= p
    del p
    bad = dots < geometry._OPPOSITE_DOT  # antipodal_mask's pre-screen, read as it reads it
    if bad.any():
        k, i = np.nonzero(bad)
        c = np.cross(X[k], X[i])
        nsq[k, i] = (c * c).sum(axis=1)
        bad = antipodal_mask(X, dots)
    m = (V[:, :, None] * X[:, None, :]).reshape(n, 9) @ _LEVI
    w = 1.0 - dots
    w *= m @ X.T
    w /= np.where(nsq > _CROSS_GUARD, nsq, np.inf)  # w = 0 at or below the guard
    return _PairTables(dots, bad, xsq, w, m)


def _rates(bad: np.ndarray, xsq: np.ndarray, kernel: Kernel) -> np.ndarray:
    """psi(|x_i - x_k|) from the tables xsq = |x_i - x_k|^2 and the antipodal
    mask ``bad``; raises AntipodalPair on the mask."""
    if bad.any():
        raise AntipodalPair.between(*np.argwhere(bad)[0])
    return kernel.psi(np.minimum(np.sqrt(xsq), 2.0))


def _pair_pass(X: np.ndarray, V: np.ndarray, params: ModelParams, tables=None):
    """One pass over the pair tables at a state: (dv/dt, S, r, vsq).

    S_i = sum_k psi_ik T[k,i] is the coupling sum of the four-term transport
    T[k,i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <v_k,x_i> x_k + w_ki (x_k x x_i),
    r_i = sum_k psi_ik and vsq_i = |v_i|^2.  By BAC-CAB the first and third
    terms are x_i x m_k, m_k = v_k x x_k, so with G = (psi w)^T X
    S_i = (G_i - (psi M)_i) x x_i + (psi <x, v>)_i x_i:
    (n, n) tables and matmuls, and no (n, n, 3) or cross table.
    """
    n = X.shape[0]
    tables = _pair_tables(X, V) if tables is None else tables
    dots, psim = tables.dots, _rates(tables.bad, tables.xsq, params.kernel)
    xv = (X * V).sum(axis=1)
    G = (psim * tables.w).T @ X
    G -= psim @ tables.m
    S = (G[:, :, None] * X[:, None, :]).reshape(n, 9) @ _LEVI
    S += (psim @ xv)[:, None] * X
    r = psim.sum(axis=1)
    coupling = (S - r[:, None] * V) / n
    bonding = (params.sigma / n) * (X.sum(axis=0)[None, :] - dots.sum(axis=1)[:, None] * X)
    vsq = (V * V).sum(axis=1)
    dV = -vsq[:, None] * X + coupling + bonding
    return dV, S, r, vsq


def _rhs_and_dissipation(X: np.ndarray, V: np.ndarray, params: ModelParams, tables=None):
    """(dv, D) from one pair pass: the acceleration and the dissipation sum.

    R is orthogonal, so |R v_k - v_i|^2 = |v_k|^2 + |v_i|^2 - 2 <R v_k, v_i>
    and D = sum_{i,k} psi_ik |R v_k - v_i|^2 / n^2 = 2 (sum_i r_i |v_i|^2
    - sum_i <S_i, v_i>) / n^2; the psi table is exactly symmetric (its
    distances are built from antisymmetric differences), so the row sums r
    serve as column sums too.  The subtraction cancels as D -> 0: the error
    is absolute, of order eps sum_i r_i |v_i|^2 / n^2, not relative to D.
    """
    n = X.shape[0]
    dV, S, r, vsq = _pair_pass(X, V, params, tables)
    return dV, 2.0 * (float(r @ vsq) - float((S * V).sum())) / (n * n)


def rhs(ensemble: Ensemble, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (dx, dv) of the ensemble state.

    Costs O(n^2) transport evaluations; nothing is cached across calls.
    Raises AntipodalPair at singular configurations rather than
    regularizing, since silent regularization would mask blowup.
    """
    X, V = ensemble.positions, ensemble.velocities
    return V.copy(), _pair_pass(X, V, params)[0]


def lagrange_multiplier(ensemble: Ensemble, i: int, params: ModelParams) -> float:
    """Multiplier lambda_i of the constrained formulation.

    lambda_i = -|v_i|^2/|x_i|^2 - (sigma/N) sum_k <x_k - x_i, x_i>/<x_i, x_i>.
    """
    X, V = ensemble.positions, ensemble.velocities
    xi, vi = X[i], V[i]
    xsq = float(xi @ xi)
    bond = float(((X - xi) @ xi).sum()) / xsq
    return -float(vi @ vi) / xsq - (params.sigma / ensemble.n) * bond


def pair_functional_table(ensemble: Ensemble) -> np.ndarray:
    """All pair triples (X1, X2, X3) as an (n, n, 3) array."""
    X, V = ensemble.positions, ensemble.velocities
    return np.stack([_pair_dot(X, X), _pair_dot(V, X), _pair_dot(V, V)], axis=-1)


def coefficient_matrix(psi0: float, sigma: float) -> np.ndarray:
    """Constant coefficient matrix A of the linearized pair system."""
    return np.array([
        [0.0, 2.0, 0.0],
        [-sigma, -psi0, 1.0],
        [0.0, -2.0 * sigma, -2.0 * psi0],
    ])


def spectral_abscissa(psi0: float, sigma: float) -> float:
    """Decay rate mu: the negated maximum real part of the eigenvalues of A.

    The spectrum is {-psi0, -psi0 +- sqrt(psi0^2 - 4 sigma)}, so mu = psi0
    when psi0^2 <= 4 sigma and mu = psi0 - sqrt(psi0^2 - 4 sigma) otherwise
    (evaluated as 4 sigma / (psi0 + sqrt(.)) to avoid cancellation); in the
    second branch mu >= 2 sigma / psi0.
    """
    if psi0 <= 0.0 or sigma <= 0.0:
        raise ValueError("spectral abscissa requires psi0 > 0 and sigma > 0")
    disc = psi0 * psi0 - 4.0 * sigma
    if disc <= 0.0:
        return float(psi0)
    return float(4.0 * sigma / (psi0 + np.sqrt(disc)))


def inhomogeneous_table(ensemble: Ensemble, params: ModelParams) -> np.ndarray:
    """All inhomogeneous remainders F = (0, F2, F3) as an (n, n, 3) array.

    Implemented exactly as the term-by-term definitions (kinetic term,
    psi0-weighted transport differences, kernel-deviation sums, bonding
    terms in their <x_i,x_k>-1 form), not via algebraically equivalent
    regroupings, so the dX = AX + F identity stays a real cross-check.
    """
    X, V = ensemble.positions, ensemble.velocities
    n = ensemble.n
    sigma = params.sigma
    psi0 = params.kernel.psi0
    dots = X @ X.T
    x1 = _pair_dot(X, X)
    psim = _rates(antipodal_mask(X, dots), x1, params.kernel)
    T = _transport_table(X, V, dots)

    vsq = (V * V).sum(axis=1)
    # G[p, q] = sum_k <T[k,p], x_q>;  H[p, q] = sum_k <T[k,p], v_q>
    Tsum = np.einsum("kpa->pa", T)
    G = Tsum @ X.T
    H = Tsum @ V.T
    # P[p] = sum_k (psi[p,k] - psi0) (T[k,p] - v_p)
    dpsi = psim - psi0
    P = np.einsum("pk,kpa->pa", dpsi, T) - dpsi.sum(axis=1)[:, None] * V
    PX = P @ X.T
    PV = P @ V.T
    XV = X @ V.T  # XV[p, q] = <x_p, v_q>

    f2 = -0.5 * np.add.outer(vsq, vsq) * x1
    gd = np.diag(G)
    f2 += (psi0 / n) * (gd[:, None] - G - G.T + gd[None, :])
    pxd = np.diag(PX)
    f2 += (pxd[:, None] - PX - PX.T + pxd[None, :]) / n
    srow = x1.sum(axis=1)
    f2 += (sigma / (4.0 * n)) * np.add.outer(srow, srow) * x1

    xvd = np.diag(XV)
    f3 = 2.0 * (-vsq[:, None] * xvd[:, None] + vsq[:, None] * XV
                + vsq[None, :] * XV.T - vsq[None, :] * xvd[None, :])
    hd = np.diag(H)
    f3 += (2.0 * psi0 / n) * (hd[:, None] - H - H.T + hd[None, :])
    pvd = np.diag(PV)
    f3 += 2.0 * (pvd[:, None] - PV - PV.T + pvd[None, :]) / n
    bsum = dots.sum(axis=1) - n  # sum_k (<x_p, x_k> - 1)
    f3 += (2.0 * sigma / n) * (bsum[:, None] * XV + bsum[None, :] * XV.T)

    out = np.zeros((n, n, 3))
    out[:, :, 1] = f2
    out[:, :, 2] = f3
    return out


def pair_derivative_table(ensemble: Ensemble, params: ModelParams) -> np.ndarray:
    """Chain-rule time derivative of every pair triple, through ``rhs``.

    dX1 = 2 X2;  dX2 = X3 + <dv_i - dv_j, x_i - x_j>;
    dX3 = 2 <dv_i - dv_j, v_i - v_j>.  This is the independent left-hand
    side of the dX = AX + F identity.
    """
    X, V = ensemble.positions, ensemble.velocities
    _, dV = rhs(ensemble, params)
    return np.stack([2.0 * _pair_dot(V, X), _pair_dot(V, V) + _pair_dot(dV, X),
                     2.0 * _pair_dot(dV, V)], axis=-1)
