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

The (n, n) tables live in a ``_Workspace``: ``_pair_tables`` writes a state's
tables into its buffers and the pair pass takes its temporaries from them, so a
stepping run (``integrator._run``) that owns one allocates no (n, n) array but
the kernel's own, and the antipodal mask of a state the pre-screen (one
minimum reduction of dots) hits; a clean state has none.  A bare workspace is
the unbuilt set: a helper given one builds the state's tables on it.  Tables
built on a workspace are views into it, valid until it next builds a set; public
``rhs`` builds its own.  At the paper's n = 6 a pass costs numpy calls, not
arithmetic, so the workspace also holds the pass's O(n) intermediates and every
view the pass reads, built once: the distance table is one broadcast subtract
per row tile (``_distance_table``) over precomputed tile views, and the three
per-agent multiples of x_i are one broadcast multiply.  What the pass returns
is its own, never a view into the workspace.

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
from .geometry import _CROSS_GUARD, _drift_and_project, antipodal_mask, pairwise_transport
from .kernels import Kernel

# Ensemble state invariants (looser than construction-time projection noise
# so that long projected runs stay admissible).
RADIAL_TOL = 1e-9
TANGENCY_TOL = 1e-8

# The pair tables of one state, built on the workspace ws by _pair_tables;
# the bare workspace is the unbuilt set, to be built on when needed.
_PairTables = namedtuple("_PairTables", "ws dots bad xsq w m")


@dataclass(frozen=True)
class ModelParams:
    """Kernel and bonding rate sigma >= 0; ``thresholds`` alone decides the guarantee's range."""

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
        if self.positions.ndim != 2 or self.positions.shape[1] != 3 or not len(self.positions):
            raise InvalidEnsemble(f"positions must be (n, 3) with n >= 1, got {self.positions.shape}")
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
        return cls(*geometry.project_state(positions, velocities))


def constraint_violation(X: np.ndarray, V: np.ndarray) -> tuple[float, float]:
    """(max_i |norm(x_i)-1|, max_i |<v_i, x_i>|): ``_drift_and_project``, not projecting."""
    return _drift_and_project(X, V, False)


def _pair_dot(A: np.ndarray, B: np.ndarray, out=None, tmp=None, tmp2=None,
              op=np.subtract) -> np.ndarray:
    """(n, n) table of <a_k - a_l, b_k - b_l> (<a_k + a_l, b_k + b_l> with op
    np.add), built one component at a time.  It is written into ``out`` with
    ``tmp`` (and, when A is not B, ``tmp2``) as scratch; None buffers are fresh."""
    table = None
    for a, b in zip(A.T, B.T):
        d = op.outer(a, a, out=out if table is None else tmp)
        d *= d if A is B else op.outer(b, b, out=tmp2)
        if table is None:
            table = d
        else:
            table += d
    return table


# Floats in one tile of the distance table's (3, rows, n) difference block.  A
# 512 KB tile stays in a core's L2; on a Xeon with 2 MB of L2 per core the
# untiled 1.5 MB block at n = 256 built the table 11% slower.  One tile for
# n <= 147, four at n = 256.
_TILE_FLOATS = 1 << 16


class _Workspace:
    """The buffers of one run and the fixed views into them that the pair pass reads.

    O(n^2): a state's tables ``dots``, ``xsq``, ``w`` and the cross guard's mask
    ``guard`` (the antipodal mask is built only for a state the pre-screen hits),
    and four ``scratch`` tables: the pass uses two, a frame all four, and scratch
    1-3, flat, are ``tile``, the block the distance table is built in.

    O(n): ``xt`` (3, n), a unit-stride copy of X^T; ``m`` (n, 3), the rows
    v_k x x_k; ``outer`` (n, 3, 3), the outer products of a row-wise cross
    product; ``g`` and ``prod`` (n, 3), the pass's G and scratch; ``cols`` (3, n),
    its per-agent factors of x_i, and ``cols_x`` (3, n, 3), their products with x_i.

    Views built once: ``tiles`` (per row tile, the difference block, its three
    planes, the tile's rows of xt and its rows of xsq), ``xt_all``, ``diag`` (the
    dots diagonal as a column), ``outer9``, ``b_t`` (scratch 1 transposed),
    ``cols_col`` and the rows of cols and cols_x.  The pass returns none of these.
    """

    def __init__(self, n: int):
        tables = np.empty((7, n, n))
        self.dots, self.xsq, self.w, *self.scratch = tables
        self.tile = tables[4:].reshape(-1)
        self.guard = np.empty((n, n), dtype=bool)
        self.xt = np.empty((3, n))
        self.m, self.g, self.prod = np.empty((3, n, 3))
        self.outer = np.empty((n, 3, 3))
        self.cols = np.empty((3, n))
        self.cols_x = np.empty((3, n, 3))
        self.diag = self.dots.diagonal()[:, None]
        self.outer9 = self.outer.reshape(n, 9)
        self.b_t = self.scratch[1].T
        self.cols_col = self.cols[:, :, None]
        self.col_rows, self.cols_x_rows = tuple(self.cols), tuple(self.cols_x)
        self.xt_all = self.xt[:, None, :]
        rows = max(1, min(n, _TILE_FLOATS // (3 * n)))
        block = self.tile[:3 * rows * n].reshape(3, rows, n)
        self.tiles = []
        for lo in range(0, n, rows):
            d = block[:, :min(rows, n - lo)]
            self.tiles.append((d, *d, self.xt[:, lo:lo + rows, None], self.xsq[lo:lo + rows]))


def _distance_table(X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """|x_i - x_k|^2 into ws.xsq, equal to ``_pair_dot(X, X)``: per tile of rows,
    one broadcast subtract over the (3, rows, n) block, a square and the two adds
    in _pair_dot's order, ((d0^2 + d1^2) + d2^2).  The subtract reads ws.xt, a
    unit-stride copy of X^T.  Byte-equal for finite X and within one tile; past one
    tile, where two NaNs meet in an add, numpy's vector body and scalar tail may
    keep either's bits."""
    ws.xt[...] = X.T
    for d, d0, d1, d2, xt_rows, out in ws.tiles:
        np.subtract(xt_rows, ws.xt_all, out=d)
        np.multiply(d, d, out=d)
        np.add(d0, d1, out=out)
        np.add(out, d2, out=out)
    return ws.xsq


# _LEVI[3 b + c, a] = epsilon_abc, so the row-wise cross product G x X is
# (G[:, :, None] * X[:, None, :]).reshape(n, 9) @ _LEVI, cheaper than np.cross.
_LEVI = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1], [0, 0, 0], [1, 0, 0],
                  [0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)


def _cross_rows(A: np.ndarray, X: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """The rows a_i x x_i, through the outer products in ws.outer, into ``out``
    (fresh if None)."""
    np.multiply(A[:, :, None], X[:, None, :], out=ws.outer)
    return np.matmul(ws.outer9, _LEVI, out=out)


def _pair_tables(X: np.ndarray, V: np.ndarray, ws: _Workspace | None = None) -> _PairTables:
    """A state's pair tables, indexed [k, i]: dots = <x_k, x_i>, bad = the antipodal
    mask, xsq = |x_i - x_k|^2, the rank-one transport weight w, and the rows
    m_k = v_k x x_k.  Built once per recorded state, for its frame and the next
    step's k1; the mask (None if the pre-screen finds no pair) is not raised on,
    so a frame can record the state.  The tables go into the workspace ws (fresh if None).

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
    ws = _Workspace(X.shape[0]) if ws is None else ws
    a, b = ws.scratch[:2]
    dots = np.matmul(X, X.T, out=ws.dots)
    xsq = _distance_table(X, ws)
    p = np.subtract(dots, ws.diag, out=a)  # diag: |x_k|^2
    p *= p
    nsq = np.multiply(xsq, ws.diag, out=b)
    nsq -= p
    # antipodal_mask's pre-screen, one minimum of dots (NaN takes the mask path too)
    bad = None
    if not np.minimum.reduce(dots, axis=None) >= geometry._OPPOSITE_DOT:
        k, i = np.nonzero(dots < geometry._OPPOSITE_DOT)
        c = np.cross(X[k], X[i])
        nsq[k, i] = np.add.reduce(c * c, axis=1)
        bad = antipodal_mask(X, dots)
    m = _cross_rows(V, X, ws, ws.m)
    w = np.subtract(1.0, dots, out=ws.w)
    w *= np.matmul(m, X.T, out=a)
    at_guard = np.less_equal(nsq, _CROSS_GUARD, out=ws.guard)
    np.copyto(nsq, np.inf, where=at_guard)  # w = 0 at or below the guard
    w /= nsq
    return _PairTables(ws, dots, bad, xsq, w, m)


def _built(X: np.ndarray, V: np.ndarray, tables) -> _PairTables:
    """``tables`` if built (a ``_PairTables``); else the pair tables of (X, V),
    built on ``tables``, the unbuilt set: a ``_Workspace`` (a fresh one if None)."""
    return tables if isinstance(tables, _PairTables) else _pair_tables(X, V, tables)


def _rates(bad: np.ndarray | None, xsq: np.ndarray, kernel: Kernel, out=None) -> np.ndarray:
    """psi(|x_i - x_k|) from xsq = |x_i - x_k|^2, raising AntipodalPair on the antipodal
    mask ``bad`` (None if none was built); the distances go into ``out`` (fresh if None)."""
    if bad is not None and bad.any():
        raise AntipodalPair.between(*np.argwhere(bad)[0])
    r = np.sqrt(xsq, out=out)
    return kernel.psi(np.minimum(r, 2.0, out=r))


def _pair_pass(X: np.ndarray, V: np.ndarray, params: ModelParams, tables=None):
    """One pass over the pair tables at a state: (dv/dt, S, r, vsq).

    S_i = sum_k psi_ik T[k,i] is the coupling sum of the four-term transport
    T[k,i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <v_k,x_i> x_k + w_ki (x_k x x_i),
    r_i = sum_k psi_ik and vsq_i = |v_i|^2.  By BAC-CAB the first and third
    terms are x_i x m_k, m_k = v_k x x_k, so with G = (psi w)^T X
    S_i = (G_i - (psi M)_i) x x_i + (psi <x, v>)_i x_i:
    (n, n) tables and matmuls, and no (n, n, 3) or cross table.

    ``tables`` are the state's ``_pair_tables``, or the unbuilt set, a bare
    ``_Workspace`` (or None), to build them on (see ``_built``); the pass's
    temporaries are the tables' workspace's, so only the returned (n, 3) and
    (n,) arrays are its own.  The three products of a per-agent factor with
    x_i, (psi <x, v>)_i x_i, |v_i|^2 x_i and (sum_k <x_i, x_k>) x_i, are one
    broadcast multiply of the workspace's (3, n) cols.
    """
    n = X.shape[0]
    tables = _built(X, V, tables)
    ws = tables.ws
    psim = _rates(tables.bad, tables.xsq, params.kernel, ws.scratch[0])
    psi_xv, vsq, dot_sums = ws.col_rows
    x_psi_xv, x_vsq, bonding = ws.cols_x_rows
    xv = np.add.reduce(np.multiply(X, V, out=ws.prod), axis=1)
    np.matmul(psim, xv, out=psi_xv)
    np.add.reduce(np.multiply(V, V, out=ws.prod), axis=1, out=vsq)
    np.add.reduce(tables.dots, axis=1, out=dot_sums)
    np.multiply(ws.cols_col, X, out=ws.cols_x)
    np.multiply(psim, tables.w, out=ws.scratch[1])
    G = np.matmul(ws.b_t, X, out=ws.g)  # (psi w)^T X, b_t being scratch 1 transposed
    G -= np.matmul(psim, tables.m, out=ws.prod)
    S = _cross_rows(G, X, ws)
    S += x_psi_xv
    r = np.add.reduce(psim, axis=1)
    coupling = np.multiply(r[:, None], V, out=ws.prod)
    np.subtract(S, coupling, out=coupling)
    coupling /= n
    np.subtract(np.add.reduce(X, axis=0), bonding, out=bonding)
    bonding *= params.sigma / n
    dV = np.subtract(coupling, x_vsq)
    dV += bonding
    return dV, S, r, vsq.copy()


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
    return dV, 2.0 * (float(r @ vsq) - float(np.add.reduce(S * V, axis=None))) / (n * n)


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
    T = pairwise_transport(X, V)

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
