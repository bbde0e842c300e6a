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
x_i x sum_k psi_ik (v_k x x_k).  A frame's misalignment |T[k, i] - v_i|^2 takes
the same form, from the rows m_k = v_k x x_k and weights w of the state's tables
(``diagnostics._frame_misalignment``); ``pairwise_dissipation`` keeps the
componentwise transport of ``geometry``.

The (n, n) tables live in a ``_Workspace``: ``_pair_tables``, their only builder,
writes a state's tables into its buffers and the pair pass takes its temporaries
from them, so a stepping run (``integrator._run``) that owns one allocates no
(n, n) array but the kernel's own, and the antipodal mask of a state the
pre-screen (one minimum reduction of dots) hits; a clean state has none.  Whoever
holds a state builds its tables, and every reader takes them built.  Tables
built on a workspace are views into it, valid until it next builds a set; public
``rhs`` builds its own.  At the paper's n = 6 a pass costs numpy calls, not
arithmetic, so the workspace also holds the pass's O(n) intermediates and every
view the pass reads, built once: the distance table is one stacked matmul per row
tile (``_distance_table``), whose exact rank-2 products form each x_k - x_i; its
X^T copy feeds the dot table and <m_k, x_i> as gemms, not numpy's syrk for X @ X.T;
the three per-agent multiples of x_i are one broadcast multiply.  The pass takes
the state stacked, Y = [X, V] (2, n, 3), and returns only its acceleration, into
``out`` (a stepping run's stage block) if given; the S, r and |v|^2 that D is
formed from stay in the workspace.

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

# The pair tables of one state, built on the workspace ws by _pair_tables alone.
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

    def check(self, drift=None) -> None:
        """Raise InvalidEnsemble on a broken invariant; ``drift``: (radial, tangency), if known."""
        radial, tangency = drift or constraint_violation(self.positions, self.velocities)
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
    return _drift_and_project(np.array((X, V)), False)


def _pair_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, n) table of <a_k - a_l, b_k - b_l>, built one component at a time."""
    table = None
    for a, b in zip(A.T, B.T):
        d = np.subtract.outer(a, a)
        d *= d if A is B else np.subtract.outer(b, b)
        if table is None:
            table = d
        else:
            table += d
    return table


# The factor rows [1, y_a, -1, 1] of component a of y = x or v: [y_a, -1] by [1; y_a]
# is the table y_k,a - y_i,a, [x_a, 1] by [1; x_a] x_k,a + x_i,a, each entry two exact
# products and one rounding, the ufunc's but for a zero's sign: read only squared.
_FACTOR_ROWS = np.array([[1.0], [0.0], [-1.0], [1.0]])

# Floats in one tile of the distance table's (3, rows, n) difference block.  A
# 512 KB tile stays in a core's L2; at n = 256 the untiled 1.5 MB block made
# crowd-256 about 3% slower.  One tile for n <= 147, four at n = 256.
_TILE_FLOATS = 1 << 16


class _Workspace:
    """The buffers of one run and the fixed views into them that the pair pass reads.

    O(n^2): a state's tables ``dots``, ``xsq``, ``w`` and the cross guard's mask
    ``guard`` (the antipodal mask is built only for a state the pre-screen hits),
    and four ``scratch`` tables: the pass uses two, a frame all four, and scratch
    1-3 are ``stack`` (3, n, n), whose first rows hold the distance table's tile.

    O(n): ``factors`` (3, 2, 4, n), the ``_FACTOR_ROWS`` of X and V per component,
    read-only but for their rows ``x_rows`` and ``v_rows`` (3, n), copies of X^T
    (which feeds the distance table, dots and <m_k, x_i>) and V^T; ``m`` (n, 3), the
    rows v_k x x_k; a frame's misalignment factors ``mis_left`` (n, 5), the rows
    [-m_k, <x_k, v_k>, -1] (read-only but for ``mis_m`` and ``mis_xv``), and
    ``mis_right`` (3, 5, n), per component [Q_a; x_a; v_a] (``mis_q``, ``mis_x``,
    ``mis_v``); ``outer`` (n, 3, 3), the outer products of a row-wise cross
    product; ``g`` and ``prod`` (n, 3), the pass's G (then S) and scratch, adjacent as
    ``gp`` (2, n, 3), the state's product with v; a (5, n) block, its rows
    ``col_rows`` <x_i, v_i>, |v_i|^2, (psi <x, v>)_i, sum_k <x_i, x_k> and
    r_i = sum_k psi_ik, the first two ``xv_vsq``, the middle three ``cols_col``,
    whose products with x_i are ``cols_x`` (3, n, 3), in rows ``cols_x_rows``; the
    RK4 stages, a (4, 3, n, 3) block, stage s the rows [x_s, v_s, a_s]: stage 0 is
    ``y`` = [``x``, ``v``] and ``a``, ``derivs`` the stages' [v_s, a_s] and ``rk``,
    for stages 1-3, the previous stage's [v, a], the stage's [x, v] and its a.

    Views built once: ``tiles`` (per row tile, the difference block, its planes,
    the tile's rows of the factors [x_a, -1] and of xsq), ``right_x`` (the factors
    [1; x_a]), ``diag`` (the dots diagonal as a column), ``outer9``, ``b_t``
    (scratch 1 transposed) and those named above, none of which the pass returns.
    Every workspace has them all; a stepping run's ``state`` (X, V) starts ``y``.
    """

    def __init__(self, n: int, state=None):
        # views by indexing, which costs a third of unpacking: one-shot calls build one
        tables = np.empty((7, n, n))
        self.dots, self.xsq, self.w = tables[0], tables[1], tables[2]
        self.scratch = [tables[3], tables[4], tables[5], tables[6]]
        self.stack = tables[4:]
        self.guard = np.empty((n, n), dtype=bool)
        factors = np.empty((3, 2, 4, n))
        factors[...] = _FACTOR_ROWS
        self.x_rows, self.v_rows = factors[:, 0, 1], factors[:, 1, 1]
        factors.setflags(write=False)  # and so every view taken from here on
        self.factors, self.right_x = factors, factors[:, 0, :2]
        mis_left, mis_right = np.empty((n, 5)), np.empty((3, 5, n))
        mis_left[:, 4] = -1.0
        self.mis_m, self.mis_xv = mis_left[:, :3], mis_left[:, 3]
        mis_left.setflags(write=False)
        self.mis_left, self.mis_right, self.mis_q = mis_left, mis_right, mis_right[:, :3]
        self.mis_x, self.mis_v = mis_right[:, 3], mis_right[:, 4]
        mgp = np.empty((3, n, 3))
        self.m, self.g, self.prod, self.gp = mgp[0], mgp[1], mgp[2], mgp[1:]
        self.outer = np.empty((n, 3, 3))
        cols, cols_x = np.empty((5, n)), np.empty((3, n, 3))
        self.cols_x, self.xv_vsq, self.cols_col = cols_x, cols[:2], cols[1:4, :, None]
        self.col_rows = (cols[0], cols[1], cols[2], cols[3], cols[4])
        self.cols_x_rows = (cols_x[0], cols_x[1], cols_x[2])
        self.diag = self.dots.diagonal()[:, None]
        self.outer9 = self.outer.reshape(n, 9)
        self.b_t = self.scratch[1].T
        left = factors[:, 0, 1:3].swapaxes(1, 2)  # [x_a, -1]
        rows = max(1, min(n, _TILE_FLOATS // (3 * n)))
        self.tiles = [(d, d[0], d[1], d[2], left[:, lo:lo + rows], self.xsq[lo:lo + rows])
                      for lo in range(0, n, rows) for d in [self.stack[:, :min(rows, n - lo)]]]
        blk = np.empty((4, 3, n, 3))
        b0, b1, b2, b3 = blk[0], blk[1], blk[2], blk[3]
        self.y, self.x, self.v, self.a = b0[:2], b0[0], b0[1], b0[2]
        if state is not None:
            self.y[...] = state
        self.derivs = f0, f1, f2, f3 = b0[1:], b1[1:], b2[1:], b3[1:]
        self.rk = ((f0, b1[:2], b1[2]), (f1, b2[:2], b2[2]), (f2, b3[:2], b3[2]))


def _distance_table(X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """|x_i - x_k|^2 into ws.xsq, equal to ``_pair_dot(X, X)`` for finite X: per
    tile of rows, one stacked matmul of the tile's factors [x_a, -1] by [1; x_a]
    (X^T copied into ws.x_rows) into the (3, rows, n) block of x_k,a - x_i,a, a
    square and the two adds in _pair_dot's order, ((d0^2 + d1^2) + d2^2).  Where
    NaN or inf meet, BLAS and numpy may keep different NaN bits."""
    ws.x_rows[...] = X.T
    for d, d0, d1, d2, left, out in ws.tiles:
        np.matmul(left, ws.right_x, out=d)
        np.multiply(d, d, out=d)
        np.add(d0, d1, out=out)
        np.add(out, d2, out=out)
    return ws.xsq


# _LEVI[3 b + c, a] = epsilon_abc, so the row-wise cross product G x X is
# (G[:, :, None] * X[:, None, :]).reshape(n, 9) @ _LEVI, cheaper than np.cross.
_LEVI = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1], [0, 0, 0], [1, 0, 0],
                  [0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)


def _cross_rows(A: np.ndarray, X: np.ndarray, ws: _Workspace, out: np.ndarray) -> np.ndarray:
    """The rows a_i x x_i, through the outer products in ws.outer, into ``out``."""
    np.multiply(A[:, :, None], X[:, None, :], out=ws.outer)
    return np.matmul(ws.outer9, _LEVI, out=out)


def _pair_tables(X: np.ndarray, V: np.ndarray, ws: _Workspace | None = None) -> _PairTables:
    """A state's pair tables, indexed [k, i]: dots = <x_k, x_i>, bad = the antipodal
    mask, xsq = |x_i - x_k|^2, the rank-one transport weight w, and the rows
    m_k = v_k x x_k.  The only builder: a state's owner calls it and hands the tables,
    built, to the pair pass and the frame.  The mask (None if the pre-screen finds no
    pair) is not raised on, so a frame can record the state.  The tables go into the
    workspace ws (fresh if None).

    w = (1 - <x_k,x_i>) <x_k x x_i, v_k> / |x_k x x_i|^2 (0 at or below
    _CROSS_GUARD) is formed without cross tables, by two identities exact
    for any vectors, so also at the off-sphere RK stages:

    - |x_k x x_i|^2 = |x_k|^2 |x_i - x_k|^2 - <x_k, x_i - x_k>^2, from xsq and
      dots - |x_k|^2.  For close pairs it is accurate to about eps relative
      (the cross form: eps / |x_i - x_k|); the diagonal gives 0, so w = 0.
      It cancels near the antipode, so pairs the antipodal pre-screen picks
      out (dots < _OPPOSITE_DOT) take it from their exact cross product;
    - <x_k x x_i, v_k> = <m_k, x_i>, one matmul M X^T.  It and dots = X X^T are
      gemms on ws.x_rows, the X^T copy, not numpy's syrk for X @ X.T.
    """
    ws = _Workspace(X.shape[0]) if ws is None else ws
    a, b = ws.scratch[:2]
    xsq = _distance_table(X, ws)  # and X^T into ws.x_rows, for the two gemms below
    dots = np.matmul(X, ws.x_rows, out=ws.dots)
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
    w *= np.matmul(m, ws.x_rows, out=a)
    at_guard = np.less_equal(nsq, _CROSS_GUARD, out=ws.guard)
    np.copyto(nsq, np.inf, where=at_guard)  # w = 0 at or below the guard
    w /= nsq
    return _PairTables(ws, dots, bad, xsq, w, m)


def _rates(bad: np.ndarray | None, xsq: np.ndarray, kernel: Kernel, out=None) -> np.ndarray:
    """psi(|x_i - x_k|) from xsq = |x_i - x_k|^2, raising AntipodalPair on the antipodal
    mask ``bad`` (None if none was built); the distances go into ``out`` (fresh if None)."""
    if bad is not None and bad.any():
        raise AntipodalPair.between(*np.argwhere(bad)[0])
    r = np.sqrt(xsq, out=out)
    return kernel.psi(np.minimum(r, 2.0, out=r))


def _pair_pass(Y: np.ndarray, params: ModelParams, tables: _PairTables, out=None) -> np.ndarray:
    """One pass over the state's built pair ``tables`` at Y = [X, V]: dv/dt, into
    ``out`` if given (fresh if None).

    S_i = sum_k psi_ik T[k,i] is the coupling sum of the four-term transport
    T[k,i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <v_k,x_i> x_k + w_ki (x_k x x_i),
    r_i = sum_k psi_ik and vsq_i = |v_i|^2.  By BAC-CAB the first and third
    terms are x_i x m_k, m_k = v_k x x_k, so with G = (psi w)^T X
    S_i = (G_i - (psi M)_i) x x_i + (psi <x, v>)_i x_i:
    (n, n) tables and matmuls, and no (n, n, 3) or cross table.

    The pass's temporaries are the tables' workspace's, and S, r and vsq stay
    there for ``_rhs_and_dissipation``: S in ws.g, r and vsq in rows 4 and 1 of
    ws.col_rows.  <x_i, v_i> and |v_i|^2 are one product of Y with V and one
    reduction, and the three products of a per-agent factor with x_i, |v_i|^2 x_i,
    (psi <x, v>)_i x_i and (sum_k <x_i, x_k>) x_i, one broadcast multiply.
    """
    X, V = Y[0], Y[1]
    n = X.shape[0]
    ws = tables.ws
    psim = _rates(tables.bad, tables.xsq, params.kernel, ws.scratch[0])
    xv, _, psi_xv, dot_sums, r = ws.col_rows
    x_vsq, x_psi_xv, bonding = ws.cols_x_rows
    np.add.reduce(np.multiply(Y, V, out=ws.gp), axis=2, out=ws.xv_vsq)
    np.matmul(psim, xv, out=psi_xv)
    np.add.reduce(tables.dots, axis=1, out=dot_sums)
    np.multiply(ws.cols_col, X, out=ws.cols_x)
    np.multiply(psim, tables.w, out=ws.scratch[1])
    G = np.matmul(ws.b_t, X, out=ws.g)  # (psi w)^T X, b_t being scratch 1 transposed
    G -= np.matmul(psim, tables.m, out=ws.prod)
    S = _cross_rows(G, X, ws, G)
    S += x_psi_xv
    np.add.reduce(psim, axis=1, out=r)
    coupling = np.multiply(r[:, None], V, out=ws.prod)
    np.subtract(S, coupling, out=coupling)
    coupling /= n
    np.subtract(np.add.reduce(X, axis=0), bonding, out=bonding)
    bonding *= params.sigma / n
    dV = np.subtract(coupling, x_vsq, out=out)
    dV += bonding
    return dV


def _rhs_and_dissipation(Y: np.ndarray, params: ModelParams, tables: _PairTables, out=None):
    """(dv, D) from one pair pass over the state's built ``tables`` at the stacked
    state Y = [X, V]: the acceleration (into ``out`` if given) and the dissipation
    sum, from the S, r and |v|^2 the pass leaves in the workspace.

    R is orthogonal, so |R v_k - v_i|^2 = |v_k|^2 + |v_i|^2 - 2 <R v_k, v_i>
    and D = sum_{i,k} psi_ik |R v_k - v_i|^2 / n^2 = 2 (sum_i r_i |v_i|^2
    - sum_i <S_i, v_i>) / n^2; the psi table is exactly symmetric (its
    distances are built from antisymmetric differences), so the row sums r
    serve as column sums too.  The subtraction cancels as D -> 0: the error
    is absolute, of order eps sum_i r_i |v_i|^2 / n^2, not relative to D.
    """
    n = Y.shape[1]
    dV = _pair_pass(Y, params, tables, out=out)
    ws = tables.ws
    _, vsq, _, _, r = ws.col_rows
    return dV, 2.0 * (float(r @ vsq) - float(np.add.reduce(ws.g * Y[1], axis=None))) / (n * n)


def rhs(ensemble: Ensemble, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (dx, dv) of the ensemble state.

    Costs O(n^2) transport evaluations; nothing is cached across calls.
    Raises AntipodalPair at singular configurations rather than
    regularizing, since silent regularization would mask blowup.
    """
    Y = np.array((ensemble.positions, ensemble.velocities))
    return Y[1], _pair_pass(Y, params, _pair_tables(Y[0], Y[1]))


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
