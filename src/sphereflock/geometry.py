"""Great-circle transport operator and sphere/tangent projections.

The operator carrying a tangent vector from ``z1`` to ``z2`` along their
great circle is the explicit 3x3 orthogonal matrix

    R = <z1,z2> I + z2 z1^T - z1 z2^T + (1 - <z1,z2>) u u^T,
    u = (z1 x z2) / |z1 x z2|.

It satisfies R z1 = z2, R z2 = 2<z1,z2> z2 - z1, and fixes z1 x z2, so it
restricts to an isometric bijection between the two tangent planes.  The
formula is singular only for antipodal endpoints; for coincident ones the
continuous limit is the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import AntipodalPair, NotTangent, OffSphere, ZeroVector

# |z1 + z2| at or below this is treated as antipodal (singular) and raises.
ANTIPODAL_TOL = 1e-8
# |z1 - z2| at or below this returns the identity (the continuous limit).
COINCIDENT_TOL = 1e-12
# Construction tolerances for unit and tangent vectors.
UNIT_TOL = 1e-12
TANGENT_TOL = 1e-10
# Tangency slack accepted by transport() on its input vector.
TRANSPORT_TANGENT_TOL = 1e-8

# <x_k, x_i> below this pre-screens a pair for the exact |x_k + x_i| test
# of the batched antipodal screen.  A pair within ANTIPODAL_TOL has
# <x_k, x_i> ~ -(|x_k|^2 + |x_i|^2) / 2, below this whenever the squared
# norms average above 0.99, as for every state or RK stage integrated here.
_OPPOSITE_DOT = -0.99

# |z1 x z2|^2 below this collapses the rank-one term;
# its prefactor 1 - <z1,z2> ~ |z1-z2|^2/2 is then negligible as well.
_CROSS_GUARD = 1e-24


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dots of (m, 3) arrays, each rounded as the 1-D ``a[j] @ b[j]``
    (``(a * b).sum(axis=1)`` rounds about a third of the rows differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _check_unit(z: np.ndarray) -> None:
    """Raise OffSphere unless every row of the (m, 3) array z has unit norm."""
    err = float(np.abs(np.sqrt(_row_dot(z, z)) - 1.0).max())
    if not err <= UNIT_TOL:
        raise OffSphere(f"|norm - 1| = {err:.3e} exceeds {UNIT_TOL:.1e}")


def unit_vector(x) -> np.ndarray:
    """Return x as a float 3-vector, checking it lies on the unit sphere."""
    z = np.asarray(x, dtype=float)
    if z.shape != (3,):
        raise OffSphere(f"expected a 3-vector, got shape {z.shape}")
    _check_unit(z[None])
    return z


def tangent_vector(base, v) -> np.ndarray:
    """Return v as a float 3-vector, checking tangency to the sphere at base."""
    b = unit_vector(base)
    w = np.asarray(v, dtype=float)
    if w.shape != (3,):
        raise NotTangent(f"expected a 3-vector, got shape {w.shape}")
    err = abs(float(w @ b))
    if not err <= TANGENT_TOL:
        raise NotTangent(f"|<v, base>| = {err:.3e} exceeds {TANGENT_TOL:.1e}")
    return w


def project_to_sphere(x) -> np.ndarray:
    """Radially project a nonzero 3-vector onto the unit sphere."""
    z = np.asarray(x, dtype=float)
    n = float(np.linalg.norm(z))
    if n == 0.0:
        raise ZeroVector("cannot project the zero vector onto the sphere")
    return z / n


def project_to_tangent(x, v) -> np.ndarray:
    """Remove from v its component along x: v - <v,x> x."""
    z = np.asarray(x, dtype=float)
    w = np.asarray(v, dtype=float)
    return w - (w @ z) * z


def _drift_and_project(Y: np.ndarray, project: bool) -> tuple[float, float]:
    """The one routine of the manifold drift (max_i |norm(x_i) - 1|, max_i |<v_i, x_i>|)
    of the stacked (2, n, 3) state Y = [X, V], from one product Y * X, and, if
    ``project``, of the projection of X and V in place onto the sphere and the
    tangent planes there, from the same row norms."""
    X, V = Y[0], Y[1]
    rows = np.add.reduce(Y * X, axis=2)
    norm = np.sqrt(rows[0])
    np.subtract(norm, 1.0, out=rows[0])
    drift = np.maximum.reduce(np.abs(rows, out=rows), axis=1).tolist()
    if project:
        X /= norm[:, None]
        V -= np.add.reduce(X * V, axis=1)[:, None] * X
    return drift[0], drift[1]


def project_state(positions, velocities) -> tuple[np.ndarray, np.ndarray]:
    """Project each position row onto the sphere and each velocity row onto
    the tangent plane at the projected position (``_drift_and_project`` on a copy)."""
    Y = np.array((positions, velocities), dtype=float)
    _drift_and_project(Y, True)
    return Y[0], Y[1]


def rotation_matrix(z1, z2) -> np.ndarray:
    """Transport matrix along the great circle from z1 to z2.

    Accepts matching (n, 3) batches (returning (n, 3, 3)) or single
    3-vectors, run as a batch of one.  Returns the identity when |z1 - z2| <=
    COINCIDENT_TOL and raises AntipodalPair when |z1 + z2| <= ANTIPODAL_TOL.
    Between the cutoffs the rank-one term uses the normalized cross product
    guarded by its norm.  The transpose equals ``rotation_matrix(z2, z1)``.
    Near the antipode the result is accurate only to about 1e-16 / |z1 + z2|
    (1e-10 at |z1 + z2| = 1e-6, 1e-13 at 1e-3), as is any identity checked on it.
    """
    a = np.asarray(z1, dtype=float)
    b = np.asarray(z2, dtype=float)
    if a.ndim == 1:
        return rotation_matrix(unit_vector(a)[None], unit_vector(b)[None])[0]
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise OffSphere(f"batched inputs must both be (n, 3), got {a.shape} and {b.shape}")
    _check_unit(a)
    _check_unit(b)
    if float(np.sqrt(_row_dot(a + b, a + b)).min()) <= ANTIPODAL_TOL:
        raise AntipodalPair("transport is singular for antipodal endpoints")
    d = _row_dot(a, b)
    rot = d[:, None, None] * np.eye(3) + b[:, :, None] * a[:, None, :] - a[:, :, None] * b[:, None, :]
    c = np.cross(a, b)
    nsq = _row_dot(c, c)
    ok = nsq > _CROSS_GUARD
    w = np.where(ok, (1.0 - d) / np.where(ok, nsq, 1.0), 0.0)
    rot += w[:, None, None] * (c[:, :, None] * c[:, None, :])
    rot[np.sqrt(_row_dot(a - b, a - b)) <= COINCIDENT_TOL] = np.eye(3)
    return rot


def transport(z1, z2, v) -> np.ndarray:
    """Parallel transport a tangent vector v from z1 to z2.

    The result is tangent at z2 with |R v| = |v|.  Raises NotTangent if v
    fails tangency at z1 beyond TRANSPORT_TANGENT_TOL.
    """
    a = unit_vector(z1)
    w = np.asarray(v, dtype=float)
    slack = abs(float(w @ a))
    if not slack <= TRANSPORT_TANGENT_TOL:
        raise NotTangent(f"|<v, z1>| = {slack:.3e} exceeds {TRANSPORT_TANGENT_TOL:.1e}")
    return rotation_matrix(a, z2) @ w


def antipodal_mask(X: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """Pairs with |x_k + x_i| <= ANTIPODAL_TOL, given dots = X @ X.T.

    The sum is formed from the coordinates: near <x_k, x_i> = -1 the dot
    resolves 2 + 2 <x_k, x_i> only to ~1e-16, the square of the tolerance.
    The dot table only pre-screens; the diagonal |2 x_k| never qualifies.
    """
    bad = dots < _OPPOSITE_DOT
    if bad.any():
        k, i = np.nonzero(bad)
        s = X[k] + X[i]
        bad[k, i] = (s * s).sum(axis=1) <= ANTIPODAL_TOL**2
    return bad


def pairwise_transport(positions, vectors):
    """Transport vectors[k] from positions[k] to every positions[i].

    Returns T with T[k, i] = R_{x_k -> x_i} vectors[k], shape (n, n, 3).
    The diagonal follows the coincident-limit convention T[k, k] = v_k (up
    to rounding), matching the scalar ``rotation_matrix`` identity branch.
    Raises AntipodalPair for any singular pair.
    """
    X = np.asarray(positions, dtype=float)
    V = np.asarray(vectors, dtype=float)
    dots = X @ X.T
    bad = antipodal_mask(X, dots)
    if bad.any():
        raise AntipodalPair.between(*np.argwhere(bad)[0])
    return np.stack(tuple(_transport_components(X, V, dots, _cross_weights(X, V, dots))), axis=-1)


def _transport_components(X: np.ndarray, V: np.ndarray, dots: np.ndarray, w: np.ndarray):
    """Yield the (n, n) tables T[:, :, a] of the four-term transport, a = 0, 1, 2,
    T[k, i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <x_i,v_k> x_k + w[k, i] (x_k x x_i),
    with w the weights of ``_cross_weights``, each in fresh tables.  Callers are
    responsible for antipodal screening.  np.cross is avoided, as it dominates
    the cost at small n."""
    xv = (X * V).sum(axis=1)
    vx = V @ X.T  # <v_k, x_i>
    for a in range(3):
        Ta = dots * V[:, a, None]
        Ta += np.multiply.outer(xv, X[:, a])
        Ta -= vx * X[:, a, None]
        Ta += w * _cross_table(X, a)
        yield Ta


def _cross_table(X: np.ndarray, a: int) -> np.ndarray:
    """The cross table c_a[k, i] = (x_k x x_i)_a, in a fresh table."""
    p, q = X[:, (a + 1) % 3], X[:, (a + 2) % 3]
    c = np.multiply.outer(p, q)
    c -= np.multiply.outer(q, p)
    return c


def _cross_weights(X: np.ndarray, V: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """The rank-one weight w[k, i] = (1 - <x_k,x_i>) <c_ki, v_k> / |c_ki|^2 of the
    cross product c_ki = x_k x x_i, zero below the guard, so that
    T[k, i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <x_i,v_k> x_k + w c_ki.  The cross
    tables ``_cross_table(X, a)`` are formed one at a time."""
    c = _cross_table(X, 0)
    nsq, cv = c * c, c * V[:, 0, None]
    for a in (1, 2):
        c = _cross_table(X, a)
        nsq += c * c
        cv += c * V[:, a, None]
    ok = nsq > _CROSS_GUARD
    return np.where(ok, (1.0 - dots) * cv / np.where(ok, nsq, 1.0), 0.0)
