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


def project_state(positions, velocities) -> tuple[np.ndarray, np.ndarray]:
    """Project each position row onto the sphere and each velocity row onto
    the tangent plane at the projected position; returns new (n, 3) arrays."""
    X = np.asarray(positions, dtype=float)
    V = np.asarray(velocities, dtype=float)
    Xp = X / np.linalg.norm(X, axis=1, keepdims=True)
    return Xp, V - (Xp * V).sum(axis=1, keepdims=True) * Xp


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


def pairwise_transport(positions, vectors, antipodal: str = "raise"):
    """Transport vectors[k] from positions[k] to every positions[i].

    Returns T with T[k, i] = R_{x_k -> x_i} vectors[k], shape (n, n, 3).
    The diagonal follows the coincident-limit convention T[k, k] = v_k (up
    to rounding), matching the scalar ``rotation_matrix`` identity branch.

    antipodal: "raise" propagates AntipodalPair for any singular pair;
    "zero" writes zeros for those pairs and returns ``(T, mask)`` instead.
    """
    X = np.asarray(positions, dtype=float)
    V = np.asarray(vectors, dtype=float)
    dots = X @ X.T
    bad = antipodal_mask(X, dots)
    if antipodal == "raise" and bad.any():
        raise AntipodalPair.between(*np.argwhere(bad)[0])
    T = _transport_table(X, V, dots)
    if antipodal == "zero":
        T[bad] = 0.0
        return T, bad
    return T


def _transport_table(X: np.ndarray, V: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """Batched evaluation of the four-term transport formula.

    T[k, i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <x_i,v_k> x_k
              + (1 - <x_k,x_i>) <u,v_k> u,   u = (x_k x x_i)/|x_k x x_i|.

    Callers are responsible for antipodal screening; pairs with a cross
    product below the guard get the rank-one term dropped (coincident
    limit).  np.cross is avoided: it dominates the cost at small n.
    """
    T = np.empty(dots.shape + (3,))
    for a, Ta in enumerate(_transport_components(X, V, dots)):
        T[:, :, a] = Ta
    return T


def _transport_components(X: np.ndarray, V: np.ndarray, dots: np.ndarray, cw=None):
    """Yield the (n, n) tables T[:, :, a] of ``_transport_table`` for a = 0, 1, 2."""
    c, w = _cross_weights(X, V, dots) if cw is None else cw
    xv = (X * V).sum(axis=1)
    vx = V @ X.T
    for a in range(3):
        Ta = dots * V[:, a, None]
        Ta += np.multiply.outer(xv, X[:, a])
        Ta -= vx * X[:, a, None]
        Ta += w * c[a]
        yield Ta


def _cross_tables(X: np.ndarray):
    """The cross tables c[a][k, i] = (x_k x x_i)_a for a = 0, 1, 2."""
    x0, x1, x2 = X.T
    return (np.multiply.outer(x1, x2) - np.multiply.outer(x2, x1),
            np.multiply.outer(x2, x0) - np.multiply.outer(x0, x2),
            np.multiply.outer(x0, x1) - np.multiply.outer(x1, x0))


def _cross_weights(X: np.ndarray, V: np.ndarray, dots: np.ndarray):
    """Cross tables c = ``_cross_tables(X)`` and the rank-one weight w[k, i].

    w = (1 - <x_k,x_i>) <c_ki, v_k> / |c_ki|^2, zero below the guard, so that
    T[k, i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <x_i,v_k> x_k + w c_ki.
    """
    c = _cross_tables(X)
    nsq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    cv = c[0] * V[:, 0, None] + c[1] * V[:, 1, None] + c[2] * V[:, 2, None]
    ok = nsq > _CROSS_GUARD
    return c, np.where(ok, (1.0 - dots) * cv / np.where(ok, nsq, 1.0), 0.0)
