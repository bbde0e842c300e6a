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

# |z1 x z2|^2 below this in the batched path collapses the rank-one term;
# its prefactor 1 - <z1,z2> ~ |z1-z2|^2/2 is then negligible as well.
_CROSS_GUARD = 1e-24


def unit_vector(x, tol: float = UNIT_TOL) -> np.ndarray:
    """Return x as a float 3-vector, checking it lies on the unit sphere."""
    z = np.asarray(x, dtype=float)
    if z.shape != (3,):
        raise OffSphere(f"expected a 3-vector, got shape {z.shape}")
    err = abs(float(np.linalg.norm(z)) - 1.0)
    if err > tol:
        raise OffSphere(f"|norm - 1| = {err:.3e} exceeds {tol:.1e}")
    return z


def tangent_vector(base, v, tol: float = TANGENT_TOL) -> np.ndarray:
    """Return v as a float 3-vector, checking tangency to the sphere at base."""
    b = unit_vector(base)
    w = np.asarray(v, dtype=float)
    if w.shape != (3,):
        raise NotTangent(f"expected a 3-vector, got shape {w.shape}")
    err = abs(float(w @ b))
    if err > tol:
        raise NotTangent(f"|<v, base>| = {err:.3e} exceeds {tol:.1e}")
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


def rotation_matrix(z1, z2) -> np.ndarray:
    """Transport matrix along the great circle from z1 to z2.

    Accepts single 3-vectors or matching (n, 3) batches (returning
    (n, 3, 3)).  Returns the identity when |z1 - z2| <= COINCIDENT_TOL and
    raises AntipodalPair when |z1 + z2| <= ANTIPODAL_TOL.  Between the two
    cutoffs the rank-one term uses the normalized cross product guarded by
    its norm.  The transpose equals ``rotation_matrix(z2, z1)``.
    """
    a = np.asarray(z1, dtype=float)
    b = np.asarray(z2, dtype=float)
    if a.ndim == 1:
        return _rotation_matrix_single(unit_vector(a), unit_vector(b))
    return _rotation_matrix_batch(a, b)


def _rotation_matrix_single(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if float(np.linalg.norm(a + b)) <= ANTIPODAL_TOL:
        raise AntipodalPair("transport is singular for antipodal endpoints")
    if float(np.linalg.norm(a - b)) <= COINCIDENT_TOL:
        return np.eye(3)
    d = float(a @ b)
    rot = d * np.eye(3) + np.outer(b, a) - np.outer(a, b)
    c = np.cross(a, b)
    nsq = float(c @ c)
    if nsq > _CROSS_GUARD:
        rot += ((1.0 - d) / nsq) * np.outer(c, c)
    return rot


def _rotation_matrix_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise OffSphere(f"batched inputs must both be (n, 3), got {a.shape} and {b.shape}")
    for z in (a, b):
        err = float(np.abs(np.linalg.norm(z, axis=1) - 1.0).max())
        if err > UNIT_TOL:
            raise OffSphere(f"|norm - 1| = {err:.3e} exceeds {UNIT_TOL:.1e}")
    if float(np.linalg.norm(a + b, axis=1).min()) <= ANTIPODAL_TOL:
        raise AntipodalPair("transport is singular for antipodal endpoints")
    d = (a * b).sum(axis=1)
    rot = d[:, None, None] * np.eye(3) + b[:, :, None] * a[:, None, :] - a[:, :, None] * b[:, None, :]
    c = np.cross(a, b)
    nsq = (c * c).sum(axis=1)
    ok = nsq > _CROSS_GUARD
    w = np.where(ok, (1.0 - d) / np.where(ok, nsq, 1.0), 0.0)
    rot += w[:, None, None] * (c[:, :, None] * c[:, None, :])
    coincident = np.linalg.norm(a - b, axis=1) <= COINCIDENT_TOL
    rot[coincident] = np.eye(3)
    return rot


def transport(z1, z2, v) -> np.ndarray:
    """Parallel transport a tangent vector v from z1 to z2.

    The result is tangent at z2 with |R v| = |v|.  Raises NotTangent if v
    fails tangency at z1 beyond TRANSPORT_TANGENT_TOL.
    """
    a = unit_vector(z1)
    w = np.asarray(v, dtype=float)
    slack = abs(float(w @ a))
    if slack > TRANSPORT_TANGENT_TOL:
        raise NotTangent(f"|<v, z1>| = {slack:.3e} exceeds {TRANSPORT_TANGENT_TOL:.1e}")
    return rotation_matrix(a, z2) @ w


def antipodal_mask(dots: np.ndarray) -> np.ndarray:
    """Off-diagonal pairs with |x_k + x_i| <= ANTIPODAL_TOL, from <x_k, x_i>."""
    bad = 2.0 + 2.0 * dots <= ANTIPODAL_TOL**2
    np.fill_diagonal(bad, False)
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
    bad = antipodal_mask(dots)
    if antipodal == "raise" and bad.any():
        k, i = map(int, np.argwhere(bad)[0])
        raise AntipodalPair(f"agents {k} and {i} are antipodal", pair=(k, i))
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


def _transport_components(X: np.ndarray, V: np.ndarray, dots: np.ndarray):
    """Yield the (n, n) tables T[:, :, a] of ``_transport_table`` for a = 0, 1, 2."""
    c, w = _cross_weights(X, V, dots)
    xv = (X * V).sum(axis=1)
    vx = V @ X.T
    for a in range(3):
        yield dots * V[:, a, None] + np.multiply.outer(xv, X[:, a]) - vx * X[:, a, None] + w * c[a]


def _cross_weights(X: np.ndarray, V: np.ndarray, dots: np.ndarray):
    """Cross tables c[a][k, i] = (x_k x x_i)_a and the rank-one weight w[k, i].

    w = (1 - <x_k,x_i>) <c_ki, v_k> / |c_ki|^2, zero below the guard, so that
    T[k, i] = <x_k,x_i> v_k + <x_k,v_k> x_i - <x_i,v_k> x_k + w c_ki.
    """
    x0, x1, x2 = X.T
    c = (np.multiply.outer(x1, x2) - np.multiply.outer(x2, x1),
         np.multiply.outer(x2, x0) - np.multiply.outer(x0, x2),
         np.multiply.outer(x0, x1) - np.multiply.outer(x1, x0))
    nsq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    cv = c[0] * V[:, 0, None] + c[1] * V[:, 1, None] + c[2] * V[:, 2, None]
    ok = nsq > _CROSS_GUARD
    return c, np.where(ok, (1.0 - dots) * cv / np.where(ok, nsq, 1.0), 0.0)
