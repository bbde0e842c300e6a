"""Shared test utilities: random valid states and an independent model oracle."""

import numpy as np

from sphereflock.verify import random_ensemble, random_unit


def transport_oracle(xk, xi, v):
    """Literal four-term transport formula, independent of the library path."""
    d = float(xk @ xi)
    rot = d * np.eye(3) + np.outer(xi, xk) - np.outer(xk, xi)
    c = np.cross(xk, xi)
    nsq = float(c @ c)
    if nsq > 0.0:
        rot = rot + ((1.0 - d) / nsq) * np.outer(c, c)
    return rot @ v


def rhs_oracle(ensemble, params):
    """Direct per-agent transcription of the model equations.

    Deliberately naive (explicit loops, per-pair transport via the formula
    above) so it shares no code with the production right-hand side.
    """
    X, V = ensemble.positions, ensemble.velocities
    n = ensemble.n
    dV = np.zeros_like(V)
    for i in range(n):
        xi, vi = X[i], V[i]
        acc = -(vi @ vi) / (xi @ xi) * xi
        for k in range(n):
            r = np.linalg.norm(xi - X[k])
            psi = float(params.kernel.psi(min(r, 2.0)))
            if k == i:
                moved = V[k]  # coincident-limit convention: identity transport
            else:
                moved = transport_oracle(X[k], xi, V[k])
            acc = acc + (psi / n) * (moved - vi)
            acc = acc + (params.sigma / n) * (X[k] - (xi @ X[k]) * xi)
        dV[i] = acc
    return V.copy(), dV


def frame_oracle(t, ensemble, params):
    """Every DiagnosticsFrame field, in order, from full (n, n, 3) pair tables.

    The frame diagnostics as first written (energy, diameters, flocking
    metrics and the pair-functional maximum each building their own
    difference and transport tables), kept as the reference for the
    contracted production path.  The transport is ``transport_oracle``'s,
    pair by pair, and the antipodal pairs are those with
    |x_i + x_j| <= ANTIPODAL_TOL, so no table code is shared with it.
    """
    from sphereflock import ANTIPODAL_TOL
    from sphereflock.dynamics import constraint_violation

    X, V = ensemble.positions, ensemble.velocities
    n = ensemble.n
    ek = float((V * V).sum()) / n
    diff = X[:, None, :] - X[None, :, :]
    ec = params.sigma / (2.0 * n * n) * float((diff * diff).sum())

    xd = X[:, None, :] - X[None, :, :]
    vd = V[:, None, :] - V[None, :, :]
    d_x = float(np.sqrt((xd * xd).sum(axis=-1).max()))
    d_v = float(np.sqrt((vd * vd).sum(axis=-1).max()))
    v_max = float(np.sqrt((V * V).sum(axis=1).max()))

    sums = X[:, None, :] + X[None, :, :]
    margin = np.sqrt((sums * sums).sum(axis=-1))
    bad = margin <= ANTIPODAL_TOL
    T = np.zeros((n, n, 3))  # T[j, i] = R_{x_j -> x_i} v_j, zero on antipodal pairs
    for j in range(n):
        for i in range(n):
            if i == j:
                T[j, i] = V[j]  # coincident-limit convention: identity transport
            elif not bad[j, i]:
                T[j, i] = transport_oracle(X[j], X[i], V[j])
    mis = T - V[None, :, :]  # mis[j, i] = R_{x_j -> x_i} v_j - v_i
    misnorm = np.sqrt((mis * mis).sum(axis=-1))
    prod = margin * misnorm  # margin is pair-symmetric
    prod[bad] = 0.0

    table = np.empty((n, n, 3))
    table[:, :, 0] = (xd * xd).sum(axis=-1)
    table[:, :, 1] = (vd * xd).sum(axis=-1)
    table[:, :, 2] = (vd * vd).sum(axis=-1)
    x_max = float(np.sqrt((table * table).sum(axis=-1).max()))

    radial, tangency = constraint_violation(X, V)
    return (t, ek + ec, ek, ec, d_x, d_v, v_max, float(prod.max()), float(margin.min()),
            radial, tangency, x_max)


def dissipation_oracle(ensemble, params):
    """sum_{i,j} (psi_ij / N^2) |R_{x_j -> x_i} v_j - v_i|^2, one pair at a time."""
    X, V = ensemble.positions, ensemble.velocities
    n = ensemble.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            psi = float(params.kernel.psi(min(np.linalg.norm(X[i] - X[j]), 2.0)))
            mis = transport_oracle(X[j], X[i], V[j]) - V[i]
            total += psi * float(mis @ mis)
    return total / (n * n)


def rk4_oracle(ensemble, dt, params, project):
    """(X, V, radial, tangency) of one textbook RK4 step through ``rhs``.

    Each stage is written out as its own arrays, in the classical expressions
    and their order of evaluation, so that a step which regroups its buffers
    must still round exactly as they do; then the drift of the result and,
    if ``project``, its projection, through ``constraint_violation`` and
    ``geometry.project_state``.  Those are the step's own routine,
    ``geometry._drift_and_project`` (checked against independent references
    by ``test_integrator.py``'s ``TestDriftAndProject``), so this oracle's
    independence lies in its RK stages, not in its drift or projection.
    """
    from sphereflock import Ensemble, rhs
    from sphereflock.dynamics import constraint_violation
    from sphereflock.geometry import project_state

    def accel(X, V):
        return rhs(Ensemble(X, V, validate=False), params)[1]

    X, V = ensemble.positions, ensemble.velocities
    half = 0.5 * dt
    a1 = accel(X, V)
    v2 = V + half * a1
    a2 = accel(X + half * V, v2)
    v3 = V + half * a2
    a3 = accel(X + half * v2, v3)
    v4 = V + dt * a3
    a4 = accel(X + dt * v3, v4)
    sixth = dt / 6.0
    Xn = X + sixth * (V + 2.0 * (v2 + v3) + v4)
    Vn = V + sixth * (a1 + 2.0 * (a2 + a3) + a4)
    radial, tangency = constraint_violation(Xn, Vn)
    if project:
        Xn, Vn = project_state(Xn, Vn)
    return Xn, Vn, radial, tangency
