"""Optional compiled stepping and dissipation loops for the integrator.

The numpy implementations in ``dynamics``/``integrator`` stay the
reference; this module only accelerates the fixed-step inner loop, and
only for kernels it knows in closed form (see ``Kernel.fast_code``).
Without numba everything falls back to the numpy loop.

Antipodal screening matches ``geometry.antipodal_mask``: pairs whose inner
product falls below _OPPOSITE_DOT get the exact |x_k + x_i|^2 test.
"""

from __future__ import annotations

import numpy as np

from .geometry import ANTIPODAL_TOL, _CROSS_GUARD, _OPPOSITE_DOT

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

# Kernel codes understood by the compiled rate evaluation.
FAST_NONE = -1
FAST_EXP3 = 0  # 3 (e^(2-r) - 1)
FAST_LINEAR = 1  # p (2 - r)

_ANTIPODAL_SQ = ANTIPODAL_TOL**2


def available(kernel) -> bool:
    return HAVE_NUMBA and getattr(kernel, "fast_code", FAST_NONE) != FAST_NONE


if HAVE_NUMBA:

    @njit(cache=True)
    def _accel(X, V, sigma, code, p, out):
        """Acceleration of every agent; returns 0 or an encoded antipodal pair."""
        n = X.shape[0]
        for i in range(n):
            vsq = V[i, 0] * V[i, 0] + V[i, 1] * V[i, 1] + V[i, 2] * V[i, 2]
            s0 = 0.0
            s1 = 0.0
            s2 = 0.0
            b0 = 0.0
            b1 = 0.0
            b2 = 0.0
            for k in range(n):
                d = X[k, 0] * X[i, 0] + X[k, 1] * X[i, 1] + X[k, 2] * X[i, 2]
                if k != i and d < _OPPOSITE_DOT:
                    a0 = X[i, 0] + X[k, 0]
                    a1 = X[i, 1] + X[k, 1]
                    a2 = X[i, 2] + X[k, 2]
                    if a0 * a0 + a1 * a1 + a2 * a2 <= _ANTIPODAL_SQ:
                        return 1 + k * n + i
                e0 = X[i, 0] - X[k, 0]
                e1 = X[i, 1] - X[k, 1]
                e2 = X[i, 2] - X[k, 2]
                r = np.sqrt(e0 * e0 + e1 * e1 + e2 * e2)
                if r > 2.0:
                    r = 2.0
                if code == 0:
                    psi = 3.0 * (np.exp(2.0 - r) - 1.0)
                else:
                    psi = p * (2.0 - r)
                c0 = X[k, 1] * X[i, 2] - X[k, 2] * X[i, 1]
                c1 = X[k, 2] * X[i, 0] - X[k, 0] * X[i, 2]
                c2 = X[k, 0] * X[i, 1] - X[k, 1] * X[i, 0]
                nsq = c0 * c0 + c1 * c1 + c2 * c2
                xv = X[k, 0] * V[k, 0] + X[k, 1] * V[k, 1] + X[k, 2] * V[k, 2]
                vx = V[k, 0] * X[i, 0] + V[k, 1] * X[i, 1] + V[k, 2] * X[i, 2]
                t0 = d * V[k, 0] + xv * X[i, 0] - vx * X[k, 0]
                t1 = d * V[k, 1] + xv * X[i, 1] - vx * X[k, 1]
                t2 = d * V[k, 2] + xv * X[i, 2] - vx * X[k, 2]
                if nsq > _CROSS_GUARD:
                    cv = (c0 * V[k, 0] + c1 * V[k, 1] + c2 * V[k, 2]) * (1.0 - d) / nsq
                    t0 += cv * c0
                    t1 += cv * c1
                    t2 += cv * c2
                s0 += psi * (t0 - V[i, 0])
                s1 += psi * (t1 - V[i, 1])
                s2 += psi * (t2 - V[i, 2])
                b0 += X[k, 0] - d * X[i, 0]
                b1 += X[k, 1] - d * X[i, 1]
                b2 += X[k, 2] - d * X[i, 2]
            out[i, 0] = -vsq * X[i, 0] + (s0 + sigma * b0) / n
            out[i, 1] = -vsq * X[i, 1] + (s1 + sigma * b1) / n
            out[i, 2] = -vsq * X[i, 2] + (s2 + sigma * b2) / n
        return 0

    @njit(cache=True)
    def dissipation(X, V, code, p):
        """sum_{i,j} (psi_ij / n^2) |R_{x_j -> x_i} v_j - v_i|^2."""
        n = X.shape[0]
        total = 0.0
        for i in range(n):
            for j in range(n):
                d = X[j, 0] * X[i, 0] + X[j, 1] * X[i, 1] + X[j, 2] * X[i, 2]
                e0 = X[i, 0] - X[j, 0]
                e1 = X[i, 1] - X[j, 1]
                e2 = X[i, 2] - X[j, 2]
                r = np.sqrt(e0 * e0 + e1 * e1 + e2 * e2)
                if r > 2.0:
                    r = 2.0
                if code == 0:
                    psi = 3.0 * (np.exp(2.0 - r) - 1.0)
                else:
                    psi = p * (2.0 - r)
                c0 = X[j, 1] * X[i, 2] - X[j, 2] * X[i, 1]
                c1 = X[j, 2] * X[i, 0] - X[j, 0] * X[i, 2]
                c2 = X[j, 0] * X[i, 1] - X[j, 1] * X[i, 0]
                nsq = c0 * c0 + c1 * c1 + c2 * c2
                xv = X[j, 0] * V[j, 0] + X[j, 1] * V[j, 1] + X[j, 2] * V[j, 2]
                vx = V[j, 0] * X[i, 0] + V[j, 1] * X[i, 1] + V[j, 2] * X[i, 2]
                t0 = d * V[j, 0] + xv * X[i, 0] - vx * X[j, 0]
                t1 = d * V[j, 1] + xv * X[i, 1] - vx * X[j, 1]
                t2 = d * V[j, 2] + xv * X[i, 2] - vx * X[j, 2]
                if nsq > _CROSS_GUARD:
                    cv = (c0 * V[j, 0] + c1 * V[j, 1] + c2 * V[j, 2]) * (1.0 - d) / nsq
                    t0 += cv * c0
                    t1 += cv * c1
                    t2 += cv * c2
                m0 = t0 - V[i, 0]
                m1 = t1 - V[i, 1]
                m2 = t2 - V[i, 2]
                total += psi * (m0 * m0 + m1 * m1 + m2 * m2)
        return total / (n * n)

    @njit(cache=True)
    def advance(X, V, dt, steps, sigma, code, p, project):
        """Advance `steps` RK4 steps in place.

        Returns (status, completed steps, max_radial, max_tangency) where
        the drift maxima are measured before each projection.  A nonzero
        status encodes the antipodal pair 1 + k*n + i found mid-stage.
        """
        n = X.shape[0]
        a1 = np.empty((n, 3))
        a2 = np.empty((n, 3))
        a3 = np.empty((n, 3))
        a4 = np.empty((n, 3))
        x2 = np.empty((n, 3))
        v2 = np.empty((n, 3))
        x3 = np.empty((n, 3))
        v3 = np.empty((n, 3))
        x4 = np.empty((n, 3))
        v4 = np.empty((n, 3))
        max_radial = 0.0
        max_tangency = 0.0
        half = 0.5 * dt
        sixth = dt / 6.0
        for s in range(steps):
            st = _accel(X, V, sigma, code, p, a1)
            if st != 0:
                return st, s, max_radial, max_tangency
            for i in range(n):
                for c in range(3):
                    x2[i, c] = X[i, c] + half * V[i, c]
                    v2[i, c] = V[i, c] + half * a1[i, c]
            st = _accel(x2, v2, sigma, code, p, a2)
            if st != 0:
                return st, s, max_radial, max_tangency
            for i in range(n):
                for c in range(3):
                    x3[i, c] = X[i, c] + half * v2[i, c]
                    v3[i, c] = V[i, c] + half * a2[i, c]
            st = _accel(x3, v3, sigma, code, p, a3)
            if st != 0:
                return st, s, max_radial, max_tangency
            for i in range(n):
                for c in range(3):
                    x4[i, c] = X[i, c] + dt * v3[i, c]
                    v4[i, c] = V[i, c] + dt * a3[i, c]
            st = _accel(x4, v4, sigma, code, p, a4)
            if st != 0:
                return st, s, max_radial, max_tangency
            for i in range(n):
                for c in range(3):
                    X[i, c] += sixth * (V[i, c] + 2.0 * (v2[i, c] + v3[i, c]) + v4[i, c])
                    V[i, c] += sixth * (a1[i, c] + 2.0 * (a2[i, c] + a3[i, c]) + a4[i, c])
            for i in range(n):
                rad = np.sqrt(X[i, 0] * X[i, 0] + X[i, 1] * X[i, 1] + X[i, 2] * X[i, 2])
                drift = abs(rad - 1.0)
                if drift > max_radial:
                    max_radial = drift
                tan = X[i, 0] * V[i, 0] + X[i, 1] * V[i, 1] + X[i, 2] * V[i, 2]
                if abs(tan) > max_tangency:
                    max_tangency = abs(tan)
                if project:
                    X[i, 0] /= rad
                    X[i, 1] /= rad
                    X[i, 2] /= rad
                    tan = X[i, 0] * V[i, 0] + X[i, 1] * V[i, 1] + X[i, 2] * V[i, 2]
                    V[i, 0] -= tan * X[i, 0]
                    V[i, 1] -= tan * X[i, 1]
                    V[i, 2] -= tan * X[i, 2]
        return 0, steps, max_radial, max_tangency
