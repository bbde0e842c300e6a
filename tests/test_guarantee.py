"""The rendezvous theorem on initial data it covers.

For every pair (i, j) the triple X_ij = (|x_i - x_j|^2, <v_i - v_j, x_i - x_j>,
|v_i - v_j|^2) obeys dX = A X + F, with A = ``coefficient_matrix(psi0, sigma)``
and the remainder F of ``inhomogeneous_table``.  Duhamel's formula,
X(t) = e^(At) X(0) + int_0^t e^(A(t-s)) F(s) ds, with |e^(At)|_2 <= K e^(-mu t),
gives

    max_ij |X_ij(t)| <= K e^(-mu t) (X(0) + G(t)),
    G(t) = int_0^t e^(mu s) max_ij |F_ij(s)| ds,

and D_x(t)^2 = max_ij X1_ij(t) is at most the left side, so

    D_x(t) <= sqrt(K (X(0) + G(t))) e^(-delta t):

D_x decays at delta = mu/2, half the rate of X.  The test draws states strictly
inside the admissible set, some at 0.9 of a threshold, and checks this bound
at every frame, with K and G computed here and nothing tuned.  Criterion 8's
envelope 1.05 D_x(0) e^(-delta t) is a different, fixed prefactor and stays
in ``test_acceptance.py`` as stated.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from sphereflock import (ModelParams, SimConfig, check_initial, paper_kernel, random_scenario,
                         simulate, thresholds)
from sphereflock.dynamics import coefficient_matrix, inhomogeneous_table

pytestmark = pytest.mark.slow

T_END = 30.0
# the bound is checked to rounding only: D_x(t) <= bound * (1 + ROUNDING)
ROUNDING = 1e-9


def growth_constant(psi0: float, sigma: float, mu: float) -> float:
    """K = max over t in [0, T_END], on a 1e-3 grid, of |expm((A + mu I) t)|_2."""
    shifted = coefficient_matrix(psi0, sigma) + mu * np.eye(3)
    t = np.linspace(0.0, T_END, int(round(T_END / 1e-3)) + 1)
    return float(np.linalg.norm(expm(t[:, None, None] * shifted), ord=2, axis=(1, 2)).max())


def admissible_draw(seed: int, n: int, params: ModelParams, spread: float, fraction: float):
    """``random_scenario(seed, n, cap, vel)`` with cap = s * 1e-6 and vel = s * spread
    * 1e-6, s chosen so that the largest of V(0)/V0, E(0)/E0 and X(0)/min(mu/2 sigma,
    X_M) is ``fraction``: V scales with s, E and X with s^2 (to rounding at these
    sizes, as one seed draws the same normals at every scale)."""
    th = thresholds(params.kernel, params.sigma)
    bound_x = min(th.mu / (2.0 * params.sigma), th.x_m)
    probe = check_initial(random_scenario(seed, n, 1e-6, spread * 1e-6, params).ensemble, params)
    s = min(fraction * th.v0 / probe.v_initial,
            math.sqrt(fraction * th.e0 / probe.e_initial),
            math.sqrt(fraction * bound_x / probe.x_initial))
    return random_scenario(seed, n, s * 1e-6, s * spread * 1e-6, params).ensemble


# (sigma, n, velocity-to-cap spread, fraction of the binding threshold)
DRAWS = [(sigma, n, spread, fraction)
         for sigma, cases in ((0.5, ((2, 1.0, 0.9), (5, 3.0, 0.5), (8, 0.3, 0.9), (4, 1.0, 0.5))),
                              (1.0, ((3, 0.3, 0.5), (6, 1.0, 0.9), (7, 3.0, 0.9), (2, 1.0, 0.5))),
                              (2.0, ((4, 3.0, 0.9), (8, 1.0, 0.5), (2, 0.3, 0.9), (6, 1.0, 0.5))))
         for n, spread, fraction in cases]


# Past n = 8: the condition depends on psi and sigma only, not on the number of agents.
LARGE_DRAWS = [(1.0, 16, 1.0, 0.9), (1.0, 32, 0.3, 0.5), (0.5, 64, 3.0, 0.9), (2.0, 64, 1.0, 0.9)]


def check_bound(draws, first_seed: int) -> float:
    """Draw each (sigma, n, spread, fraction) of ``draws``, seeds counting up from
    ``first_seed``, check that it is admissible, that E does not increase from
    frame to frame and that D_x(t) <= sqrt(K (X(0) + G(t))) e^(-delta t) at every
    frame to t = 30; return the worst D_x / bound."""
    kernel = paper_kernel()
    growth = {sigma: growth_constant(kernel.psi0, sigma, thresholds(kernel, sigma).mu)
              for sigma in {draw[0] for draw in draws}}
    worst = 0.0
    for seed, (sigma, n, spread, fraction) in enumerate(draws, first_seed):
        params = ModelParams(kernel, sigma)
        th = thresholds(kernel, sigma)
        ens = admissible_draw(seed, n, params, spread, fraction)
        report = check_initial(ens, params)
        assert report.admissible, (sigma, n, report.as_dict())
        closest = max(report.v_initial / th.v0, report.e_initial / th.e0,
                      report.x_initial / report.bound_x)
        assert fraction * (1.0 - 1e-3) < closest < fraction * (1.0 + 1e-3)

        traj = simulate(ens, params, SimConfig(dt=1e-2, t_end=T_END, frame_stride=1))
        t = traj.times
        e = traj.series("e_total")
        assert np.all(np.diff(e) <= 0.0), (sigma, n, float(np.diff(e).max()))

        k = growth[sigma]
        f_max = np.array([np.sqrt((f * f).sum(axis=-1)).max()
                          for f in (inhomogeneous_table(frame.ensemble, params)
                                    for frame in traj.frames)])
        weighted = np.exp(th.mu * t) * f_max
        g = np.concatenate(([0.0], np.cumsum(0.5 * (weighted[1:] + weighted[:-1]) * np.diff(t))))
        x0 = traj.frames[0].diagnostics.x_max
        bound = np.sqrt(k * (x0 + g)) * np.exp(-th.delta * t)
        ratio = traj.series("d_x") / bound
        worst = max(worst, float(ratio.max()))
        assert np.all(ratio <= 1.0 + ROUNDING), (
            f"sigma {sigma}, n {n}: D_x / bound = {ratio.max():.6f} "
            f"at t = {t[ratio.argmax()]:.2f} (K = {k:.6f})")
    return worst


def test_pair_system_bound_on_admissible_data():
    """Admissible draws at sigma 0.5, 1 and 2 with n from 2 to 8: each is
    admissible, E does not increase from frame to frame, and
    D_x(t) <= sqrt(K (X(0) + G(t))) e^(-delta t) at every frame to t = 30."""
    worst = check_bound(DRAWS, 0)
    print(f"worst D_x / bound over {len(DRAWS)} draws: {worst:.6f}")


def test_pair_system_bound_past_n_8():
    """The same bound, with the same K, G and ROUNDING, on admissible draws at
    n = 16, 32 and 64."""
    worst = check_bound(LARGE_DRAWS, len(DRAWS))
    print(f"worst D_x / bound over {len(LARGE_DRAWS)} draws: {worst:.6f}")
