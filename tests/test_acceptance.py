"""Acceptance suite: the ten shipping criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with -s or in failure output)
and then asserts.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from helpers import random_ensemble, random_unit
from sphereflock import (ModelParams, SimConfig, check_initial, fit_decay_rate,
                         paper_kernel, paper_scenario, random_scenario,
                         rotation_matrix, simulate, spectral_abscissa, thresholds,
                         transport, velocity_bound_check)
from sphereflock.admissibility import (_xm_coefficient, aggregate_constant,
                                       solve_x_m, x_m_residual)
from sphereflock.diagnostics import diameters, dissipation_residual, energy_rate
from sphereflock.dynamics import (coefficient_matrix, inhomogeneous_table,
                                  pair_derivative_table, pair_functional_table)
from sphereflock.integrator import energy_audit

# the full-size runs take minutes; `pytest -m "not slow"` leaves them out
pytestmark = pytest.mark.slow

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def _report(number: int, ok: bool, detail: str) -> str:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_rotation_identity_suite():
    """Five transport identities on 1e4 random pairs, plus the equator
    closed form, all to 1e-12, in under a second."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    z1 = random_unit(rng, 10_000)
    z2 = random_unit(rng, 10_000)
    keep = np.linalg.norm(z1 + z2, axis=1) > 1e-6
    z1, z2 = z1[keep], z2[keep]

    rot = rotation_matrix(z1, z2)
    back = rotation_matrix(z2, z1)
    d = (z1 * z2).sum(axis=1)
    c = np.cross(z1, z2)
    worst = max(
        np.abs(np.einsum("pij,pik->pjk", rot, rot) - np.eye(3)).max(),
        np.abs(np.einsum("pij,pj->pi", rot, z1) - z2).max(),
        np.abs(np.einsum("pij,pj->pi", rot, z2) - (2.0 * d[:, None] * z2 - z1)).max(),
        np.abs(np.einsum("pij,pj->pi", rot, c) - c).max(),
        np.abs(rot.transpose(0, 2, 1) - back).max(),
    )

    equator_worst = 0.0
    for t in np.linspace(0.01, np.pi - 0.01, 100):
        target = np.array([np.cos(t), np.sin(t), 0.0])
        equator_worst = max(
            equator_worst,
            np.abs(transport(E1, target, E2) - np.array([-np.sin(t), np.cos(t), 0.0])).max(),
            np.abs(transport(E1, target, E3) - E3).max(),
        )
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-12 and equator_worst <= 1e-12 and elapsed < 1.0
    line = _report(1, ok, f"identities {worst:.2e}, equator {equator_worst:.2e}, "
                          f"{len(z1)} pairs in {elapsed:.2f} s")
    assert ok, line


def test_criterion_2_linearized_pair_system():
    """Chain-rule derivative of the pair triple equals A X + F to 1e-9
    relative (with an absolute floor of 1) on 1e3 random states."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    kernel = paper_kernel()
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(kernel, float(rng.uniform(0.1, 5.0)))
        ens = random_ensemble(rng, int(rng.integers(2, 9)))
        lhs = pair_derivative_table(ens, params)
        amat = coefficient_matrix(kernel.psi0, params.sigma)
        rhs_side = (np.einsum("ab,ijb->ija", amat, pair_functional_table(ens))
                    + inhomogeneous_table(ens, params))
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs_side)))
        worst = max(worst, float((np.abs(lhs - rhs_side) / scale).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    line = _report(2, ok, f"worst relative residual {worst:.2e} in {elapsed:.1f} s")
    assert ok, line


def test_criterion_3_dissipation_identity(sigma1_traj):
    """Pointwise dissipation identity, frame-to-frame energy monotonicity,
    and the discrete energy inequality with trapezoidal accounting."""
    rng = np.random.default_rng(103)
    kernel = paper_kernel()
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(kernel, float(rng.uniform(0.1, 5.0)))
        ens = random_ensemble(rng, int(rng.integers(1, 9)))
        res = dissipation_residual(ens, params)
        worst = max(worst, res / max(1.0, abs(energy_rate(ens, params))))

    e = sigma1_traj.series("e_total")
    worst_increase = float(np.max(np.diff(e) / np.maximum(1.0, e[:-1])))

    sc = paper_scenario(1.0)
    # dt = 2.5e-4 resolves the initial alignment transient; the trapezoid
    # overshoot scales as dt^2 (5.6e-6 at dt = 1e-3)
    audit = energy_audit(sc.ensemble, sc.params, dt=2.5e-4, t_end=80.0)

    ok = worst <= 1e-10 and worst_increase <= 1e-8 and -1e-9 <= audit.slack <= 1e-6
    line = _report(3, ok, f"identity {worst:.2e}, worst E increase {worst_increase:.2e}, "
                          f"ledger slack {audit.slack:.2e}")
    assert ok, line


def test_criterion_4_constraint_preservation(sigma1_traj):
    """Pre-projection per-step drift stays below 1e-10 / 1e-9 over the full
    80k-step benchmark run."""
    radial = sigma1_traj.max_step_radial
    tangency = sigma1_traj.max_step_tangency
    ok = radial <= 1e-10 and tangency <= 1e-9
    line = _report(4, ok, f"per-step drift radial {radial:.2e}, tangency {tangency:.2e}")
    assert ok, line


def test_criterion_5_integrator_order():
    """Halving dt cuts the great-circle end-state error by 12x-20x."""
    params = ModelParams(paper_kernel(), 1.0)
    from sphereflock import Ensemble
    exact = np.array([np.cos(1.0), np.sin(1.0), 0.0])
    errors = {}
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        traj = simulate(Ensemble([E1], [E2]), params,
                        SimConfig(dt=dt, t_end=1.0, frame_stride=int(round(1.0 / dt))))
        errors[dt] = float(np.linalg.norm(traj.final.ensemble.positions[0] - exact))
    ratios = {dt: errors[dt] / errors[dt / 2.0] for dt in (1e-2, 5e-3, 2.5e-3)}
    ok = all(12.0 <= r <= 20.0 for r in ratios.values())
    line = _report(5, ok, "halving ratios " +
                   ", ".join(f"{dt:g}: {r:.2f}" for dt, r in ratios.items()))
    assert ok, line


def test_criterion_6_exponential_rendezvous(sigma1_traj):
    """Benchmark sigma = 1 run contracts by 10x and is log-linear on
    [10, 80]; the fitted rate is reported next to the guaranteed delta."""
    dx = sigma1_traj.series("d_x")
    contraction = dx[-1] / dx[0]
    fit = fit_decay_rate(sigma1_traj.times, dx, (10.0, 80.0))
    delta = thresholds(paper_kernel(), 1.0).delta
    ok = contraction <= 0.1 and fit.r_squared >= 0.99
    line = _report(6, ok, f"D_x(80)/D_x(0) = {contraction:.4f}, fitted rate "
                          f"{fit.rate:.5f} (r^2 {fit.r_squared:.5f}) vs delta {delta:.5f}")
    assert ok, line


def test_criterion_7_inadmissible_at_sigma_5(sigma5_traj):
    """sigma = 5 benchmark data fails the pair-functional clause by >= 10x,
    yet the simulation completes; its fitted rate is reported."""
    sc = paper_scenario(5.0)
    report = check_initial(sc.ensemble, sc.params)
    margin = report.x_initial / (report.thresholds.mu / (2.0 * 5.0))
    completed = sigma5_traj.final.time == 80.0
    fit = fit_decay_rate(sigma5_traj.times, sigma5_traj.series("d_x"), (10.0, 80.0))
    ok = (not report.admissible) and margin >= 10.0 and completed
    line = _report(7, ok, f"admissible={report.admissible}, X(0) exceeds mu/2sigma "
                          f"by {margin:.1f}x, run completed={completed}, "
                          f"fitted rate {fit.rate:.5f} (r^2 {fit.r_squared:.5f})")
    assert ok, line


def test_criterion_8_guarantee_on_constructed_data():
    """Tight-cap scenarios: admissibility check plus the guaranteed decay
    envelope D_x(t) <= 1.05 D_x(0) e^(-delta t), for 20 seeds.

    Expected RED on the admissibility clause: the aggregation constant C
    (~2452 for the benchmark kernel at sigma = 1) makes the strict
    thresholds V0 ~ 1e-5, E0 ~ 3e-11, X_M ~ 5e-9, which no cap of radius
    pi/64 with velocity scale 0.01 can satisfy - those would need agents
    coincident and at rest to about 1e-5.  The check is asserted as stated
    rather than weakened; the envelope clause is verified independently and
    holds.

    The prefactor 1.05 is, as far as is known, this test's choice, not a
    constant of the paper, and the envelope can fail on admissible data:
    for random_scenario(seed, 6, 2e-6, 1e-6) at sigma = 1, dt 1e-2, t_end
    30 (seeds 0-19, all admissible) the worst ratio D_x / (D_x(0) e^(-delta t))
    is 1.0502, seed 17 at t = 0.83.  The linearised pair system's bound
    D_x(t) <= sqrt(K X(0)) e^(-delta t), X(0) the largest pair triple norm at
    t = 0 and K = sup_t |e^((A + mu I) t)|_2 = 1.0124, held there (worst 0.9991).
    """
    start = time.perf_counter()
    params = ModelParams(paper_kernel(), 1.0)
    delta = thresholds(params.kernel, 1.0).delta
    sim = SimConfig(dt=1e-3, t_end=30.0, frame_stride=10)

    admissible = []
    envelope_ok = []
    worst_ratio = 0.0
    for seed in range(20):
        sc = random_scenario(seed, 6, math.pi / 64, 0.01, params, sim=sim)
        admissible.append(check_initial(sc.ensemble, params).admissible)
        traj = simulate(sc.ensemble, params, sim)
        dx = traj.series("d_x")
        bound = 1.05 * dx[0] * np.exp(-delta * traj.times)
        envelope_ok.append(bool(np.all(dx <= bound)))
        worst_ratio = max(worst_ratio, float(np.max(dx / (dx[0] * np.exp(-delta * traj.times)))))
    elapsed = time.perf_counter() - start

    ok = all(admissible) and all(envelope_ok) and elapsed < 300.0
    line = _report(8, ok, f"admissible {sum(admissible)}/20, envelope "
                          f"{sum(envelope_ok)}/20 (worst ratio {worst_ratio:.3f} "
                          f"vs 1.05), {elapsed:.0f} s")
    assert ok, line


def test_criterion_9_velocity_and_remainder_bounds(sigma1_traj):
    """Uniform speed bound along the benchmark run; componentwise and
    aggregated remainder bounds at 1e4 random states with zero violations."""
    kernel = paper_kernel()
    psi_m = float(kernel.psi(min(float(sigma1_traj.series("d_x").max()), 2.0)))
    report = velocity_bound_check(sigma1_traj, psi_m)
    speed_ok = (not report.vacuous) and report.worst_violation <= 1e-8

    rng = np.random.default_rng(109)
    c1 = kernel.c1_norm
    psi0 = kernel.psi0
    violations = 0
    for _ in range(10_000):
        sigma = float(rng.uniform(0.05, 5.0))
        params = ModelParams(kernel, sigma)
        ens = random_ensemble(rng, int(rng.integers(2, 9)),
                              speed=float(rng.uniform(0.2, 1.5)))
        table = inhomogeneous_table(ens, params)
        d_x, d_v, v = diameters(ens)
        b2 = (v + 6.0 * c1) * v * d_x**2 + psi0 * v * d_x**3 + 0.5 * sigma * d_x**4
        b3 = ((3.0 * v + 6.0 * c1 + 2.0 * sigma) * v * d_x**2
              + (3.0 * v + 7.0 * c1) * v * d_v**2 + psi0 * v * d_x**4)
        c_const = aggregate_constant(kernel, sigma)
        agg = c_const * (v + v * v) / 4.0 * (d_x**2 + d_v**2) + 0.5 * sigma * d_x**4
        fnorm = float(np.sqrt((table * table).sum(axis=-1)).max())
        if (np.abs(table[:, :, 1]).max() > b2 + 1e-9
                or np.abs(table[:, :, 2]).max() > b3 + 1e-9
                or fnorm > agg + 1e-9):
            violations += 1

    ok = speed_ok and violations == 0
    line = _report(9, ok, f"speed-bound violation {report.worst_violation:.2e} "
                          f"(psi_m {psi_m:.3f}), remainder violations {violations}/10000")
    assert ok, line


def test_criterion_10_pair_ceiling_fixed_point():
    """Fixed-point residual at 1e-12 and a unique bracket sign change for
    the benchmark kernel across bonding rates."""
    kernel = paper_kernel()
    worst = 0.0
    unique = True
    for sigma in (0.5, 1.0, 2.0, 5.0):
        mu = spectral_abscissa(kernel.psi0, sigma)
        c = aggregate_constant(kernel, sigma)
        x_m = solve_x_m(kernel, sigma, mu, c)
        worst = max(worst, x_m_residual(kernel, sigma, mu, c, x_m))
        coef = _xm_coefficient(sigma, mu, c)
        grid = np.linspace(1e-12, 4.0, 10_000)
        h = np.sqrt(grid) - coef * kernel.psi(np.sqrt(grid))
        unique = unique and int((np.diff(np.sign(h)) != 0).sum()) == 1
    ok = worst <= 1e-12 and unique
    line = _report(10, ok, f"worst residual {worst:.2e}, unique sign change: {unique}")
    assert ok, line
