import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_ensemble
from sphereflock import (Ensemble, ModelParams, NoRoot, aggregate_constant,
                         check_initial, linear_kernel, make_kernel, paper_kernel,
                         paper_scenario, spectral_abscissa, thresholds, x_m_residual)
from sphereflock.admissibility import (_speed_energy_thresholds, _xm_coefficient,
                                       solve_x_m)
from sphereflock.dynamics import inhomogeneous_table
from sphereflock.diagnostics import diameters

E1 = np.array([1.0, 0.0, 0.0])


class TestAggregateConstant:
    def test_floor_at_degenerate_kernel(self):
        # c1_norm = psi0 = 0 boundary collapses to the V^2 floor
        flat = make_kernel("flat", lambda r: np.zeros_like(np.asarray(r, float)),
                           lambda r: np.zeros_like(np.asarray(r, float)),
                           psi0=0.0, c1_norm=0.0)
        assert aggregate_constant(flat, 0.0) == 16.0

    def test_benchmark_kernel_closed_form(self):
        # 48 (6 e^2 - 3) + 8 + 72 (e^2 - 1) = 360 e^2 - 208
        c = aggregate_constant(paper_kernel(), 1.0)
        assert_allclose(c, 360.0 * math.e**2 - 208.0, rtol=1e-14)
        assert_allclose(c, 2452.0601956150341, rtol=1e-14)

    def test_monotone_in_sigma(self):
        k = paper_kernel()
        assert aggregate_constant(k, 2.0) > aggregate_constant(k, 1.0)

    def test_remainder_norm_bound_monte_carlo(self):
        # |F| <= C (V + V^2)/4 (D_x^2 + D_v^2) + (sigma/2) D_x^4
        rng = np.random.default_rng(9)
        kernel = paper_kernel()
        for _ in range(500):
            sigma = float(rng.uniform(0.05, 5.0))
            p = ModelParams(kernel, sigma)
            ens = random_ensemble(rng, int(rng.integers(2, 9)),
                                  speed=float(rng.uniform(0.2, 1.5)))
            f = inhomogeneous_table(ens, p)
            fnorm = float(np.sqrt((f * f).sum(axis=-1)).max())
            d_x, d_v, v = diameters(ens)
            c = aggregate_constant(kernel, sigma)
            bound = c * (v + v * v) / 4.0 * (d_x**2 + d_v**2) + 0.5 * sigma * d_x**4
            assert fnorm <= bound + 1e-9


class TestPairCeiling:
    def test_linear_kernel_closed_form(self):
        # for psi(s) = 2 - s the fixed point is explicit:
        # s = coef (2 - s)  =>  s = 2 coef / (1 + coef)
        k = linear_kernel(1.0)
        sigma = 1.0
        mu = spectral_abscissa(k.psi0, sigma)
        c = aggregate_constant(k, sigma)
        x_m = solve_x_m(k, sigma, mu, c)
        coef = _xm_coefficient(sigma, mu, c)
        expected = (2.0 * coef / (1.0 + coef)) ** 2
        assert_allclose(x_m, expected, rtol=1e-12)
        assert x_m_residual(k, sigma, mu, c, x_m) <= 1e-12

    def test_second_branch_closed_form(self):
        # synthetic mu/4C >= 1 inputs exercise the sqrt-coefficient case
        k = linear_kernel(1.0)
        mu, c, sigma = 128.0, 16.0, 1.0
        assert mu / (4.0 * c) >= 1.0
        coef = _xm_coefficient(sigma, mu, c)
        assert_allclose(coef, math.sqrt(128.0) / math.sqrt(32.0 * 16.0), rtol=1e-15)
        x_m = solve_x_m(k, sigma, mu, c)
        assert_allclose(x_m, (2.0 * coef / (1.0 + coef)) ** 2, rtol=1e-12)

    def test_larger_coefficient_gives_larger_root(self):
        k = paper_kernel()
        sigma = 1.0
        mu = spectral_abscissa(k.psi0, sigma)
        c = aggregate_constant(k, sigma)
        assert solve_x_m(k, sigma, 2.0 * mu, c) > solve_x_m(k, sigma, mu, c)

    def test_benchmark_golden_value(self):
        # frozen from a 50-digit fixed-point solve
        k = paper_kernel()
        mu = spectral_abscissa(k.psi0, 1.0)
        c = aggregate_constant(k, 1.0)
        x_m = solve_x_m(k, 1.0, mu, c)
        assert_allclose(x_m, 5.2250342686907965e-09, rtol=1e-12)
        assert x_m_residual(k, 1.0, mu, c, x_m) <= 1e-12

    def test_unique_sign_change_on_grid(self):
        k = paper_kernel()
        for sigma in (0.5, 1.0, 2.0, 5.0):
            mu = spectral_abscissa(k.psi0, sigma)
            c = aggregate_constant(k, sigma)
            coef = _xm_coefficient(sigma, mu, c)
            grid = np.linspace(1e-12, 4.0, 10_000)
            h = np.sqrt(grid) - coef * k.psi(np.sqrt(grid))
            assert int((np.diff(np.sign(h)) != 0).sum()) == 1

    def test_bisection_stops_at_adjacent_doubles(self):
        # the bracket stops shrinking after about 67 halvings; the result is
        # the bits of a loop that runs all 200
        for kernel in (paper_kernel(), linear_kernel(1.5)):
            for sigma in (0.5, 1.0, 5.0):
                mu = spectral_abscissa(kernel.psi0, sigma)
                c = aggregate_constant(kernel, sigma)
                calls = []

                def counting_psi(r, psi=kernel.psi):
                    calls.append(r)
                    return psi(r)

                x_m = solve_x_m(dataclasses.replace(kernel, psi=counting_psi), sigma, mu, c)
                assert 0 < len(calls) < 100
                coef = _xm_coefficient(sigma, mu, c)
                lo, hi = 0.0, 2.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid - coef * float(kernel.psi(mid)) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                s = 0.5 * (lo + hi)
                assert x_m == s * s

    def test_degenerate_kernel_has_no_root(self):
        flat = make_kernel("flat", lambda r: np.zeros_like(np.asarray(r, float)),
                           lambda r: np.zeros_like(np.asarray(r, float)),
                           psi0=0.0, c1_norm=0.0)
        with pytest.raises(NoRoot):
            solve_x_m(flat, 1.0, 1.0, 16.0)


class TestThresholds:
    def test_complex_branch_kernel_family(self):
        # psi0 = 2, sigma = 1 sits on the psi0^2 <= 4 sigma boundary: mu = psi0
        th = thresholds(linear_kernel(1.0), 1.0)
        assert th.mu == 2.0
        assert th.delta == 1.0

    def test_speed_energy_consistency_both_branches(self):
        for mu, c in [(0.5, 16.0), (3.0, 20.0), (128.0, 16.0), (64.0, 16.0)]:
            v0, e0 = _speed_energy_thresholds(mu, c)
            assert_allclose(e0, v0 * v0 / 4.0, rtol=1e-12)

    def test_field_invariants(self):
        for kernel, sigma in [(paper_kernel(), 1.0), (paper_kernel(), 5.0),
                              (linear_kernel(1.0), 0.5), (linear_kernel(2.5), 2.0)]:
            th = thresholds(kernel, sigma)
            for value in (th.mu, th.c_const, th.v0, th.e0, th.x_m, th.psi_m, th.delta):
                assert value > 0.0
            assert 0.0 < th.x_m < 4.0
            assert th.psi_m == float(kernel.psi(math.sqrt(th.x_m)))
            assert th.delta == 0.5 * th.mu

    def test_delta_is_half_mu(self):
        th = thresholds(paper_kernel(), 1.0)
        assert th.delta == 0.5 * th.mu
        assert_allclose(th.mu, 0.10463067669670672, rtol=1e-14)


class TestCheckInitial:
    def test_coincident_cluster_at_rest_admissible_for_any_sigma(self):
        ens = Ensemble([E1] * 5, np.zeros((5, 3)))
        for sigma in (0.5, 1.0, 5.0):
            report = check_initial(ens, ModelParams(paper_kernel(), sigma))
            assert report.admissible
            assert report.verdict_v and report.verdict_e and report.verdict_x

    def test_benchmark_sigma5_fails_with_wide_margin(self):
        sc = paper_scenario(5.0)
        report = check_initial(sc.ensemble, sc.params)
        assert not report.admissible
        assert not report.verdict_x
        assert report.x_initial >= 10.0 * report.thresholds.mu / (2.0 * 5.0)

    def test_antipodal_pair_at_rest_inadmissible(self):
        ens = Ensemble([E1, -E1], np.zeros((2, 3)))
        report = check_initial(ens, ModelParams(paper_kernel(), 1.0))
        assert_allclose(report.x_initial, 4.0, rtol=1e-15)
        assert not report.verdict_x
        assert not report.admissible

    def test_report_dict_has_margins_and_thresholds(self):
        sc = paper_scenario(1.0)
        payload = check_initial(sc.ensemble, sc.params).as_dict()
        assert set(payload["thresholds"]) == {"mu", "c_const", "v0", "e0",
                                              "x_m", "psi_m", "delta"}
        assert payload["admissible"] == (payload["verdict_v"] and
                                         payload["verdict_e"] and
                                         payload["verdict_x"])
        assert set(payload["margins"]) == {"v", "e", "x"}

    def test_pair_clause_bound_tightens_with_sigma(self):
        # measured comparative static on a sigma grid: for the benchmark
        # kernel the binding term is X_M, which shrinks as sigma grows
        # (mu/2sigma itself is not monotone across the spectral branches)
        k = paper_kernel()
        bounds = []
        for sigma in np.linspace(0.25, 6.0, 24):
            th = thresholds(k, float(sigma))
            bounds.append(min(th.mu / (2.0 * sigma), th.x_m))
        assert np.all(np.diff(bounds) <= 0.0)
