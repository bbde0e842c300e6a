import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import dissipation_oracle, frame_oracle, random_ensemble
from sphereflock import (ANTIPODAL_TOL, Ensemble, InsufficientSamples, ModelParams,
                         NonPositiveValue, SimConfig, diameters, dissipation_residual,
                         energy, energy_rate, fit_decay_rate, linear_kernel,
                         pairwise_dissipation, paper_kernel, paper_scenario,
                         random_scenario, rhs, simulate, velocity_bound_check)
from sphereflock.diagnostics import make_frame
from sphereflock.integrator import _step

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def params():
    return ModelParams(kernel=paper_kernel(), sigma=1.0)


class TestEnergy:
    def test_coincident_cluster_common_velocity(self):
        v = np.array([0.0, 0.3, 0.4])
        ens = Ensemble([E1] * 4, [v] * 4)
        e, ek, ec = energy(ens, sigma=2.0)
        assert_allclose(ek, v @ v, rtol=1e-15)
        assert ec == 0.0
        assert e == ek

    def test_antipodal_pair_at_rest(self):
        ens = Ensemble([E1, -E1], np.zeros((2, 3)))
        for sigma in (0.5, 1.0, 3.0):
            e, ek, ec = energy(ens, sigma)
            assert ek == 0.0
            assert_allclose(ec, sigma, rtol=1e-15)
            assert_allclose(e, sigma, rtol=1e-15)

    def test_benchmark_initial_energy_regression(self):
        # frozen after first computation (direct evaluation on the
        # renormalized benchmark state)
        e, _, _ = energy(paper_scenario(1.0).ensemble, 1.0)
        assert_allclose(e, 0.6804987890941742, rtol=1e-13)

    def test_split_adds_up(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ens = random_ensemble(rng, int(rng.integers(1, 9)))
            e, ek, ec = energy(ens, float(rng.uniform(0.0, 5.0)))
            assert abs(e - (ek + ec)) <= 1e-12 * max(1.0, abs(e))


class TestDissipationIdentity:
    def test_random_states(self, params):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ens = random_ensemble(rng, int(rng.integers(1, 9)))
            res = dissipation_residual(ens, params)
            assert res <= 1e-10 * max(1.0, abs(energy_rate(ens, params)))

    def test_single_agent_both_sides_zero(self, params):
        ens = Ensemble([E1], [0.4 * E2])
        assert dissipation_residual(ens, params) <= 1e-15
        assert abs(energy_rate(ens, params)) <= 1e-15

    def test_coincident_cluster_equal_velocities(self, params):
        v = 0.5 * E2
        ens = Ensemble([E1, E1, E1], [v, v, v])
        assert dissipation_residual(ens, params) <= 1e-13

    def test_against_finite_difference_of_energy(self, params):
        # secondary oracle: central difference of E along the flow
        rng = np.random.default_rng(2)
        dt = 1e-6
        for _ in range(10):
            ens = random_ensemble(rng, 5)
            a1 = rhs(ens, params)[1]
            # the unprojected step is the raw RK4 step
            fwd_x, fwd_v = _step(ens.positions, ens.velocities, a1, dt, params, False)[:2]
            back_x, back_v = _step(ens.positions, ens.velocities, a1, -dt, params, False)[:2]
            e_fwd = energy(Ensemble(fwd_x, fwd_v, validate=False), params.sigma)[0]
            e_back = energy(Ensemble(back_x, back_v, validate=False), params.sigma)[0]
            fd = (e_fwd - e_back) / (2.0 * dt)
            analytic = energy_rate(ens, params)
            assert abs(fd - analytic) <= 1e-7 * max(1.0, abs(analytic))


class TestDiameters:
    def test_single_agent(self):
        d_x, d_v, v_max = diameters(Ensemble([E1], [0.7 * E3]))
        assert (d_x, d_v) == (0.0, 0.0)
        assert_allclose(v_max, 0.7, rtol=1e-15)

    def test_antipodal_pair_at_rest(self):
        d_x, d_v, v_max = diameters(Ensemble([E1, -E1], np.zeros((2, 3))))
        assert_allclose(d_x, 2.0, rtol=1e-15)
        assert d_v == 0.0 and v_max == 0.0

    def test_hand_example(self):
        ens = Ensemble([E1, E2], [E3, -E3])
        d_x, d_v, v_max = diameters(ens)
        assert_allclose(d_x, np.sqrt(2.0), rtol=1e-15)
        assert_allclose(d_v, 2.0, rtol=1e-15)
        assert_allclose(v_max, 1.0, rtol=1e-15)


class TestFlockingMetrics:
    """The alignment product and antipodal margin of ``make_frame``."""

    def test_coincident_cluster(self, params):
        v = 0.2 * E2
        frame = make_frame(0.0, Ensemble([E1, E1], [v, v]), params)
        assert frame.flock_align <= 1e-14
        assert_allclose(frame.antipode_margin, 2.0, rtol=1e-15)

    def test_antipodal_pair_flagged(self, params):
        frame = make_frame(0.0, Ensemble([E1, -E1], np.zeros((2, 3))), params)
        assert frame.antipode_margin <= ANTIPODAL_TOL  # the pair is degenerate
        assert frame.antipode_margin == 0.0
        assert frame.flock_align == 0.0  # pairs inside the tolerance report 0 by convention


class TestMaxPairFunctional:
    """``make_frame``'s x_max, the largest Euclidean norm of a pair triple (X1, X2, X3)."""

    def test_coincident_cluster(self, params):
        v = 0.2 * E2
        assert make_frame(0.0, Ensemble([E1, E1], [v, v]), params).x_max <= 1e-14

    def test_antipodal_pair_at_rest(self, params):
        assert_allclose(make_frame(0.0, Ensemble([E1, -E1], np.zeros((2, 3))), params).x_max,
                        4.0, rtol=1e-15)

    def test_dominates_squared_diameters(self, params):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ens = random_ensemble(rng, int(rng.integers(2, 9)))
            d_x, d_v, _ = diameters(ens)
            x_max = make_frame(0.0, ens, params).x_max
            assert x_max >= d_x**2 - 1e-12
            assert x_max >= d_v**2 - 1e-12


class TestVelocityBound:
    def test_single_agent_no_bonding(self):
        p = ModelParams(paper_kernel(), 0.0)
        traj = simulate(Ensemble([E1], [0.5 * E2]), p,
                        SimConfig(dt=1e-3, t_end=2.0, frame_stride=100))
        report = velocity_bound_check(traj, psi_m=p.kernel.psi0)
        assert not report.vacuous
        assert report.worst_violation <= 1e-8

    def test_overdeclared_floor_is_vacuous(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.5, frame_stride=50))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        report = velocity_bound_check(traj, psi_m=2.0 * params.kernel.psi0)
        assert report.vacuous

    @pytest.mark.parametrize("psi_m", [math.nan, math.inf])
    def test_non_finite_floor_is_vacuous(self, psi_m):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.2, frame_stride=20))
        report = velocity_bound_check(simulate(sc.ensemble, sc.params, sc.sim), psi_m=psi_m)
        assert report.vacuous and math.isnan(report.worst_violation)

    def test_nonpositive_floor_is_vacuous(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.2, frame_stride=20))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        assert velocity_bound_check(traj, psi_m=0.0).vacuous


class TestFitDecayRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = fit_decay_rate(t, 3.7 * np.exp(-0.42 * t), (0.0, 10.0))
        assert_allclose(fit.rate, 0.42, atol=1e-10)
        assert_allclose(fit.r_squared, 1.0, atol=1e-12)
        assert not fit.degenerate

    def test_constant_series_reported_degenerate(self):
        t = np.linspace(0.0, 10.0, 50)
        fit = fit_decay_rate(t, np.full_like(t, 2.5), (0.0, 10.0))
        assert fit.rate == 0.0
        assert fit.r_squared == 0.0
        assert fit.degenerate

    def test_modulated_exponential(self):
        t = np.linspace(0.0, 40.0, 2001)
        v = np.exp(-0.3 * t) * (1.0 + 0.01 * np.sin(t))
        fit = fit_decay_rate(t, v, (0.0, 40.0))
        assert abs(fit.rate - 0.3) <= 0.02 * 0.3

    def test_window_filters_samples(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.exp(-t) + 5.0 * (t < 2.0)  # transient outside the window
        fit = fit_decay_rate(t, v, (2.5, 10.0))
        assert_allclose(fit.rate, 1.0, atol=1e-9)

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0.0, 10.0, 50)
        v = np.exp(-t) - 0.5
        with pytest.raises(NonPositiveValue):
            fit_decay_rate(t, v, (0.0, 10.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        t = np.linspace(0.0, 10.0, 50)
        v = np.exp(-t)
        v[20] = bad
        with pytest.raises(NonPositiveValue):
            fit_decay_rate(t, v, (0.0, 10.0))
        v[20] = 1.0  # outside the window a bad sample is ignored
        v[45] = bad
        assert fit_decay_rate(t, v, (0.0, 9.0)).n_samples == 45

    def test_rejects_sparse_windows(self):
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(InsufficientSamples):
            fit_decay_rate(t, np.exp(-t), (9.5, 10.0))


def _property_state(kind, n, seed, speed, p):
    """A random state, a tight nearly aligned cap, or one with an antipodal pair."""
    if kind == "cap":
        return random_scenario(seed, n, math.pi / 64, 0.01 * speed, p).ensemble
    ens = random_ensemble(np.random.default_rng(seed), n, speed)
    if kind == "antipodal" and n >= 2:
        X = ens.positions.copy()
        X[0], X[n - 1] = E3, -E3
        return Ensemble.projected(X, ens.velocities)
    return ens


PROPERTY_STATES = st.tuples(st.sampled_from(["random", "cap", "antipodal"]),
                            st.sampled_from([1, 2, 6, 40]), st.integers(0, 2**31 - 1),
                            st.sampled_from([0.01, 0.3, 1.0]))


class TestContractedPairSums:
    """Frame diagnostics and dissipation against their (n, n, 3) references."""

    @settings(max_examples=30)
    @given(PROPERTY_STATES, st.sampled_from([0.0, 1.0, 5.0]))
    def test_make_frame_matches_frame_oracle(self, state, sigma):
        kind, n, seed, speed = state
        p = ModelParams(paper_kernel(), sigma)
        ens = _property_state(kind, n, seed, speed, p)
        got = make_frame(0.25, ens, p).as_row()
        assert_allclose(got, frame_oracle(0.25, ens, p), rtol=1e-12, atol=0)

    @settings(max_examples=30)
    @given(PROPERTY_STATES)
    def test_dissipation_matches_per_pair_loop(self, state):
        kind, n, seed, speed = state
        p = ModelParams(linear_kernel(1.5) if seed % 2 else paper_kernel(), 1.0)
        ens = _property_state("random" if kind == "antipodal" else kind, n, seed, speed, p)
        # absolute slack at rounding level: k = i terms are zero only up to it
        scale = p.kernel.psi0 * float((ens.velocities**2).sum(axis=1).max())
        assert_allclose(pairwise_dissipation(ens, p), dissipation_oracle(ens, p),
                        rtol=1e-12, atol=1e-15 * scale)


def test_alignment_decays_on_benchmark_run(sigma1_traj):
    align = sigma1_traj.series("flock_align")
    # alignment product drops by well over two orders of magnitude by t = 80
    assert align[-1] <= 1e-2 * align[0]


def test_pair_functional_dominates_diameters_at_every_frame(sigma1_traj):
    x_max = sigma1_traj.series("x_max")
    assert np.all(sigma1_traj.series("d_x") ** 2 <= x_max + 1e-12)
    assert np.all(sigma1_traj.series("d_v") ** 2 <= x_max + 1e-12)


def test_linear_kernel_dissipation_identity():
    p = ModelParams(linear_kernel(2.0), 0.7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        ens = random_ensemble(rng, 5)
        assert dissipation_residual(ens, p) <= 1e-10 * max(1.0, abs(energy_rate(ens, p)))
