import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import dissipation_oracle, random_ensemble, rk4_oracle, stacked
from sphereflock import (ANTIPODAL_TOL, AntipodalPair, Ensemble, InvalidEnsemble, ModelParams,
                         NonFinite, SimConfig, energy, linear_kernel, pairwise_dissipation,
                         paper_kernel, paper_scenario, random_scenario, rhs, rk4_step, simulate)
from sphereflock.diagnostics import make_frame
from sphereflock.dynamics import (_pair_pass, _pair_tables, _rates, _rhs_and_dissipation,
                                  _Workspace, constraint_violation)
from sphereflock.geometry import _drift_and_project, project_state
from sphereflock.integrator import _run, _worst, energy_audit


@pytest.fixture
def params():
    return ModelParams(kernel=paper_kernel(), sigma=1.0)


def count_pair_passes(monkeypatch, fail_on=None):
    """Record each call of ``dynamics._pair_pass``; the ``fail_on``-th call
    raises AntipodalPair between agents 0 and 1 instead."""
    from sphereflock import dynamics

    inner = dynamics._pair_pass
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_on:
            raise AntipodalPair.between(0, 1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_pair_pass", counted)
    return calls


def great_circle_ensemble():
    return Ensemble([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])


class TestRk4Step:
    def test_consistency_as_dt_vanishes(self, params):
        ens = random_ensemble(np.random.default_rng(0), 4)
        dx, dv = rhs(ens, params)
        gaps = []
        for dt in (1e-3, 1e-4, 1e-5):
            step = rk4_step(ens, dt, params, project=False)
            euler_x = ens.positions + dt * dx
            euler_v = ens.velocities + dt * dv
            gap = max(np.abs(step.ensemble.positions - euler_x).max(),
                      np.abs(step.ensemble.velocities - euler_v).max()) / dt
            gaps.append(gap)
        # (e + dt f(e) - rk4(e, dt)) / dt is O(dt)
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 1e-3

    def test_fixed_point_cluster(self, params):
        x = np.array([0.6, 0.8, 0.0])
        ens = Ensemble([x, x, x], np.zeros((3, 3)))
        step = rk4_step(ens, 1e-2, params)
        assert np.abs(step.ensemble.positions - ens.positions).max() <= 1e-15
        assert np.abs(step.ensemble.velocities).max() <= 1e-15

    def test_reports_pre_projection_drift(self, params):
        ens = paper_scenario(1.0).ensemble
        step = rk4_step(ens, 1e-3, params)
        assert 0.0 <= step.pre_radial <= 1e-10
        assert 0.0 <= step.pre_tangency <= 1e-9
        post_radial, post_tangency = constraint_violation(step.ensemble.positions,
                                                          step.ensemble.velocities)
        assert post_radial <= 1e-15
        assert post_tangency <= 1e-15

    def test_unprojected_step_keeps_its_drift(self, params):
        # the unprojected result drifts past the ensemble tolerance (1e-9)
        step = rk4_step(paper_scenario(1.0).ensemble, 1e-2, params, project=False)
        assert_allclose(step.pre_radial, 1.41e-9, rtol=1e-2)
        radial, _ = constraint_violation(step.ensemble.positions, step.ensemble.velocities)
        assert radial == step.pre_radial

    def test_rejects_nonpositive_dt(self, params):
        with pytest.raises(ValueError):
            rk4_step(great_circle_ensemble(), 0.0, params)

    @pytest.mark.parametrize("dt, project", [(-1e-3, True), (float("nan"), False),
                                             (float("nan"), True), (float("inf"), False)])
    def test_rejects_nonsensical_dt(self, params, dt, project):
        # the step rule of SimConfig: dt finite and positive
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            rk4_step(great_circle_ensemble(), dt, params, project=project)

    def test_config_rejects_nan_dt(self):
        with pytest.raises(ValueError):
            SimConfig(dt=float("nan"))

    def test_config_rejects_non_finite_step_count(self):
        # both finite, but t_end / dt overflows, so no step count exists
        with pytest.raises(ValueError, match="t_end / dt finite"):
            SimConfig(dt=1e-300, t_end=1e300)

    def test_config_step_count(self):
        # t_end / dt rounded to the nearest step: 0.3 / 1e-3 is 299.99999999999994
        assert SimConfig(dt=1e-3, t_end=0.3).n_steps == 300
        assert SimConfig(dt=0.3, t_end=1.0).n_steps == 3
        assert SimConfig(dt=1e-3, t_end=0.0).n_steps == 0

    @pytest.mark.parametrize("stride", [2.0, 1.5, True, False, 0, -3, float("nan"),
                                        float("inf"), "2"])
    def test_config_rejects_non_integral_stride(self, stride):
        with pytest.raises(ValueError, match="frame_stride must be an integer of at least 1"):
            SimConfig(frame_stride=stride)

    def test_config_takes_numpy_integer_stride(self, params):
        sim = SimConfig(dt=1e-3, t_end=0.004, frame_stride=np.int64(2))
        assert len(simulate(great_circle_ensemble(), params, sim).frames) == 3

    @settings(max_examples=40)
    @given(st.sampled_from([1, 2, 6, 17, 40]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from([1e-3, 0.05]), st.booleans())
    def test_equals_textbook_oracle(self, n, seed, sigma, dt, project):
        # the step rounds exactly as the textbook stages written out through rhs
        kernel = (paper_kernel(), linear_kernel(1.5))[seed % 2]
        p = ModelParams(kernel, sigma)
        ens = random_ensemble(np.random.default_rng(seed), n, 0.5)
        step = rk4_step(ens, dt, p, project)
        X, V, radial, tangency = rk4_oracle(ens, dt, p, project)
        assert step.ensemble.positions.tobytes() == X.tobytes()
        assert step.ensemble.velocities.tobytes() == V.tobytes()
        assert np.float64(step.pre_radial).tobytes() == np.float64(radial).tobytes()
        assert np.float64(step.pre_tangency).tobytes() == np.float64(tangency).tobytes()


def oracle_run(ens, p, dt, n_steps, stride, project):
    """A loop of ``rk4_oracle`` from ens: its states, the frames of every stride-th
    one, each made from scratch, and the worst drifts of its steps."""
    states, frames = [ens], []
    max_r = max_t = 0.0
    for step in range(n_steps + 1):
        X, V = states[-1].positions, states[-1].velocities
        if step % stride == 0:
            frames.append(make_frame(step * dt, Ensemble(X, V, validate=project), p))
        if step < n_steps:
            X, V, radial, tangency = rk4_oracle(states[-1], dt, p, project)
            max_r, max_t = _worst(max_r, radial), _worst(max_t, tangency)
            states.append(Ensemble(X, V, validate=False))
    return states, frames, max_r, max_t


def same_bytes(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


RUN_DRAWS = (st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 5.0]),
             st.sampled_from([1e-3, 0.05]), st.booleans())


def run_case(n, seed, sigma, linear):
    """A random state and its run's parameters."""
    p = ModelParams(linear_kernel(1.5) if linear else paper_kernel(), sigma)
    return random_ensemble(np.random.default_rng(seed), n, 0.5), p


class TestLoopEqualsOracle:
    """The stepping loop, byte for byte, against a loop of the textbook oracle."""

    @settings(max_examples=40)
    @given(*RUN_DRAWS, st.integers(1, 7), st.integers(0, 2), st.integers(0, 5), st.booleans())
    def test_simulate(self, n, seed, sigma, dt, linear, stride, chunks, rest, project):
        # a step count that is no multiple of the stride: the run stops at the last
        # whole stride, so the oracle runs to there
        n_steps = chunks * stride + 1 + rest % max(1, stride - 1)
        whole = n_steps - n_steps % stride
        ens, p = run_case(n, seed, sigma, linear)
        config = SimConfig(dt=dt, t_end=n_steps * dt, projection=project, frame_stride=stride)
        traj = simulate(ens, p, config)
        states, frames, max_r, max_t = oracle_run(ens, p, dt, whole, stride, project)
        assert same_bytes(traj.times, [f.t for f in frames])
        for got, want in zip(traj.frames, frames, strict=True):
            assert same_bytes(got.diagnostics.as_row(), want.as_row())
            state = states[round(got.time / dt)]
            assert same_bytes(got.ensemble.positions, state.positions)
            assert same_bytes(got.ensemble.velocities, state.velocities)
        assert same_bytes([traj.max_step_radial, traj.max_step_tangency], [max_r, max_t])
        # the loop's end state is the last whole stride's
        *_, (done, X, V, *_) = _run(ens.positions, ens.velocities, dt, n_steps // stride,
                                    stride, p, project)
        assert done == whole
        assert same_bytes(X, states[-1].positions) and same_bytes(V, states[-1].velocities)

    @settings(max_examples=20)
    @given(*RUN_DRAWS, st.integers(1, 12))
    def test_energy_audit(self, n, seed, sigma, dt, linear, n_steps):
        ens, p = run_case(n, seed, sigma, linear)
        audit = energy_audit(ens, p, dt, n_steps * dt)
        states, _, max_r, max_t = oracle_run(ens, p, dt, n_steps, 1, True)
        rates = [_rhs_and_dissipation(Y, p, _pair_tables(*Y))[1]
                 for Y in map(stacked, states[:-1])]
        rates.append(pairwise_dissipation(states[-1], p))
        total = 0.0
        for prev, cur in zip(rates, rates[1:]):
            total += 0.5 * (prev + cur) * dt
        assert same_bytes([audit.dissipated, audit.max_step_radial, audit.max_step_tangency],
                          [total, max_r, max_t])


class TestGreatCircle:
    def test_closed_form_solution(self, params):
        traj = simulate(great_circle_ensemble(), params,
                        SimConfig(dt=1e-3, t_end=1.0, frame_stride=100))
        t = traj.final.time
        assert t == 1.0
        exact_x = np.array([np.cos(t), np.sin(t), 0.0])
        exact_v = np.array([-np.sin(t), np.cos(t), 0.0])
        assert np.linalg.norm(traj.final.ensemble.positions[0] - exact_x) <= 1e-8
        assert np.linalg.norm(traj.final.ensemble.velocities[0] - exact_v) <= 1e-8

    @pytest.mark.parametrize("projection", [True, False])
    def test_fourth_order_convergence(self, params, projection):
        errs = {}
        for dt in (1e-2, 5e-3):
            traj = simulate(great_circle_ensemble(), params,
                            SimConfig(dt=dt, t_end=1.0, projection=projection,
                                      frame_stride=int(round(1.0 / dt))))
            exact = np.array([np.cos(1.0), np.sin(1.0), 0.0])
            errs[dt] = np.linalg.norm(traj.final.ensemble.positions[0] - exact)
        assert 12.0 <= errs[1e-2] / errs[5e-3] <= 20.0


class TestSimulate:
    def test_zero_horizon_returns_initial_frame(self, params):
        ens = random_ensemble(np.random.default_rng(1), 3)
        traj = simulate(ens, params, SimConfig(dt=1e-3, t_end=0.0))
        assert len(traj.frames) == 1
        assert np.array_equal(traj.frames[0].ensemble.positions, ens.positions)

    def test_deterministic_repeat(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.5, frame_stride=50))
        a = simulate(sc.ensemble, sc.params, sc.sim)
        b = simulate(sc.ensemble, sc.params, sc.sim)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.ensemble.positions, fb.ensemble.positions)
            assert np.array_equal(fa.ensemble.velocities, fb.ensemble.velocities)

    def test_frame_spacing_uniform(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.25, frame_stride=25))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        gaps = np.diff(traj.times)
        assert_allclose(gaps, 0.025, rtol=1e-12)

    def test_trailing_partial_stride_not_recorded(self, params):
        # 105 steps at stride 10: frames stop at t = 0.1, spacing stays uniform
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.105, frame_stride=10))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        assert traj.final.time == pytest.approx(0.1)
        assert len(traj.frames) == 11

    def test_trailing_partial_stride_not_integrated(self, params):
        # an unprojected run drifts off the manifold with every step, so steps past
        # the last frame would show in the drift maxima and the final state
        sc = paper_scenario(1.0)
        runs = [simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=t_end, frame_stride=10,
                                                        projection=False))
                for t_end in (0.105, 0.1)]
        tail, whole = ([[f.diagnostics.as_row() for f in r.frames], r.times,
                        r.max_step_radial, r.max_step_tangency,
                        r.final.ensemble.positions, r.final.ensemble.velocities] for r in runs)
        assert len(tail[0]) == len(whole[0]) == 11
        for got, want in zip(tail, whole):
            assert same_bytes(got, want)

    def test_projected_frames_satisfy_invariants(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.5, frame_stride=10))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        for frame in traj.frames:
            radial, tangency = constraint_violation(frame.ensemble.positions,
                                                    frame.ensemble.velocities)
            assert radial <= 1e-9
            assert tangency <= 1e-8

    def test_one_drift_measurement_per_frame(self, params, monkeypatch):
        # The frame's drift fields are also the check of a projected run's frames:
        # e0.check() and one measurement for each of the 11 frames, not two.
        from sphereflock import dynamics

        sc = paper_scenario(1.0)
        calls, inner = [], dynamics._drift_and_project
        monkeypatch.setattr(dynamics, "_drift_and_project",
                            lambda Y, project: calls.append(None) or inner(Y, project))
        traj = simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=0.1, frame_stride=10))
        assert len(traj.frames) == 11 and len(calls) == 12

    @pytest.mark.parametrize("row", [0, 1])
    def test_off_manifold_frame_raises_the_ensemble_message(self, params, monkeypatch, row):
        # Each step leaves its projected state off the manifold (x scaled by
        # 1 + 1e-6, or v tilted by 1e-6 x); the frame at step 10 then raises what
        # Ensemble raises on that state, with its drift in the message.
        from sphereflock import integrator

        drift_and_project, states = integrator._drift_and_project, []

        def leave_manifold(Y, project):
            drift = drift_and_project(Y, project)
            Y[row] += 1e-6 * Y[0]
            states.append(Y.copy())
            return drift

        monkeypatch.setattr(integrator, "_drift_and_project", leave_manifold)
        sc = paper_scenario(1.0)
        with pytest.raises(InvalidEnsemble) as info:
            simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=0.1, frame_stride=10))
        assert len(states) == 10
        with pytest.raises(InvalidEnsemble) as want:
            Ensemble(*states[-1])
        assert str(info.value) == str(want.value)
        assert str(info.value).startswith(("max |norm(x)-1| = ", "max |<v, x>| = ")[row])

    def test_loop_aborts_on_random_antipodal_pair(self, params):
        X = random_ensemble(np.random.default_rng(0), 2).positions.copy()
        X[1] = -X[0]
        assert 2.0 + 2.0 * (X[0] @ X[1]) > ANTIPODAL_TOL**2  # the dot alone misses it
        with pytest.raises(AntipodalPair) as info:
            simulate(Ensemble(X, np.zeros((2, 3))), params, SimConfig(dt=1e-3, t_end=0.1))
        assert info.value.time == 0.0 and info.value.pair == (0, 1)

    def test_energy_never_increases_across_frames(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=2.0, frame_stride=10))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        e = traj.series("e_total")
        assert np.max(np.diff(e) / np.maximum(1.0, e[:-1])) <= 1e-8

    def test_antipodal_abort_attaches_context(self, params):
        ens = Ensemble([[1, 0, 0], [-1, 0, 0]], np.zeros((2, 3)))
        with pytest.raises(AntipodalPair) as info:
            simulate(ens, params, SimConfig(dt=1e-3, t_end=1.0))
        assert info.value.time == 0.0
        assert len(info.value.partial_trajectory.frames) == 1

    @pytest.mark.parametrize("failing_call, time, frame_times",
                             [(29, 0.007, [0.0, 0.005]), (41, 0.01, [0.0, 0.005, 0.01])])
    def test_abort_time_mid_run(self, params, monkeypatch, failing_call, time, frame_times):
        # four pair passes a step: call 29 is step 7's first stage, call 41
        # step 10's, whose start is also a frame at stride 5
        calls = count_pair_passes(monkeypatch, fail_on=failing_call)
        sc = paper_scenario(1.0)
        with pytest.raises(AntipodalPair) as info:
            simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=0.1, frame_stride=5))
        assert info.value.time == time and info.value.pair == (0, 1)
        assert list(info.value.partial_trajectory.times) == frame_times
        calls.clear()
        with pytest.raises(AntipodalPair) as info:
            energy_audit(sc.ensemble, params, 1e-3, 0.1)
        assert info.value.time == time and info.value.pair == (0, 1)

    def test_four_pair_passes_per_step(self, params, monkeypatch):
        calls = count_pair_passes(monkeypatch)
        sc = paper_scenario(1.0)
        # 37 steps at stride 5: the 2 past the last frame are not taken
        simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=0.037, frame_stride=5))
        assert len(calls) == 4 * 35
        calls.clear()
        energy_audit(sc.ensemble, params, 1e-3, 0.037)
        assert len(calls) == 4 * 37

    @pytest.mark.parametrize("dt, projection", [(2.0, True), (5.0, False)])
    def test_blow_up_raises_non_finite(self, params, dt, projection):
        # dt far too large: the state turns NaN within the first stride of 10
        sc = paper_scenario(1.0)
        config = SimConfig(dt=dt, t_end=200 * dt, projection=projection)
        with pytest.raises(NonFinite) as info, np.errstate(all="ignore"):
            simulate(sc.ensemble, params, config)
        assert info.value.time == 0.0
        frames = info.value.partial_trajectory.frames
        assert len(frames) == 1 and np.isfinite(frames[0].ensemble.positions).all()

    def test_drift_maxima_keep_nan(self, params, monkeypatch):
        # Python's max(x, nan) returns x; a NaN drift must reach the record
        from sphereflock import integrator

        calls = []
        drift_and_project = integrator._drift_and_project

        def nan_on_third_call(Y, project):
            calls.append(None)
            drift = drift_and_project(Y, project)
            return (float("nan"),) * 2 if len(calls) == 3 else drift

        monkeypatch.setattr(integrator, "_drift_and_project", nan_on_third_call)
        sc = paper_scenario(1.0)
        traj = simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=0.01, frame_stride=2))
        assert np.isnan(traj.max_step_radial) and np.isnan(traj.max_step_tangency)
        calls.clear()
        audit = energy_audit(sc.ensemble, params, 1e-3, 0.01)
        assert np.isnan(audit.max_step_radial) and np.isnan(audit.max_step_tangency)


def project_state_reference(positions, velocities):
    """``project_state`` as written before it shared the step's routine: the
    byte-equal reference for the projection, with no code in common with it."""
    X = np.asarray(positions, dtype=float)
    V = np.asarray(velocities, dtype=float)
    Xp = X / np.sqrt((X * X).sum(axis=1))[:, None]
    return Xp, V - (Xp * V).sum(axis=1, keepdims=True) * Xp


def drift_reference(X, V):
    """The drift from ``np.linalg.norm`` and a row-by-row scalar dot, summed in
    the order a length-3 row reduction rounds in."""
    radial = float(np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)))
    tangency = max(abs((x[0] * v[0] + x[1] * v[1]) + x[2] * v[2]) for x, v in zip(X, V))
    return radial, float(tangency)


class TestDriftAndProject:
    """``geometry._drift_and_project``, the one routine of the manifold drift and the
    projection, against references that do not call it, byte for byte; and the
    public helpers built on it, ``constraint_violation`` and ``project_state``."""

    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 40])
    def test_matches_the_public_helpers(self, n, project):
        rng = np.random.default_rng(n)
        ens = random_ensemble(rng, n)
        for scale in (1e-12, 1e-6, 1e-2):  # off the manifold, as an RK4 result is
            X = ens.positions + scale * rng.standard_normal((n, 3))
            V = ens.velocities + scale * rng.standard_normal((n, 3))
            Y = np.array((X, V))
            drift = _drift_and_project(Y, project)
            Xh, Vh = Y
            assert drift == drift_reference(X, V) == constraint_violation(X, V)
            projected = project_state_reference(X, V)
            want = projected if project else (X, V)
            assert Xh.tobytes() == want[0].tobytes() and Vh.tobytes() == want[1].tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(project_state(X, V), projected))

    def test_rows_with_zero_inf_and_nan(self):
        rng = np.random.default_rng(7)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for n in (1, 3, 17):
            X, V = rng.standard_normal((2, n, 3))
            for A in (X, V):
                hit = rng.random((n, 3)) < 0.3
                A[hit] = rng.choice(special, int(hit.sum()))
            X[0] = 0.0
            with np.errstate(all="ignore"):
                got, want = project_state(X, V), project_state_reference(X, V)
                radial, tangency = constraint_violation(X, V)
                rows = np.linalg.norm(X, axis=1), (X * V).sum(axis=1)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            # a NaN row reaches the maximum (Python's max would drop it)
            assert (np.isnan(radial), np.isnan(tangency)) == tuple(
                bool(np.isnan(r).any()) for r in rows)


def assert_frames_rebuild(traj, params):
    """Every recorded frame, built from the tables the run shared with its
    next step, equals the frame built from scratch, byte for byte."""
    for frame in traj.frames:
        fresh = make_frame(frame.time, frame.ensemble, params)
        assert (np.array(frame.diagnostics.as_row()).tobytes()
                == np.array(fresh.as_row()).tobytes())


class TestSharedPairTables:
    @pytest.mark.parametrize("projection", [True, False])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("n", [2, 6, 40, 128])
    def test_frames_equal_frames_from_scratch(self, params, n, stride, projection):
        # 8 steps: at stride 3 the last two form a trailing partial stride
        ens = random_ensemble(np.random.default_rng(n), n, speed=0.5)
        sim = SimConfig(dt=1e-3, t_end=8e-3, frame_stride=stride, projection=projection)
        traj = simulate(ens, params, sim)
        assert len(traj.frames) == 8 // stride + 1
        assert_frames_rebuild(traj, params)

    def test_abort_at_start_keeps_masked_frame(self, params):
        ens = random_ensemble(np.random.default_rng(3), 6)
        X = ens.positions.copy()
        X[4] = -X[1]
        with pytest.raises(AntipodalPair) as info:
            simulate(Ensemble.projected(X, ens.velocities), params,
                     SimConfig(dt=1e-3, t_end=0.01))
        assert info.value.time == 0.0 and info.value.pair == (1, 4)
        traj = info.value.partial_trajectory
        assert len(traj.frames) == 1
        assert traj.final.diagnostics.antipode_margin <= ANTIPODAL_TOL
        assert_frames_rebuild(traj, params)

    def test_abort_mid_run_keeps_masked_frame(self, monkeypatch):
        # Two agents sliding apart along the equator towards antipodes.  With
        # the antipodal tolerance widened to the pair's gap at t = 0.005, that
        # frame is the first masked state (the RK stages before it are not),
        # so it is recorded from the run's tables and the next k1 aborts.
        from sphereflock import geometry

        params = ModelParams(paper_kernel(), 0.0)
        a = 1.2
        ens = Ensemble([[np.cos(a), np.sin(a), 0.0], [np.cos(a), -np.sin(a), 0.0]],
                       5.0 * np.array([[-np.sin(a), np.cos(a), 0.0],
                                       [-np.sin(a), -np.cos(a), 0.0]]))
        sim = SimConfig(dt=1e-3, t_end=0.01, frame_stride=1)
        gap = simulate(ens, params, sim).frames[5].diagnostics.antipode_margin
        monkeypatch.setattr(geometry, "ANTIPODAL_TOL", gap * (1.0 + 1e-12))
        monkeypatch.setattr(geometry, "_OPPOSITE_DOT", 1.0)  # screen every pair exactly
        with pytest.raises(AntipodalPair) as info:
            simulate(ens, params, sim)
        assert info.value.time == 0.005 and info.value.pair == (0, 1)
        traj = info.value.partial_trajectory
        assert list(traj.times) == [0.0, 0.001, 0.002, 0.003, 0.004, 0.005]
        align = traj.series("flock_align")
        assert align[-1] <= 1e-12 < 6.0 <= align[-2]  # the pair's alignment is masked
        assert traj.final.diagnostics.antipode_margin == gap
        assert_frames_rebuild(traj, params)

    @pytest.mark.parametrize("opposite", [False, True])
    def test_loop_yields_built_tables(self, params, opposite):
        # Every state the loop yields comes with its tables built, byte-equal to a
        # build on a fresh workspace.  With ``opposite`` a pair starts at
        # |x_i + x_k| = 0.1, inside the antipodal pre-screen, so the tables carry
        # a (clean) mask.
        ens = random_ensemble(np.random.default_rng(5), 5)
        if opposite:
            X = ens.positions.copy()
            side = np.cross(X[0], X[1])
            X[3] = -X[0] + 0.1 * side / np.linalg.norm(side)
            ens = Ensemble.projected(X, ens.velocities)
        yielded = 0
        for _, X, V, _, _, tables in _run(ens.positions, ens.velocities, 1e-3, 3, 2, params,
                                          True):
            want = _pair_tables(X, V, _Workspace(len(X)))
            for field in ("dots", "xsq", "w", "m"):
                assert getattr(tables, field).tobytes() == getattr(want, field).tobytes()
            assert (tables.bad is None) == (want.bad is None) == (not opposite)
            if opposite:
                assert tables.bad.tobytes() == want.bad.tobytes()
            yielded += 1
        assert yielded == 4

    def test_one_table_set_live(self, params):
        # A state's tables serve its frame and the next k1, then are dropped.
        # Holding one set past its k1 (two sets live) lifts the peak above
        # 14 tables of 8 n^2 bytes; the disciplined loop peaks near 12.5.
        import tracemalloc

        n = 128
        sim = SimConfig(dt=1e-3, t_end=3e-3, frame_stride=1)
        sc = random_scenario(0, n, 0.5, 0.1, params, sim=sim)
        tracemalloc.start()
        try:
            simulate(sc.ensemble, params, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 8 * n * n

    def test_steady_step_and_frame_allocate_no_tables(self, params):
        # On a warm workspace a step and a frame write their (n, n) tables into
        # its buffers.  What the step still allocates is the kernel's psi
        # temporaries (two tables at a time; measured 2.2 tables), numpy's
        # fixed-size iterator buffers and (n, 3) arrays.  The frame allocates no
        # table of its own (measured 0.51 tables at n = 128, 0.13 at 256, all
        # fixed-size), so it is held to one: a frame that grew its working set
        # would grow crowd-256's peak memory with it.
        import tracemalloc

        from sphereflock import integrator

        for n in (128, 256):  # the distance table in one tile, then in four
            ens = random_scenario(0, n, 0.5, 0.1, params).ensemble
            X, V = ens.positions, ens.velocities
            ws = _Workspace(n, (X, V))
            a1 = _pair_pass(ws.y, params, _pair_tables(X, V, ws))

            def step():  # from (X, V) each time, in the run's stage blocks
                ws.x[...], ws.v[...], ws.a[...] = X, V, a1
                integrator._step(ws, 1e-3, params, True)

            for call, tables in ((step, 3), (lambda: make_frame(0.0, ens, params,
                                                                _pair_tables(X, V, ws)), 1)):
                call()  # warm
                tracemalloc.start()
                try:
                    held = tracemalloc.get_traced_memory()[0]
                    call()
                    rise = tracemalloc.get_traced_memory()[1] - held
                finally:
                    tracemalloc.stop()
                assert rise <= tables * 8 * n * n, n


@pytest.mark.parametrize("kernel", [paper_kernel(), linear_kernel(2.0)], ids=["paper", "linear"])
def test_pass_clamps_chords_past_two(kernel):
    # An RK stage's rows leave the sphere, so a near-antipodal pair's chord can pass
    # 2 while |x_i + x_k| stays outside ANTIPODAL_TOL.  With rows scaled by 1 + 5e-4
    # and |x_i + x_k| = 1e-6 the chord is about 2.001, where the kernel would give
    # psi < 0 (about -3e-3 for the paper kernel) were r not clamped to 2.
    params = ModelParams(kernel, 0.7)
    ens = random_ensemble(np.random.default_rng(8), 5)
    X, V = ens.positions.copy(), ens.velocities
    scale = 1.0 + 5e-4
    side = np.cross(X[0], X[1])
    X[1] = -X[0] + (1e-6 / scale) * side / np.linalg.norm(side)
    X[1] /= np.linalg.norm(X[1])
    X *= scale
    assert ANTIPODAL_TOL < np.linalg.norm(X[0] + X[1]) < 1.01e-6
    assert np.linalg.norm(X[0] - X[1]) > 2.0009
    tables = _pair_tables(X, V)
    psi = _rates(tables.bad, tables.xsq, kernel)
    assert psi[0, 1] == psi[1, 0] == kernel.psi(2.0)
    D = pairwise_dissipation(Ensemble(X, V, validate=False), params)
    want = dissipation_oracle(Ensemble(X, V, validate=False), params)
    assert abs(D - want) <= 1e-13 * abs(want)


def test_trajectory_against_adaptive_reference():
    """End-to-end cross-validation: the fixed-step projected RK4 trajectory
    against an adaptive high-order integrator driving the independent
    textual-transcription right-hand side (disjoint code path throughout).
    """
    integrate = pytest.importorskip("scipy.integrate")
    from helpers import rhs_oracle

    sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=5.0, frame_stride=5000))
    traj = simulate(sc.ensemble, sc.params, sc.sim)

    def flat_rhs(t, y):
        X = y[:18].reshape(6, 3)
        V = y[18:].reshape(6, 3)
        dx, dv = rhs_oracle(Ensemble(X, V, validate=False), sc.params)
        return np.concatenate([dx.ravel(), dv.ravel()])

    y0 = np.concatenate([sc.ensemble.positions.ravel(),
                         sc.ensemble.velocities.ravel()])
    sol = integrate.solve_ivp(flat_rhs, (0.0, 5.0), y0, method="DOP853",
                              rtol=1e-11, atol=1e-12)
    assert sol.success
    got = np.concatenate([traj.final.ensemble.positions.ravel(),
                          traj.final.ensemble.velocities.ravel()])
    # measured gap ~1.4e-12 at dt = 1e-3
    assert np.abs(got - sol.y[:, -1]).max() <= 1e-9


class TestConstraintDrift:
    def test_fresh_ensemble(self):
        ens = paper_scenario(1.0).ensemble
        radial, tangency = constraint_violation(ens.positions, ens.velocities)
        assert radial <= 1e-9
        assert tangency <= 1e-8

    def test_hand_perturbed_position(self):
        ens = paper_scenario(1.0).ensemble
        bad = Ensemble(ens.positions.copy(), ens.velocities.copy(), validate=False)
        bad.positions[0] *= 1.01
        radial, _ = constraint_violation(bad.positions, bad.velocities)
        assert_allclose(radial, 0.01, rtol=1e-9)

    def test_per_step_drift_bound_short_run(self, params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=1.0, frame_stride=100))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        assert traj.max_step_radial <= 1e-10
        assert traj.max_step_tangency <= 1e-9


class TestEnergyAudit:
    def test_slack_small_and_second_order(self, params):
        sc = paper_scenario(1.0)
        coarse = energy_audit(sc.ensemble, params, 2e-3, 4.0)
        fine = energy_audit(sc.ensemble, params, 1e-3, 4.0)
        assert -1e-9 <= fine.slack < coarse.slack
        # trapezoid error scales as dt^2
        assert 3.0 <= coarse.slack / fine.slack <= 5.0
        assert_allclose(coarse.e_start, fine.e_start, rtol=1e-15)

    def test_fused_ledger_matches_step_loop(self, params):
        # 400 paper steps against rk4_step with pairwise_dissipation at every state
        sc = paper_scenario(1.0)
        dt = 2.5e-4
        ens = sc.ensemble
        prev = pairwise_dissipation(ens, params)
        total = 0.0
        for _ in range(400):
            ens = rk4_step(ens, dt, params).ensemble
            cur = pairwise_dissipation(ens, params)
            total += 0.5 * (prev + cur) * dt
            prev = cur
        e_start, e_end = energy(sc.ensemble, 1.0)[0], energy(ens, 1.0)[0]
        audit = energy_audit(sc.ensemble, params, dt, 400 * dt)
        assert audit.e_start == e_start and audit.e_end == e_end
        assert abs(audit.dissipated - total) <= 1e-12
        assert abs(audit.slack - (e_end + total - e_start)) <= 1e-12

    def test_drift_record_matches_simulate(self, params):
        sc = paper_scenario(1.0)
        audit = energy_audit(sc.ensemble, params, 1e-3, 0.2)
        traj = simulate(sc.ensemble, params, SimConfig(dt=1e-3, t_end=0.2, frame_stride=1))
        assert audit.max_step_radial == traj.max_step_radial > 0.0
        assert audit.max_step_tangency == traj.max_step_tangency > 0.0
        assert audit.e_end == traj.final.diagnostics.e_total

    def test_t_end_is_where_the_ledger_closes(self, params):
        # 1.0 / 0.3 rounds to 3 steps, which end at 0.8999999999999999, not at 1.0
        audit = energy_audit(paper_scenario(1.0).ensemble, params, 0.3, 1.0)
        assert audit.t_end == 3 * 0.3

    def test_blow_up_raises_non_finite(self, params):
        sc = paper_scenario(1.0)
        with pytest.raises(NonFinite) as info, np.errstate(all="ignore"):
            energy_audit(sc.ensemble, params, 2.0, 400.0)
        assert info.value.time == 2.0

    def test_rejects_off_manifold_start(self, params):
        # a state moved off the sphere after construction: the ledger would
        # audit an energy inequality that need not hold there
        ens = paper_scenario(1.0).ensemble
        ens.positions[0] *= 1.01
        with pytest.raises(InvalidEnsemble):
            simulate(ens, params, SimConfig(dt=1e-3, t_end=0.01))
        with pytest.raises(InvalidEnsemble):
            energy_audit(ens, params, 1e-3, 0.01)

    @pytest.mark.parametrize("dt, t_end", [(0.0, 0.1), (-1e-3, 0.1), (float("nan"), 0.1),
                                           (1e-3, -0.01), (1e-3, float("inf")),
                                           (1e-3, float("nan"))])
    def test_rejects_nonsensical_steps(self, params, dt, t_end):
        # the rule of SimConfig: dt finite and positive, t_end finite and nonnegative
        with pytest.raises(ValueError, match="must be finite"):
            energy_audit(paper_scenario(1.0).ensemble, params, dt, t_end)
