import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import (dissipation_oracle, pair_table_reference, random_ensemble, random_unit,
                     rhs_oracle, stacked)
from sphereflock import (AntipodalPair, Ensemble, InvalidEnsemble, ModelParams, SimConfig,
                         check_initial, coefficient_matrix, lagrange_multiplier,
                         pairwise_dissipation, paper_kernel, paper_scenario, pairwise_transport,
                         project_to_sphere, project_to_tangent, rhs, simulate,
                         spectral_abscissa)
from sphereflock.diagnostics import _gap_tables, _margin_table, make_frame
from sphereflock.dynamics import (_distance_table, _pair_pass, _pair_tables,
                                  _rhs_and_dissipation, _Workspace, inhomogeneous_table,
                                  pair_derivative_table, pair_functional_table)
from sphereflock.geometry import _CROSS_GUARD, _OPPOSITE_DOT, _cross_table, _cross_weights

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def params():
    return ModelParams(kernel=paper_kernel(), sigma=1.0)


class TestEnsemble:
    def test_rejects_off_sphere_positions(self):
        with pytest.raises(InvalidEnsemble):
            Ensemble([[1.1, 0, 0]], [[0, 1, 0]])

    def test_rejects_non_tangent_velocities(self):
        with pytest.raises(InvalidEnsemble):
            Ensemble([E1], [[1e-3, 1, 0]])

    def test_rejects_nan_positions(self):
        with pytest.raises(InvalidEnsemble):
            Ensemble([[np.nan, 0, 0]], [[0, 1, 0]])

    @pytest.mark.parametrize("X, V, message", [
        (np.empty((0, 3)), np.empty((0, 3)), r"must be \(n, 3\) with n >= 1"),
        ([E1[:2]], [E2[:2]], r"must be \(n, 3\) with n >= 1"),
        (E1, E2, r"must be \(n, 3\) with n >= 1"),
        ([E1], [E2, E3], "same shape"),
    ], ids=["empty", "two_columns", "one_vector", "mismatched"])
    def test_rejects_bad_shapes(self, X, V, message):
        for validate in (True, False):
            with pytest.raises(InvalidEnsemble, match=message):
                Ensemble(X, V, validate=validate)

    def test_validate_false_allows_off_manifold_states(self):
        ens = Ensemble([[1.1, 0, 0]], [[0, 1, 0]], validate=False)
        assert ens.n == 1

    @given(st.lists(st.tuples(st.tuples(*[st.floats(-1e3, 1e3)] * 3),
                              st.tuples(*[st.floats(-1.0, 1.0)] * 3)), min_size=1, max_size=8))
    @example([((2.0, 0.0, 0.0), (0.5, 1.0, 0.0))])
    def test_projected_constructor(self, rows):
        ens = Ensemble.projected([[2.0, 0, 0]], [[0.5, 1, 0]])
        assert_allclose(ens.positions[0], E1, atol=1e-15)
        assert abs(ens.velocities[0] @ ens.positions[0]) <= 1e-16
        # any finite state with nonzero position rows projects to a valid
        # ensemble, row for row the single-vector projections
        X = np.array([x for x, _ in rows])
        V = np.array([v for _, v in rows])
        assume(np.linalg.norm(X, axis=1).min() >= 1e-3)
        ens = Ensemble.projected(X, V)  # validates
        for x, v, xp, vp in zip(X, V, ens.positions, ens.velocities):
            assert np.abs(xp - project_to_sphere(x)).max() <= 1e-15
            assert np.abs(vp - project_to_tangent(xp, v)).max() <= 1e-15


class TestLagrangeMultiplier:
    def test_single_agent(self, params):
        ens = Ensemble([E1], [E2])
        assert_allclose(lagrange_multiplier(ens, 0, params), -1.0, atol=1e-15)

    def test_two_agents_at_rest_agent(self):
        # lambda_1 = -(sigma/2) <e2 - e1, e1> = sigma/2 when v_1 = 0
        for sigma in (0.5, 1.0, 3.0):
            p = ModelParams(paper_kernel(), sigma)
            ens = Ensemble([E1, E2], [[0, 0, 0], [0, 0, 0]])
            assert_allclose(lagrange_multiplier(ens, 0, p), sigma / 2.0, atol=1e-15)

    def test_coincident_cluster_at_rest(self, params):
        ens = Ensemble([E1, E1, E1], np.zeros((3, 3)))
        assert lagrange_multiplier(ens, 1, params) == 0.0

    def test_constrained_form_reassembles_rhs(self, params):
        # lambda_i x_i + coupling + flat bonding (sigma/N) sum (x_k - x_i)
        # must equal the reduced right-hand side
        rng = np.random.default_rng(20)
        from sphereflock import pairwise_transport
        for _ in range(20):
            ens = random_ensemble(rng, int(rng.integers(2, 7)))
            X, V = ens.positions, ens.velocities
            n = ens.n
            _, dv = rhs(ens, params)
            moved = pairwise_transport(X, V)
            diff = X[:, None, :] - X[None, :, :]
            psim = params.kernel.psi(np.minimum(np.sqrt((diff**2).sum(-1)), 2.0))
            for i in range(n):
                lam = lagrange_multiplier(ens, i, params)
                coupling = (psim[i][:, None] * (moved[:, i, :] - V[i])).sum(axis=0) / n
                flat = params.sigma / n * (X - X[i]).sum(axis=0)
                assert_allclose(lam * X[i] + coupling + flat, dv[i], atol=1e-12)


class TestRhs:
    def test_single_agent_great_circle(self, params):
        dx, dv = rhs(Ensemble([E1], [E2]), params)
        assert_allclose(dx[0], E2, atol=1e-15)
        assert_allclose(dv[0], -E1, atol=1e-15)

    def test_coincident_pair_coupling_cancels(self, params):
        v = 0.7 * E2
        dx, dv = rhs(Ensemble([E1, E1], [v, v]), params)
        assert_allclose(dv[0], dv[1], atol=1e-14)
        assert_allclose(dv[0], -(v @ v) * E1, atol=1e-14)

    def test_benchmark_state_matches_textual_oracle(self):
        # independent re-implementation: per-agent loops, literal formula
        for sigma in (1.0, 5.0):
            sc = paper_scenario(sigma)
            dx, dv = rhs(sc.ensemble, sc.params)
            ox, ov = rhs_oracle(sc.ensemble, sc.params)
            assert_allclose(dx, ox, atol=1e-13)
            assert_allclose(dv, ov, atol=1e-12)

    def test_random_states_match_textual_oracle(self, params):
        rng = np.random.default_rng(21)
        for _ in range(25):
            ens = random_ensemble(rng, int(rng.integers(2, 7)))
            _, dv = rhs(ens, params)
            _, ov = rhs_oracle(ens, params)
            assert_allclose(dv, ov, atol=1e-12)

    def test_constraint_compatibility(self, params):
        rng = np.random.default_rng(22)
        for _ in range(100):
            ens = random_ensemble(rng, int(rng.integers(1, 9)))
            _, dv = rhs(ens, params)
            vsq = (ens.velocities**2).sum(axis=1)
            # the radial part is exactly the centripetal term, so d<v,x>/dt = 0
            assert np.abs((dv * ens.positions).sum(axis=1) + vsq).max() <= 1e-10

    def test_antipodal_pair_raises(self, params):
        ens = Ensemble([E1, -E1], np.zeros((2, 3)))
        with pytest.raises(AntipodalPair):
            rhs(ens, params)


def test_model_params_reject_nan_sigma():
    with pytest.raises(ValueError):
        ModelParams(paper_kernel(), float("nan"))


@pytest.mark.parametrize("sigma", [0.0, sys.float_info.min])
def test_model_params_accept_zero_and_smallest_normal_sigma(sigma):
    assert ModelParams(paper_kernel(), sigma).sigma == sigma


def near_coincident_ensemble(rng, n):
    """A random tangent state whose agents 0 and 1 lie 1e-13 apart, so that
    their transport drops the rank-one term (|x_0 x x_1|^2 <= _CROSS_GUARD)."""
    ens = random_ensemble(rng, n)
    X, V = ens.positions.copy(), ens.velocities.copy()
    step = np.cross(X[0], random_unit(rng)[0])
    X[1] = X[0] + 1e-13 * step / np.linalg.norm(step)
    X[1] /= np.linalg.norm(X[1])
    V[1] -= (V[1] @ X[1]) * X[1]
    c = np.cross(X[1], X[0])
    assert 0.0 < c @ c <= _CROSS_GUARD
    return Ensemble(X, V)


def close_and_opposite_ensemble(rng, n, close, gap):
    """A random tangent state (n >= 4) whose agents 0 and 1 lie ``close`` apart
    and whose agents 2 and 3 lie ``gap`` from antipodal, |x_2 + x_3| = gap."""
    ens = random_ensemble(rng, n)
    X = ens.positions.copy()
    for j, sign, dist in ((1, 1.0, close), (3, -1.0, gap)):
        u = np.cross(X[j - 1], random_unit(rng)[0])
        u /= np.linalg.norm(u)
        theta = 2.0 * np.arcsin(0.5 * dist)
        X[j] = sign * (np.cos(theta) * X[j - 1] + np.sin(theta) * u)
    return Ensemble.projected(X, ens.velocities)


def cancelled_size(ens, p):
    """K = 2 sum_i r_i |v_i|^2 / n^2, the size of the two sums the fused D subtracts."""
    X, V = ens.positions, ens.velocities
    rates = p.kernel.psi(np.minimum(np.linalg.norm(X[:, None] - X[None], axis=-1), 2.0))
    return 2.0 * float(rates.sum(axis=1) @ (V * V).sum(axis=1)) / ens.n**2


STATES = st.tuples(st.sampled_from([1, 2, 6, 40]), st.integers(0, 2**32 - 1),
                   st.sampled_from([0.01, 0.3, 1.0]))
# seed, n, log10 of the close pair's distance, log10 of the other pair's gap to antipodal
CLOSE_AND_OPPOSITE = (st.integers(0, 2**32 - 1), st.sampled_from([4, 6, 40]),
                      st.floats(-13.0, -3.0), st.floats(-7.0, -1.0))


class TestRhsProperties:
    """The contracted right-hand side against the per-agent textual oracle."""

    @settings(max_examples=24)
    @given(STATES, st.sampled_from([1.0, 5.0]))
    def test_random_states(self, state, sigma):
        n, seed, speed = state
        ens = random_ensemble(np.random.default_rng(seed), n, speed)
        p = ModelParams(paper_kernel(), sigma)
        assert_allclose(rhs(ens, p)[1], rhs_oracle(ens, p)[1], rtol=0, atol=1e-12)

    @settings(max_examples=24)
    @given(STATES, st.floats(1e-4, 1e-3))
    def test_off_sphere_rk_stages(self, state, h):
        # RK stages X + hV, V + h a leave the sphere and the tangent planes.
        # There the library keeps two conventions the oracle does not: the
        # k = i transport is the four-term formula's |x_i|^2 v_i (not v_i),
        # and the centripetal term is -|v_i|^2 x_i (not divided by |x_i|^2).
        n, seed, speed = state
        ens = random_ensemble(np.random.default_rng(seed), n, speed)
        p = ModelParams(paper_kernel(), 1.0)
        X = ens.positions + h * ens.velocities
        V = ens.velocities + h * rhs(ens, p)[1]
        stage = Ensemble(X, V, validate=False)
        got, want = rhs(stage, p)[1], rhs_oracle(stage, p)[1]
        xsq = (X * X).sum(axis=1)[:, None]
        vsq = (V * V).sum(axis=1)[:, None]
        want += p.kernel.psi0 / n * (xsq - 1.0) * V - vsq * (1.0 - 1.0 / xsq) * X
        assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=12)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 6, 40]))
    def test_near_coincident_pair_takes_cross_guard(self, seed, n):
        close = near_coincident_ensemble(np.random.default_rng(seed), n)
        p = ModelParams(paper_kernel(), 1.0)
        assert_allclose(rhs(close, p)[1], rhs_oracle(close, p)[1], rtol=0, atol=1e-12)

    @settings(max_examples=12)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.booleans(), st.data())
    def test_antipodal_raise_names_the_reference_pair(self, seed, n, on_axis, data):
        ens = random_ensemble(np.random.default_rng(seed), n)
        k = data.draw(st.integers(0, n - 1))
        i = data.draw(st.integers(0, n - 1).filter(lambda j: j != k))
        # a random unit x, whose <x, -x> = -|x|^2 may round off -1, or an axis
        X = ens.positions.copy()
        X[k] = E3 if on_axis else X[k]
        X[i] = -X[k]
        V = ens.velocities - (ens.velocities * X).sum(axis=1, keepdims=True) * X
        with pytest.raises(AntipodalPair) as reference:
            pairwise_transport(X, V)
        ens, p = Ensemble(X, V), ModelParams(paper_kernel(), 1.0)
        for evaluate in (rhs, pairwise_dissipation):
            with pytest.raises(AntipodalPair) as got:
                evaluate(ens, p)
            assert got.value.pair == reference.value.pair == (min(i, k), max(i, k))


class TestFusedDissipation:
    """The dissipation sum read off the rhs pair pass, against the pair-by-pair oracle."""

    @settings(max_examples=24)
    @given(STATES, st.booleans())
    def test_matches_oracle(self, state, close_pair):
        n, seed, speed = state
        rng = np.random.default_rng(seed)
        ens = (near_coincident_ensemble(rng, n) if close_pair and n > 1
               else random_ensemble(rng, n, speed))
        p = ModelParams(paper_kernel(), 1.0)
        Y = stacked(ens)
        dV, D = _rhs_and_dissipation(Y, p, _pair_tables(*Y))
        # the same pass also yields the right-hand side, bit for bit
        assert np.array_equal(dV, rhs(ens, p)[1])
        # The error is absolute: D is the difference of two sums of size
        # K = 2 sum_i r_i |v_i|^2 / n^2, and D <= 2 K.  At n = 1 and unit
        # speed K ~ 40 and |D - oracle| reaches 5.7e-14 = 1.8 eps K, with D = 0.
        K = cancelled_size(ens, p)
        assert abs(D - dissipation_oracle(ens, p)) <= 1e-14 * max(1.0, K)


class TestCloseAndOppositePairs:
    """The squared cross norm |x_k x x_i|^2 = |x_k|^2 |x_i - x_k|^2 - <x_k, x_i - x_k>^2
    at its two hard ends: a close pair, and a pair near the antipode, where the
    pre-screened pairs take the exact cross product instead."""

    @settings(max_examples=24)
    @given(*CLOSE_AND_OPPOSITE)
    def test_rhs_and_fused_dissipation_match_oracles(self, seed, n, close, gap):
        ens = close_and_opposite_ensemble(np.random.default_rng(seed), n, 10.0**close,
                                          10.0**gap)
        X = ens.positions
        assert X[2] @ X[3] < _OPPOSITE_DOT  # inside the antipodal pre-screen
        p = ModelParams(paper_kernel(), 1.0)
        assert_allclose(rhs(ens, p)[1], rhs_oracle(ens, p)[1], rtol=0, atol=1e-12)
        Y = stacked(ens)
        _, D = _rhs_and_dissipation(Y, p, _pair_tables(*Y))
        assert abs(D - dissipation_oracle(ens, p)) <= 1e-14 * max(1.0, cancelled_size(ens, p))

    @settings(max_examples=24)
    @given(*CLOSE_AND_OPPOSITE)
    def test_weights_match_cross_form(self, seed, n, close, gap):
        # psi vanishes at the antipode, so the rhs barely sees a near-antipodal
        # weight, but frames read it unweighted.  The rank-one terms w c agree
        # with geometry's cross form to rounding, which 1/|x_k + x_i| amplifies
        # in both; the squared norm taken from the identity there, not from the
        # exact cross product, puts the ratio near 1e-8 at a gap of 1e-7.
        ens = close_and_opposite_ensemble(np.random.default_rng(seed), n, 10.0**close,
                                          10.0**gap)
        X, V = ens.positions, ens.velocities
        tables = _pair_tables(X, V)
        c = [_cross_table(X, a) for a in range(3)]
        w = _cross_weights(X, V, tables.dots)
        err = np.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2) * np.abs(tables.w - w)
        margin = np.sqrt(sum(np.add.outer(x, x) ** 2 for x in X.T))
        speed = np.linalg.norm(V, axis=1)[:, None]
        assert (err <= 1e-13 * speed * (1.0 + 1.0 / margin)).all()


@st.composite
def symmetry_cases(draw):
    """A random state or a close-and-opposite one, a random orthogonal Q (from
    the QR of a normal 3x3, a reflection exactly when drawn) and a random
    relabelling of the agents."""
    if draw(st.booleans()):
        seed, n, close, gap = draw(st.tuples(*CLOSE_AND_OPPOSITE))
        rng = np.random.default_rng(seed)
        ens = close_and_opposite_ensemble(rng, n, 10.0**close, 10.0**gap)
    else:
        n, seed, speed = draw(STATES)
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, n, speed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if (np.linalg.det(q) < 0.0) != draw(st.booleans()):
        q[:, 0] *= -1.0
    return ens, q, rng.permutation(n)


class TestEquivariance:
    """The model commutes with every orthogonal map and every relabelling: dv
    rotates or permutes with the state and every frame field is unchanged, to
    1e-13 relative to max(1, |value|) (measured on 3,000 such states: at most
    1.1e-14 for dv, 4.3e-15 for the frame fields).  No second formula is needed."""

    @staticmethod
    def moved(ens, q, perm):
        X, V = ens.positions, ens.velocities
        return Ensemble(X @ q.T, V @ q.T), Ensemble(X[perm], V[perm])

    def check_rhs(self, case, sigma, which):
        ens, q, perm = case
        p = ModelParams(paper_kernel(), sigma)
        dv = rhs(ens, p)[1]
        want = (dv @ q.T, dv[perm])[which]
        got = rhs(self.moved(ens, q, perm)[which], p)[1]
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(dv).max())

    def check_frame(self, case, sigma, which):
        ens, q, perm = case
        p = ModelParams(paper_kernel(), sigma)
        want = np.array(make_frame(0.5, ens, p).as_row())
        got = np.array(make_frame(0.5, self.moved(ens, q, perm)[which], p).as_row())
        assert (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_rhs_rotates(self, case, sigma):
        self.check_rhs(case, sigma, 0)

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_rhs_permutes(self, case, sigma):
        self.check_rhs(case, sigma, 1)

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_frame_rotation_invariant(self, case, sigma):
        self.check_frame(case, sigma, 0)

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_frame_relabelling_invariant(self, case, sigma):
        self.check_frame(case, sigma, 1)


    def check_pass(self, case, sigma, which):
        ens, q, perm = case
        p = ModelParams(paper_kernel(), sigma)
        Y = stacked(ens)
        dv = _pair_pass(Y, p, _pair_tables(*Y))
        want = (dv @ q.T, dv[perm])[which]
        Y = stacked(self.moved(ens, q, perm)[which])
        got = _pair_pass(Y, p, _pair_tables(*Y))
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_pair_pass_rotates(self, case, sigma):
        self.check_pass(case, sigma, 0)

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_pair_pass_permutes(self, case, sigma):
        self.check_pass(case, sigma, 1)

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_fused_dissipation_invariant(self, case, sigma):
        # D's rounding is absolute, of the size K of the two sums it subtracts
        # (see TestFusedDissipation), so the bound is relative to max(1, K):
        # on 3,000 such states the change was at most 9.6e-16 of it, while
        # relative to max(1, |D|) it reached 1.7e-13.
        ens, q, perm = case
        p = ModelParams(paper_kernel(), sigma)
        Y = stacked(ens)
        D = _rhs_and_dissipation(Y, p, _pair_tables(*Y))[1]
        for moved in self.moved(ens, q, perm):
            Y = stacked(moved)
            got = _rhs_and_dissipation(Y, p, _pair_tables(*Y))[1]
            assert abs(got - D) <= 1e-13 * max(1.0, cancelled_size(ens, p))

    @settings(max_examples=30)
    @given(symmetry_cases())
    def test_pairwise_dissipation_invariant(self, case):
        # a sum of nonnegative terms, so its rounding is relative to D itself:
        # on 2,100 such states the change was at most 4.8e-15 of max(1, D)
        ens, q, perm = case
        p = ModelParams(paper_kernel(), 1.0)
        D = pairwise_dissipation(ens, p)
        for moved in self.moved(ens, q, perm):
            assert abs(pairwise_dissipation(moved, p) - D) <= 1e-13 * max(1.0, D)

    @settings(max_examples=30)
    @given(symmetry_cases(), st.sampled_from([1.0, 5.0]))
    def test_admissibility_invariant(self, case, sigma):
        # the thresholds depend on the kernel and sigma alone; the initial
        # values moved by at most 1.4e-15 of max(1, |value|) on 2,100 states
        ens, q, perm = case
        p = ModelParams(paper_kernel(), sigma)
        want = check_initial(ens, p)
        for moved in self.moved(ens, q, perm):
            got = check_initial(moved, p)
            assert got.thresholds == want.thresholds and got.bound_x == want.bound_x
            assert ((got.verdict_v, got.verdict_e, got.verdict_x)
                    == (want.verdict_v, want.verdict_e, want.verdict_x))
            for name in ("v_initial", "e_initial", "x_initial"):
                value = getattr(want, name)
                assert abs(getattr(got, name) - value) <= 1e-13 * max(1.0, abs(value))

    @settings(max_examples=15)
    @given(symmetry_cases(), st.sampled_from([0.0, 1.0, 5.0]))
    def test_short_run_invariant(self, case, sigma):
        # 200 steps with a frame every 20: every frame field of the moved run
        # within 2.5e-13 of max(1, |value|), ten times the worst of 2,100
        # such states (2.5e-14); a 5,000-step run stayed within 1.1e-13
        ens, q, perm = case
        p, sim = ModelParams(paper_kernel(), sigma), SimConfig(dt=1e-3, t_end=0.2, frame_stride=20)

        def frames(state):
            return np.array([f.diagnostics.as_row() for f in simulate(state, p, sim).frames])

        want = frames(ens)
        for moved in self.moved(ens, q, perm):
            assert (np.abs(frames(moved) - want) <= 2.5e-13 * np.maximum(1.0, np.abs(want))).all()


@st.composite
def reuse_states(draw):
    """A random state (n = 2, 6 or 40) or a close-and-opposite one, and a
    random state of the same size."""
    if draw(st.booleans()):
        seed, n, close, gap = draw(st.tuples(*CLOSE_AND_OPPOSITE))
        rng = np.random.default_rng(seed)
        ens = close_and_opposite_ensemble(rng, n, 10.0**close, 10.0**gap)
    else:
        n, seed, speed = draw(STATES.filter(lambda state: state[0] > 1))
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, n, speed)
    return ens, random_ensemble(rng, n)


class TestDistanceTable:
    """The pair tables built by rank-2 matmuls against their broadcast forms
    (``helpers.pair_table_reference``), on entries mixing ordinary values with
    +-0, subnormals, 1e150, NaN and inf.  For the distance table n runs from 1 to
    400, with n = 147, 148 and 256 always drawn."""

    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e150, -1e150,
                        np.nan, -np.nan, np.inf, -np.inf])

    def draw(self, rng, n, finite):
        pool = self.SPECIAL[np.isfinite(self.SPECIAL)] if finite else self.SPECIAL
        return np.where(rng.random((n, 3)) < 0.5, rng.choice(pool, (n, 3)),
                        rng.standard_normal((n, 3)))

    @settings(max_examples=80)
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.booleans())
    @example(147, 0, True).via("n = 147")
    @example(148, 0, True).via("n = 148")
    @example(256, 0, True).via("n = 256, crowd-256's")
    def test_equals_broadcast_reference(self, n, seed, finite):
        X = self.draw(np.random.default_rng(seed), n, finite)
        ws = _Workspace(n)
        ws.stack.fill(np.nan)  # no leftover of a previous build can show through
        with np.errstate(all="ignore"):
            got, want = _distance_table(X, ws), pair_table_reference(X, X)
        if finite:
            assert got.tobytes() == want.tobytes()
        else:
            # Where NaN or inf meet, BLAS may carry another NaN operand than numpy's
            # subtract, and the adds' vector body and scalar tail may keep either
            # operand: such entries are NaN in both, every other entry is byte-equal.
            same_bits = got.view(np.uint64) == want.view(np.uint64)
            assert (same_bits | (np.isnan(got) & np.isnan(want))).all()

    @settings(max_examples=40)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1), st.booleans())
    @example(2, 0, True).via("x_k = -0 against x_i = +0 in every component")
    def test_frame_tables_equal_broadcast_reference(self, n, seed, signed_zeros):
        # The frame's |x_k + x_i|^2, |v_k - v_i|^2 and <v_k - v_i, x_k - x_i> on the
        # finite pool.  A rank-2 entry can differ from the ufunc's in a zero's sign
        # only, so the squared tables are byte-equal and the dot product, which
        # the frame reads only squared, is byte-equal up to the sign of a zero.
        rng = np.random.default_rng(seed)
        X, V = self.draw(rng, n, True), self.draw(rng, n, True)
        if signed_zeros:
            X[0], V[0], X[-1], V[-1] = -0.0, -0.0, 0.0, 0.0
        ws = _Workspace(n)
        for buf in ws.scratch:
            buf.fill(np.nan)
        _distance_table(X, ws)
        margin = _margin_table(ws).copy()
        x2, x3 = _gap_tables(V, ws)
        assert margin.tobytes() == pair_table_reference(X, X, np.add).tobytes()
        assert x3.tobytes() == pair_table_reference(V, V).tobytes()
        assert (x2 + 0.0).tobytes() == (pair_table_reference(V, X) + 0.0).tobytes()


def workspace_arrays(ws):
    """Every writable array a workspace holds, found through its attributes (and
    the lists and tuples among them), so that a buffer added later is found too."""
    found, todo = [], list(vars(ws).values())
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, np.ndarray) and item.flags.writeable:
            found.append(item)
    return found


class TestWorkspaceReuse:
    """A workspace carries nothing from one state to the next: on a dirty
    workspace the pair pass, the fused D and the frame are byte-equal to the
    same call on a fresh workspace.  Each is run on two dirty workspaces,
    one holding NaN in every float array and True in every mask, one
    holding the tables, pass buffers and frame scratch of another state, so
    that no leftover can happen to match what a fresh workspace holds."""

    @staticmethod
    def dirty(other):
        p = ModelParams(paper_kernel(), 1.0)
        with_nan = _Workspace(other.n, (other.positions, other.velocities))
        with_other = _Workspace(other.n)
        for buf in workspace_arrays(with_nan):
            buf.fill(True if buf.dtype == bool else np.nan)
        tables = _pair_tables(other.positions, other.velocities, with_other)
        make_frame(0.0, other, p, tables)
        _pair_pass(stacked(other), p, tables)
        return with_nan, with_other

    @settings(max_examples=30)
    @given(reuse_states())
    def test_pair_pass(self, case):
        ens, other = case
        Y, p = stacked(ens), ModelParams(paper_kernel(), 1.0)
        want = _pair_pass(Y, p, _pair_tables(*Y))
        for dirty in self.dirty(other):
            assert _pair_pass(Y, p, _pair_tables(*Y, dirty)).tobytes() == want.tobytes()

    @settings(max_examples=30)
    @given(reuse_states())
    def test_fused_dissipation(self, case):
        ens, other = case
        Y, p = stacked(ens), ModelParams(paper_kernel(), 1.0)
        want_dv, want_D = _rhs_and_dissipation(Y, p, _pair_tables(*Y))
        for dirty in self.dirty(other):
            dv, D = _rhs_and_dissipation(Y, p, _pair_tables(*Y, dirty))
            assert dv.tobytes() == want_dv.tobytes()
            assert np.float64(D).tobytes() == np.float64(want_D).tobytes()

    @settings(max_examples=30)
    @given(reuse_states())
    def test_frame(self, case):
        ens, other = case
        p = ModelParams(paper_kernel(), 1.0)
        want = np.array(make_frame(0.5, ens, p).as_row()).tobytes()
        X, V = ens.positions, ens.velocities
        for dirty in self.dirty(other):
            tables = _pair_tables(X, V, dirty)
            assert np.array(make_frame(0.5, ens, p, tables).as_row()).tobytes() == want


@settings(max_examples=60)
@given(st.one_of(st.sampled_from((12, 13, 14, 15, 147, 148, 252, 253, 254, 255, 256)),
                 st.integers(1, 300)),
       st.integers(0, 2**32 - 1), st.sampled_from(("unit", "stage", "zeros and subnormals")))
@example(13, 0, "unit").via("n = 4-7 mod 8: numpy's syrk for X @ X.T rounds other entries")
@example(256, 0, "stage").via("crowd-256's size")
def test_dot_table_is_plain_gemm(n, seed, rows):
    """The pass's dot table is the gemm of X with its copied transpose, byte for byte,
    and exactly symmetric, on a fresh workspace and on both dirty ones.  Rows are unit
    vectors, off-sphere RK stage rows (scaled by 1 +- 1e-3), or unit rows with entries
    set to +-0 and subnormals."""
    rng = np.random.default_rng(seed)
    X = random_ensemble(rng, n).positions
    if rows == "stage":
        X *= 1.0 + rng.uniform(-1e-3, 1e-3, (n, 1))
    elif rows == "zeros and subnormals":
        hit = rng.random((n, 3)) < 0.3
        X[hit] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2e-308], int(hit.sum()))
    V = rng.standard_normal((n, 3))
    want = np.matmul(X, np.ascontiguousarray(X.T))
    for ws in (_Workspace(n), *TestWorkspaceReuse.dirty(random_ensemble(rng, n))):
        dots = _pair_tables(X, V, ws).dots
        assert dots.tobytes() == want.tobytes()
        assert dots.tobytes() == dots.T.tobytes()


@pytest.mark.parametrize("n", [1, 6, 148, 256])
def test_pass_returns_share_no_memory_with_the_workspace(n):
    # the next stage overwrites the workspace, so a returned view would change under the caller
    ens = random_ensemble(np.random.default_rng(n), n)
    Y, p = stacked(ens), ModelParams(paper_kernel(), 1.0)
    ws = _Workspace(n)
    returned = [_pair_pass(Y, p, _pair_tables(*Y, ws)),
                _rhs_and_dissipation(Y, p, _pair_tables(*Y, ws))[0]]
    bufs = workspace_arrays(ws)
    assert any(buf is ws.dots for buf in bufs)
    for got in returned:
        assert not any(np.shares_memory(got, buf) for buf in bufs)


class TestPairFunctional:
    """Entries of ``pair_functional_table``: (|x_i-x_j|^2, <v_i-v_j, x_i-x_j>, |v_i-v_j|^2)."""

    def test_same_index_is_zero(self, params):
        ens = random_ensemble(np.random.default_rng(1), 4)
        assert_allclose(pair_functional_table(ens)[2, 2], np.zeros(3), atol=0)

    def test_orthogonal_pair_equal_velocities(self):
        v = 0.3 * E3
        ens = Ensemble([E1, E2], [v, v])
        assert_allclose(pair_functional_table(ens)[0, 1], [2.0, 0.0, 0.0], atol=1e-15)

    def test_crossed_velocities(self):
        ens = Ensemble([E1, E2], [E2, E1])
        assert_allclose(pair_functional_table(ens)[0, 1], [2.0, -2.0, 2.0], atol=1e-15)

    def test_table_matches_scalar_and_symmetry(self, params):
        ens = random_ensemble(np.random.default_rng(2), 5)
        X, V = ens.positions, ens.velocities
        table = pair_functional_table(ens)
        assert np.abs(table - table.transpose(1, 0, 2)).max() == 0.0
        for i in range(5):
            for j in range(5):
                xd, vd = X[i] - X[j], V[i] - V[j]
                assert_allclose(table[i, j], [xd @ xd, vd @ xd, vd @ vd], atol=1e-15)


class TestCoefficientMatrix:
    def test_unit_example(self):
        assert_allclose(coefficient_matrix(1.0, 1.0),
                        [[0, 2, 0], [-1, -1, 1], [0, -2, -2]], atol=0)

    def test_substitution(self):
        assert_allclose(coefficient_matrix(2.0, 3.0),
                        [[0, 2, 0], [-3, -2, 1], [0, -6, -4]], atol=0)

    def test_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            psi0, sigma = rng.uniform(0.1, 30.0, 2)
            assert_allclose(np.trace(coefficient_matrix(psi0, sigma)), -3.0 * psi0,
                            rtol=1e-15)


class TestSpectralAbscissa:
    def test_complex_branch(self):
        # psi0^2 <= 4 sigma: conjugate pair, abscissa is psi0 itself
        assert spectral_abscissa(2.0, 1.0) == 2.0
        assert spectral_abscissa(1.0, 5.0) == 1.0

    def test_real_branch_example(self):
        assert_allclose(spectral_abscissa(3.0, 2.0), 2.0, rtol=1e-15)

    def test_benchmark_kernel_value(self):
        # frozen from a 50-digit evaluation of psi0 - sqrt(psi0^2 - 4)
        mu = spectral_abscissa(paper_kernel().psi0, 1.0)
        assert_allclose(mu, 0.10463067669670672, rtol=1e-14)

    def test_agrees_with_eigensolver_on_grid(self):
        worst = 0.0
        for psi0 in np.linspace(0.2, 25.0, 32):
            for sigma in np.linspace(0.05, 6.0, 32):
                mu = spectral_abscissa(psi0, sigma)
                eigs = np.linalg.eigvals(coefficient_matrix(psi0, sigma))
                worst = max(worst, abs(mu + eigs.real.max()))
        assert worst <= 1e-10

    def test_lower_bound_in_real_branch(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            psi0 = rng.uniform(1.0, 30.0)
            sigma = rng.uniform(0.01, psi0**2 / 4.0 * 0.99)
            assert spectral_abscissa(psi0, sigma) >= 2.0 * sigma / psi0 - 1e-12

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            spectral_abscissa(0.0, 1.0)
        with pytest.raises(ValueError):
            spectral_abscissa(1.0, 0.0)


class TestInhomogeneousTerm:
    """Entries F^{ij} = (0, F2, F3) of ``inhomogeneous_table``."""

    def test_same_index_is_zero(self, params):
        ens = random_ensemble(np.random.default_rng(5), 4)
        assert np.abs(inhomogeneous_table(ens, params)[1, 1]).max() <= 1e-13

    def test_coincident_cluster_is_zero(self, params):
        v = 0.4 * E2
        ens = Ensemble([E1, E1, E1], [v, v, v])
        table = inhomogeneous_table(ens, params)
        assert np.abs(table).max() <= 1e-13

    def test_first_component_identically_zero(self, params):
        ens = random_ensemble(np.random.default_rng(6), 6)
        assert np.abs(inhomogeneous_table(ens, params)[:, :, 0]).max() == 0.0

    def test_index_symmetry(self, params):
        ens = random_ensemble(np.random.default_rng(7), 7)
        table = inhomogeneous_table(ens, params)
        assert np.abs(table - table.transpose(1, 0, 2)).max() <= 1e-12

    def test_linearized_system_identity(self):
        # chain-rule derivative of the pair triple vs A X + F, componentwise
        rng = np.random.default_rng(8)
        kernel = paper_kernel()
        for _ in range(100):
            p = ModelParams(kernel, float(rng.uniform(0.1, 5.0)))
            ens = random_ensemble(rng, int(rng.integers(2, 9)))
            lhs = pair_derivative_table(ens, p)
            amat = coefficient_matrix(kernel.psi0, p.sigma)
            rhs_side = (np.einsum("ab,ijb->ija", amat, pair_functional_table(ens))
                        + inhomogeneous_table(ens, p))
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs_side)))
            assert (np.abs(lhs - rhs_side) / scale).max() <= 1e-9
