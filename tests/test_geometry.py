import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose

from helpers import random_unit
from sphereflock import (AntipodalPair, NotTangent, OffSphere, ZeroVector,
                         pairwise_transport, project_to_sphere,
                         project_to_tangent, rotation_matrix, tangent_vector,
                         transport, unit_vector)
from sphereflock.geometry import antipodal_mask

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
NAN = np.array([np.nan, 0.0, 0.0])

UNIT = (st.tuples(*3 * [st.floats(-1.0, 1.0)])
        .filter(lambda v: np.linalg.norm(v) >= 0.1).map(project_to_sphere))


@st.composite
def unit_pairs(draw):
    """Unit-vector pairs at least 1e-6 from antipodal, half of them near it."""
    z1 = draw(UNIT)
    if draw(st.booleans()):
        z2 = draw(UNIT)
    else:
        z2 = project_to_sphere(-z1 + 10.0 ** draw(st.floats(-6.0, -1.0)) * draw(UNIT))
    assume(np.linalg.norm(z1 + z2) >= 1e-6)
    return z1, z2


class TestRotationMatrix:
    def test_quarter_turn_on_equator(self):
        assert_allclose(rotation_matrix(E1, E2),
                        [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    def test_coincident_points_give_identity(self):
        z = project_to_sphere([0.3, -0.2, 0.5])
        assert np.array_equal(rotation_matrix(z, z), np.eye(3))

    def test_explicit_four_term_expansion(self):
        # Hand expansion for z1 = e1, z2 = (0.6, 0.8, 0):
        # 0.6 I + z2 z1^T - z1 z2^T + 0.4 e3 e3^T, entrywise exact decimals.
        z2 = np.array([0.6, 0.8, 0.0])
        expected = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        rot = rotation_matrix(E1, z2)
        assert_allclose(rot, expected, atol=1e-15)
        assert_allclose(rot @ E1, z2, atol=1e-15)

    def test_antipodal_raises(self):
        with pytest.raises(AntipodalPair):
            rotation_matrix(E1, -E1)
        nearly = project_to_sphere(-E1 + 1e-9 * E2)
        with pytest.raises(AntipodalPair):
            rotation_matrix(E1, nearly)

    def test_just_outside_antipodal_tolerance_is_orthogonal(self):
        z2 = project_to_sphere(-E1 + 1e-7 * E2)
        rot = rotation_matrix(E1, z2)
        assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-12
        assert_allclose(rot @ E1, z2, atol=1e-12)

    def test_rejects_non_unit_input(self):
        with pytest.raises(OffSphere):
            rotation_matrix([1.0, 1.0, 0.0], E2)
        with pytest.raises(OffSphere):
            unit_vector(NAN)
        for z1, z2 in ((NAN, E2), (E1, NAN), (NAN[None], E2[None]), (E1[None], NAN[None])):
            with pytest.raises(OffSphere):
                rotation_matrix(z1, z2)
        # batches must both be (n, 3)
        for z1, z2 in ((E1[None], np.vstack([E1, E2])), (E1[None, :2], E2[None, :2]),
                       (E1[None, None], E2[None, None])):
            with pytest.raises(OffSphere, match="batched inputs must both be"):
                rotation_matrix(z1, z2)
        with pytest.raises(OffSphere):
            transport(NAN, E2, E3)
        with pytest.raises(OffSphere):
            transport(E1, NAN, E3)

    def test_identity_suite_on_random_pairs(self):
        rng = np.random.default_rng(3)
        z1 = random_unit(rng, 10_000)
        z2 = random_unit(rng, 10_000)
        keep = np.linalg.norm(z1 + z2, axis=1) > 1e-6
        z1, z2 = z1[keep], z2[keep]
        rot = rotation_matrix(z1, z2)
        back = rotation_matrix(z2, z1)
        d = (z1 * z2).sum(axis=1)
        c = np.cross(z1, z2)
        assert np.abs(np.einsum("pij,pik->pjk", rot, rot) - np.eye(3)).max() <= 1e-12
        assert np.abs(np.einsum("pij,pj->pi", rot, z1) - z2).max() <= 1e-12
        assert np.abs(np.einsum("pij,pj->pi", rot, z2)
                      - (2.0 * d[:, None] * z2 - z1)).max() <= 1e-12
        assert np.abs(np.einsum("pij,pj->pi", rot, c) - c).max() <= 1e-12
        assert np.abs(rot.transpose(0, 2, 1) - back).max() <= 1e-12

    def test_accuracy_near_antipode_scales_as_inverse_gap(self):
        # The identities hold only to about 1e-16 / |z1 + z2|: ~1e-10 at a gap
        # of 1e-6, so the 1e-12 suites above pass there only because uniform
        # pairs rarely come that close.  Pin the scaling on pairs drawn at gaps
        # from 1e-6 to 1e-2 (measured: worst product 9.7e-17).
        rng = np.random.default_rng(11)
        z1 = random_unit(rng, 2000)
        u = np.cross(z1, random_unit(rng, 2000))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        theta = 2.0 * np.arcsin(0.5 * 10.0 ** rng.uniform(-6.0, -2.0, 2000))
        z2 = -(np.cos(theta)[:, None] * z1 + np.sin(theta)[:, None] * u)
        z2 /= np.linalg.norm(z2, axis=1, keepdims=True)
        rot, back = rotation_matrix(z1, z2), rotation_matrix(z2, z1)
        d = (z1 * z2).sum(axis=1)
        c = np.cross(z1, z2)
        residual = np.stack([
            np.abs(np.einsum("pij,pik->pjk", rot, rot) - np.eye(3)).max(axis=(1, 2)),
            np.abs(np.einsum("pij,pj->pi", rot, z1) - z2).max(axis=1),
            np.abs(np.einsum("pij,pj->pi", rot, z2) - (2.0 * d[:, None] * z2 - z1)).max(axis=1),
            np.abs(np.einsum("pij,pj->pi", rot, c) - c).max(axis=1),
            np.abs(rot.transpose(0, 2, 1) - back).max(axis=(1, 2))]).max(axis=0)
        assert (residual * np.linalg.norm(z1 + z2, axis=1)).max() <= 1e-15

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        z1 = random_unit(rng, 32)
        z2 = random_unit(rng, 32)
        batch = rotation_matrix(z1, z2)
        for k in range(32):
            assert np.array_equal(batch[k], rotation_matrix(z1[k], z2[k]))

    @given(unit_pairs())
    def test_transport_identities_property(self, pair):
        z1, z2 = pair
        rot = rotation_matrix(z1, z2)
        d = z1 @ z2
        c = np.cross(z1, z2)
        # rounding in c is amplified by 1 / |z1 + z2| near the antipode:
        # residuals reach ~1e-10 at a distance of 1e-6
        tol = 1e-12 + 1e-15 / np.linalg.norm(z1 + z2)
        assert np.abs(rot.T @ rot - np.eye(3)).max() <= tol
        assert np.abs(rot @ z1 - z2).max() <= tol
        assert np.abs(rot @ z2 - (2.0 * d * z2 - z1)).max() <= tol
        assert np.abs(rot @ c - c).max() <= tol
        assert np.abs(rot.T - rotation_matrix(z2, z1)).max() <= tol

    def test_continuity_at_coincidence(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            z1 = random_unit(rng)[0]
            step = 1e-6 * project_to_sphere(project_to_tangent(z1, rng.standard_normal(3)))
            z2 = project_to_sphere(z1 + step)
            worst = max(worst, np.abs(rotation_matrix(z1, z2) - np.eye(3)).max())
        assert worst <= 1e-5


class TestTransport:
    def test_equator_closed_form(self):
        for t in np.linspace(0.05, np.pi - 0.05, 50):
            target = np.array([np.cos(t), np.sin(t), 0.0])
            assert_allclose(transport(E1, target, E2),
                            [-np.sin(t), np.cos(t), 0.0], atol=1e-12)
            assert_allclose(transport(E1, target, E3), E3, atol=1e-12)

    def test_zero_vector_stays_zero(self):
        assert_allclose(transport(E1, E2, np.zeros(3)), np.zeros(3), atol=0)

    def test_tangency_and_norm_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            z1, z2 = random_unit(rng, 2)
            if np.linalg.norm(z1 + z2) <= 1e-6:
                continue
            v = project_to_tangent(z1, rng.standard_normal(3))
            moved = transport(z1, z2, v)
            assert abs(moved @ z2) <= 1e-12
            assert abs(np.linalg.norm(moved) - np.linalg.norm(v)) <= 1e-12

    def test_rejects_non_tangent_vector(self):
        with pytest.raises(NotTangent):
            transport(E1, E2, E1)
        with pytest.raises(NotTangent):
            transport(E1, E2, NAN)
        with pytest.raises(NotTangent):
            tangent_vector(E1, [0.0, np.nan, 0.0])

    def test_pairwise_table_matches_scalar_transport(self):
        rng = np.random.default_rng(7)
        X = random_unit(rng, 5)
        V = rng.standard_normal((5, 3))
        V -= (X * V).sum(axis=1, keepdims=True) * X
        table = pairwise_transport(X, V)
        for k in range(5):
            for i in range(5):
                if k == i:
                    assert np.abs(table[k, i] - V[k]).max() <= 1e-14
                else:
                    assert_allclose(table[k, i], transport(X[k], X[i], V[k]), atol=1e-13)

    def test_pairwise_antipodal_modes(self):
        X = np.vstack([E1, -E1, E2])
        V = np.zeros((3, 3))
        with pytest.raises(AntipodalPair):
            pairwise_transport(X, V)
        bad = antipodal_mask(X, X @ X.T)
        assert bad[0, 1] and bad[1, 0] and not bad[0, 2]


class TestConstructors:
    def test_unit_vector_accepts_and_returns_float_array(self):
        z = unit_vector([1, 0, 0])
        assert z.dtype == float
        assert np.array_equal(z, E1)

    def test_unit_vector_tolerance(self):
        unit_vector(E1 * (1.0 + 9e-13))
        with pytest.raises(OffSphere):
            unit_vector(E1 * (1.0 + 1e-11))
        with pytest.raises(OffSphere):
            unit_vector([1.0, 0.0])

    def test_tangent_vector_tolerance(self):
        tangent_vector(E1, [0.0, 2.0, -1.0])
        tangent_vector(E1, [9e-11, 1.0, 0.0])
        with pytest.raises(NotTangent):
            tangent_vector(E1, [1e-9, 1.0, 0.0])
        with pytest.raises(NotTangent, match="expected a 3-vector"):
            tangent_vector(E1, [0.0, 1.0])


class TestProjections:
    @pytest.mark.parametrize("raw,expected", [
        ([2.0, 0.0, 0.0], E1),
        ([0.0, 0.0, 1.0], E3),
        ([1.0, 1.0, 1.0], np.full(3, 1.0 / np.sqrt(3.0))),
    ])
    def test_project_to_sphere(self, raw, expected):
        assert_allclose(project_to_sphere(raw), expected, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            project_to_sphere([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("v,expected", [
        (E1, np.zeros(3)),
        (E2, E2),
        ([1.0, 1.0, 0.0], E2),
    ])
    def test_project_to_tangent_at_e1(self, v, expected):
        assert_allclose(project_to_tangent(E1, v), expected, atol=1e-15)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
           st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
    def test_projection_properties(self, xs, vs):
        x = np.asarray(xs)
        if np.linalg.norm(x) < 1e-12:
            return
        z = project_to_sphere(x)
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
        assert np.array_equal(project_to_sphere(z), z / np.linalg.norm(z))
        w = project_to_tangent(z, np.asarray(vs))
        assert abs(w @ z) <= 1e-9 * max(1.0, np.linalg.norm(np.asarray(vs)))
