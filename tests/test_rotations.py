"""Unit and property tests for the Rodrigues rotation algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf.errors import InvalidInputError, PiTurnError
from minsurf.rotations import (
    E1,
    E2,
    E3,
    AxisSplit,
    RodriguesVector,
    RotationMatrix,
    axis_distance_profile,
    compose,
    compose_batched,
    drilling_rotation,
    matrices_from_rodrigues,
    matrix_from_rodrigues,
    rodrigues_from_matrices,
    rodrigues_from_matrix,
    rotation_from_axis_angle,
    skew,
    split_about_axes,
    split_about_axis,
    split_about_e3_batched,
)

RNG = np.random.default_rng(20240615)


def random_rodrigues(rng, max_angle=3.0):
    """Haar-ish random rotation bounded away from pi-turns."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    alpha = rng.uniform(-max_angle, max_angle)
    return RodriguesVector(np.tan(alpha / 2.0) * axis)


def random_unit(rng):
    e = rng.normal(size=3)
    return e / np.linalg.norm(e)


class TestAxisAngle:
    def test_zero_angle_is_identity(self):
        r = rotation_from_axis_angle(E3, 0.0)
        np.testing.assert_allclose(r.m, np.eye(3), atol=1e-15)

    def test_quarter_turn_about_e3(self):
        r = rotation_from_axis_angle(E3, np.pi / 2)
        np.testing.assert_allclose(r.m @ E1, E2, atol=1e-15)
        np.testing.assert_allclose(r.m @ E2, -E1, atol=1e-15)

    def test_pi_turn_about_e1(self):
        r = rotation_from_axis_angle(E1, np.pi)
        np.testing.assert_allclose(r.m, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            rotation_from_axis_angle([0.0, 0.0, 2.0], 0.3)

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            rotation_from_axis_angle(E3, 3.5)

    def test_scalar_view_of_drilling_rotation(self):
        rng = np.random.default_rng(3)
        for e, alpha in [(E1, np.pi), (E3, -np.pi / 3)] + [
                (random_unit(rng), rng.uniform(-np.pi, np.pi)) for _ in range(20)]:
            assert np.array_equal(rotation_from_axis_angle(e, alpha).m,
                                  drilling_rotation(e, alpha))


class TestMatrixValidation:
    def test_small_defect_repaired(self):
        r0 = rotation_from_axis_angle(E2, 0.7).m
        noisy = r0 + 1e-9 * RNG.normal(size=(3, 3))
        r = RotationMatrix(noisy)
        np.testing.assert_allclose(r.m.T @ r.m, np.eye(3), atol=1e-13)
        assert np.linalg.det(r.m) > 0.0

    def test_large_defect_rejected(self):
        with pytest.raises(InvalidInputError):
            RotationMatrix(np.eye(3) + 1e-4)

    def test_reflection_rejected(self):
        with pytest.raises(InvalidInputError):
            RotationMatrix(np.diag([1.0, 1.0, -1.0]))


class TestVectorRepresentation:
    def test_identity_round_trip(self):
        a = rodrigues_from_matrix(RotationMatrix(np.eye(3)))
        np.testing.assert_allclose(a.a, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(matrix_from_rodrigues(a).m, np.eye(3), atol=1e-15)

    def test_quarter_turn_vector(self):
        # a = tan(pi/4) e3 = e3
        a = rodrigues_from_matrix(rotation_from_axis_angle(E3, np.pi / 2))
        np.testing.assert_allclose(a.a, E3, atol=1e-15)

    def test_pi_turn_raises(self):
        with pytest.raises(PiTurnError):
            rodrigues_from_matrix(RotationMatrix(np.diag([1.0, -1.0, -1.0])))

    def test_norm_identity(self):
        # a^2 = (3 - tr R)/(1 + tr R)
        for _ in range(50):
            a = random_rodrigues(RNG)
            r = matrix_from_rodrigues(a)
            b = rodrigues_from_matrix(r)
            expected = (3.0 - r.trace) / (1.0 + r.trace)
            assert abs(b.norm2 - expected) < 1e-10 * max(1.0, expected)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = random_rodrigues(rng)
            b = rodrigues_from_matrix(matrix_from_rodrigues(a))
            np.testing.assert_allclose(b.a, a.a, atol=1e-12 * max(1.0, np.abs(a.a).max()))

    @given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_hypothesis(self, coords):
        a = RodriguesVector(np.array(coords))
        b = rodrigues_from_matrix(matrix_from_rodrigues(a))
        np.testing.assert_allclose(b.a, a.a, atol=1e-11 * max(1.0, np.abs(a.a).max()))

    def test_nonfinite_vector_rejected(self):
        with pytest.raises(PiTurnError):
            RodriguesVector(np.array([np.inf, 0.0, 0.0]))


class TestCompose:
    def test_identity_composition(self):
        a1 = RodriguesVector(np.array([0.3, -0.2, 0.9]))
        out = compose(RodriguesVector(np.zeros(3)), a1)
        np.testing.assert_allclose(out.a, a1.a, atol=1e-15)

    def test_worked_example(self):
        # (a1 + a2 + a2 x a1)/(1 - a1.a2) with orthogonal inputs
        a1 = RodriguesVector(np.array([0.0, 0.0, 1.0]))
        a2 = RodriguesVector(np.array([0.5, 0.5, 0.0]))
        out = compose(a2, a1)
        np.testing.assert_allclose(out.a, [1.0, 0.0, 1.0], atol=1e-15)
        # matrix oracle
        expected = matrix_from_rodrigues(a2).m @ matrix_from_rodrigues(a1).m
        np.testing.assert_allclose(matrix_from_rodrigues(out).m, expected, atol=1e-14)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a1, a2 = random_rodrigues(rng), random_rodrigues(rng)
            if abs(1.0 - a1.a @ a2.a) < 1e-6:
                continue
            out = compose(a2, a1)
            expected = matrix_from_rodrigues(a2).m @ matrix_from_rodrigues(a1).m
            np.testing.assert_allclose(matrix_from_rodrigues(out).m, expected, atol=1e-10)

    def test_cone_raises(self):
        a1 = RodriguesVector(np.array([0.0, 0.0, 1.0]))
        a2 = RodriguesVector(np.array([1.0, 0.0, 1.0]))  # a1.a2 = 1 exactly
        with pytest.raises(PiTurnError):
            compose(a2, a1)

    def test_associative_up_to_representation(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            a1, a2, a3 = (random_rodrigues(rng, max_angle=2.5) for _ in range(3))
            try:
                left = compose(compose(a3, a2), a1)
                right = compose(a3, compose(a2, a1))
            except PiTurnError:
                continue
            diff = np.linalg.norm(matrix_from_rodrigues(left).m - matrix_from_rodrigues(right).m)
            worst = max(worst, diff)
        assert worst < 1e-9


class TestSplit:
    def test_aligned_case(self):
        split = split_about_axis(RodriguesVector(np.array([0.0, 0.0, 2.0])), E3)
        np.testing.assert_allclose(split.a1.a, [0.0, 0.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(split.a2.a, np.zeros(3), atol=1e-15)

    def test_worked_example(self):
        split = split_about_axis(RodriguesVector(np.array([1.0, 0.0, 1.0])), E3)
        np.testing.assert_allclose(split.a1.a, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(split.a2.a, [0.5, 0.5, 0.0], atol=1e-15)
        assert abs(split.a2.norm2 - 0.5) < 1e-15
        recomposed = compose(split.a2, split.a1)
        np.testing.assert_allclose(recomposed.a, [1.0, 0.0, 1.0], atol=1e-14)

    def test_recomposition_and_orthogonality_1000(self):
        rng = np.random.default_rng(17)
        worst_frob, worst_dot, worst_cross, worst_mag = 0.0, 0.0, 0.0, 0.0
        for _ in range(1000):
            a = random_rodrigues(rng)
            e = random_unit(rng)
            split = split_about_axis(a, e)
            worst_dot = max(worst_dot, abs(split.a2.a @ e))
            worst_cross = max(worst_cross, np.linalg.norm(np.cross(split.a1.a, e)))
            r = matrix_from_rodrigues(split.a2).m @ matrix_from_rodrigues(split.a1).m
            worst_frob = max(worst_frob, np.linalg.norm(r - matrix_from_rodrigues(a).m))
            mag = (a.norm2 - split.a1.norm2) / (1.0 + split.a1.norm2)
            worst_mag = max(worst_mag, abs(split.a2.norm2 - mag))
        assert worst_dot < 1e-12
        assert worst_cross < 1e-12
        assert worst_frob < 1e-10
        assert worst_mag < 1e-10

    def test_returns_axis_split(self):
        out = split_about_axis(RodriguesVector(np.array([0.2, 0.1, 0.4])), E2)
        assert isinstance(out, AxisSplit)


class TestDistanceProfile:
    def test_zero_at_member_of_subgroup(self):
        d = axis_distance_profile(RodriguesVector(E3.copy()), E3, [1.0])
        assert d[0] < 1e-28

    def test_worked_argmin_argmax(self):
        a = RodriguesVector(np.array([1.0, 0.0, 1.0]))
        u = np.arange(-10.0, 10.0, 1e-3)
        d = axis_distance_profile(a, E3, u)
        assert abs(u[np.argmin(d)] - 1.0) <= 1e-3
        assert abs(u[np.argmax(d)] - (-1.0)) <= 1e-3

    def test_closed_form_profile(self):
        # d(u) = 6 + 2/[(1+a^2)(1+u^2)] {[1+a^2-4(a.e)^2] u^2 - 8(a.e) u + a^2 - 3}
        rng = np.random.default_rng(23)
        a = random_rodrigues(rng)
        e = random_unit(rng)
        u = np.linspace(-4.0, 4.0, 101)
        d = axis_distance_profile(a, e, u)
        a2 = a.norm2
        ae = a.a @ e
        expected = 6.0 + 2.0 / ((1.0 + a2) * (1.0 + u**2)) * (
            (1.0 + a2 - 4.0 * ae**2) * u**2 - 8.0 * ae * u + a2 - 3.0
        )
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_minimum_dominates_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = random_rodrigues(rng)
            e = random_unit(rng)
            u = np.linspace(-10.0, 10.0, 20000)
            d = axis_distance_profile(a, e, u)
            d_star = axis_distance_profile(a, e, [a.a @ e])[0]
            assert d_star <= d.min() + 1e-12

    def test_nonfinite_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            axis_distance_profile(RodriguesVector(E3.copy()), E3, [np.nan])


def random_rodrigues_field(rng, shape, max_angle=3.0):
    axes = rng.normal(size=shape + (3,))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    alpha = rng.uniform(-max_angle, max_angle, size=shape)
    return np.tan(alpha / 2.0)[..., np.newaxis] * axes


def e3_closed_form(a):
    """The e3 split written out in components: u = a_z,
    a2 = (a_x - u a_y, a_y + u a_x, 0) / (1 + u^2)."""
    u = a[..., 2]
    px, py = a[..., 0], a[..., 1]
    denom = 1.0 + u * u
    return u, np.stack([(px - u * py) / denom, (py + u * px) / denom,
                        np.zeros_like(u)], axis=-1)


class TestBatchedKernels:
    """Each batched kernel against the scalar API built on it."""

    def test_skew_is_cross_product(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=(4, 5, 3))
        x = rng.normal(size=(4, 5, 3))
        w = skew(v)
        assert w.shape == (4, 5, 3, 3)
        np.testing.assert_allclose((w @ x[..., np.newaxis])[..., 0], np.cross(v, x),
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(w, -np.swapaxes(w, -1, -2))
        np.testing.assert_array_equal(skew(v[1, 2]), w[1, 2])

    def test_matrices_match_scalar(self):
        a = random_rodrigues_field(np.random.default_rng(37), (6, 7))
        m = matrices_from_rodrigues(a)
        for idx in np.ndindex(a.shape[:-1]):
            np.testing.assert_array_equal(
                m[idx], matrix_from_rodrigues(RodriguesVector(a[idx])).m)

    def test_vectors_match_scalar_with_pi_turn_mask(self):
        a = random_rodrigues_field(np.random.default_rng(41), (50,))
        r = matrices_from_rodrigues(a)
        r[7] = np.diag([1.0, -1.0, -1.0])
        r[30] = rotation_from_axis_angle(E2, np.pi).m
        out, pi_mask = rodrigues_from_matrices(r)
        np.testing.assert_array_equal(np.flatnonzero(pi_mask), [7, 30])
        assert np.isnan(out[pi_mask]).all()
        for k in range(len(r)):
            if pi_mask[k]:
                with pytest.raises(PiTurnError):
                    rodrigues_from_matrix(RotationMatrix(r[k]))
            else:
                np.testing.assert_array_equal(
                    out[k], rodrigues_from_matrix(RotationMatrix(r[k])).a)

    def test_compose_matches_scalar_with_pi_turn_mask(self):
        rng = np.random.default_rng(43)
        a1 = random_rodrigues_field(rng, (40,))
        a2 = random_rodrigues_field(rng, (40,))
        a1[5], a2[5] = [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]  # a1.a2 = 1 exactly
        out, pi_mask = compose_batched(a2, a1)
        np.testing.assert_array_equal(np.flatnonzero(pi_mask), [5])
        assert np.isnan(out[5]).all()
        for k in range(len(a1)):
            if pi_mask[k]:
                with pytest.raises(PiTurnError):
                    compose(RodriguesVector(a2[k]), RodriguesVector(a1[k]))
            else:
                np.testing.assert_array_equal(
                    out[k], compose(RodriguesVector(a2[k]), RodriguesVector(a1[k])).a)

    def test_split_broadcasts_over_axis_batch(self):
        rng = np.random.default_rng(47)
        a = random_rodrigues_field(rng, (1000,))
        axes = rng.normal(size=(1000, 10, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        u, a2 = split_about_axes(a[:, np.newaxis], axes)
        assert u.shape == (1000, 10) and a2.shape == (1000, 10, 3)
        assert np.abs(np.einsum("...i,...i->...", a2, axes)).max() < 1e-12
        for i, j in zip(rng.integers(0, 1000, 50), rng.integers(0, 10, 50)):
            split = split_about_axis(RodriguesVector(a[i]), axes[i, j])
            np.testing.assert_array_equal(split.a1.a, u[i, j] * axes[i, j])
            np.testing.assert_array_equal(split.a2.a, a2[i, j])

    def test_e3_view_matches_closed_form_bitwise(self):
        rng = np.random.default_rng(53)
        a = 3.0 * rng.normal(size=(40, 30, 3))
        a[::7, ::5] = np.nan  # pi-turn rows, as rodrigues_from_matrices marks them
        finite = ~np.isnan(a).any(axis=-1)
        u, a2 = split_about_e3_batched(a)
        u_ref, a2_ref = e3_closed_form(a)
        assert u[finite].tobytes() == u_ref[finite].tobytes()
        assert a2[finite].tobytes() == a2_ref[finite].tobytes()
        # a pi-turn has no split: its rows are nan, as in the closed form,
        # down to the e3 entry the closed form sets to 0
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(a2[..., :2], a2_ref[..., :2])
        assert np.isnan(a2[~finite]).all()
