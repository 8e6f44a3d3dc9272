"""Tests for deformation gradients, integrability, compatibility and the
drilling/bending content machinery."""

import numpy as np
import pytest

from minsurf.bendneutral import (
    alpha_from_phi,
    bending_cross_check,
    bending_drilling_field,
    chain_rule_residual,
    compatibility_ratio,
    compatibility_report,
    deformation_between,
    image_mean_curvature_check,
    integrability_residual_general,
    pure_bending_closed_form,
    pure_bending_measure,
    pure_bending_measure_fd,
)
from minsurf.errors import IntegrabilityError, InvalidInputError
from minsurf.rotations import drilling_rotation, projector
from minsurf.surfcalc import connector, surface_gradient
from minsurf.weierstrass import (
    DomainGrid,
    bour,
    catenoid,
    catenoid_helicoid,
    enneper,
    from_power,
    helicoid,
    integrate_representation,
)

GRID = DomainGrid.polar(0.5, 1.5, 65, 65)
WEDGE = DomainGrid.polar(0.8, 1.6, 65, 65, phi_min=-np.pi / 8, phi_max=np.pi / 8)


def surf(datum, grid=GRID):
    return integrate_representation(datum, grid)


class TestDeformationBetween:
    def test_identity(self):
        s = surf(enneper())
        d = deformation_between(s, s)
        np.testing.assert_allclose(d.mu, 1.0, atol=1e-15)
        np.testing.assert_allclose(d.alpha, 0.0, atol=1e-15)
        np.testing.assert_allclose(d.gradient(), projector(s.nu), atol=1e-14)

    def test_catenoid_to_helicoid(self):
        s = surf(catenoid())
        s_star = surf(helicoid())
        d = deformation_between(s, s_star)
        np.testing.assert_allclose(d.mu, 1.0, atol=1e-15)
        np.testing.assert_allclose(d.alpha, np.pi / 2, atol=1e-15)

    def test_enneper_to_bour_exponent(self):
        t = 0.6
        s = surf(enneper())
        s_star = surf(from_power(1.0, t))
        d = deformation_between(s, s_star)
        _, _, rho, phi = GRID.coords
        np.testing.assert_allclose(d.mu, rho**t, rtol=1e-14)
        np.testing.assert_allclose(d.alpha, t * phi, atol=1e-14)

    def test_gradient_annihilates_normal(self):
        d = deformation_between(surf(enneper()), surf(bour(3.0)))
        gn = np.einsum("ijkl,ijl->ijk", d.gradient(), d.nu)
        assert np.abs(gn).max() < 1e-9

    def test_gradient_factorization(self):
        d = deformation_between(surf(enneper()), surf(bour(3.0)))
        rotation = drilling_rotation(d.nu, d.alpha)
        rebuilt = d.mu[..., None, None] * (rotation @ projector(d.nu))
        np.testing.assert_allclose(d.gradient(), rebuilt, atol=1e-9)

    def test_normal_preservation_exact(self):
        s, s_star = surf(catenoid()), surf(helicoid())
        assert np.array_equal(s.nu, s_star.nu)

    def test_mismatched_grids_rejected(self):
        other = DomainGrid.polar(0.5, 1.5, 33, 33)
        with pytest.raises(InvalidInputError):
            deformation_between(surf(enneper()), surf(enneper(), other))

    def test_chain_rule_converges_order_2(self):
        res = []
        for n in (65, 129):
            grid = DomainGrid.polar(0.5, 1.5, n, n)
            res.append(chain_rule_residual(surf(enneper(), grid),
                                           surf(bour(3.0), grid)))
        assert 3.4 < res[0] / res[1] < 4.6

    def test_harmonicity_of_datum_difference(self):
        s, s_star = surf(enneper()), surf(bour(3.0))
        lap_mu = GRID.chart_laplacian(s_star.Phi - s.Phi, order=4)
        lap_al = GRID.chart_laplacian(s_star.chi - s.chi, order=4)
        mask = GRID.interior(collar=3)
        assert np.abs(lap_mu[mask]).max() < 1e-5
        assert np.abs(lap_al[mask]).max() < 1e-5


class TestAlphaFromPhi:
    def test_constant_phi(self):
        patch = surf(enneper()).patch()
        alpha = alpha_from_phi(patch, np.full(patch.shape, 2.5), alpha0=0.7)
        np.testing.assert_allclose(alpha, 0.7, atol=1e-12)

    def test_bour_harmonic_conjugate(self):
        t = 0.8
        s = surf(enneper(), DomainGrid.polar(0.5, 1.5, 129, 129))
        patch = s.patch()
        _, _, rho, phi = s.grid.coords
        base = (64, 64)
        alpha = alpha_from_phi(patch, t * np.log(rho), base=base,
                               alpha0=t * phi[base])
        assert np.abs(alpha - t * phi).max() < 1e-2

    def test_path_independence(self):
        from minsurf.surfcalc import integrate_tangential_field

        s = surf(enneper(), DomainGrid.polar(0.5, 1.5, 129, 129))
        patch = s.patch()
        _, _, rho, _ = s.grid.coords
        h = np.cross(patch.nu, surface_gradient(patch, 0.5 * np.log(rho)))
        row = integrate_tangential_field(patch, h, base=(64, 64))
        col = integrate_tangential_field(patch, h, base=(64, 64), column_first=True)
        assert np.abs(row - col).max() < 5e-3

    def test_non_harmonic_rejected(self):
        s = surf(enneper())
        patch = s.patch()
        u, _, _, _ = s.grid.coords
        with pytest.raises(IntegrabilityError):
            alpha_from_phi(patch, u**2)

    def test_reconstructed_alpha_is_harmonic(self):
        from minsurf.surfcalc import surface_laplacian

        t = 0.8
        s = surf(enneper(), DomainGrid.polar(0.5, 1.5, 129, 129))
        patch = s.patch()
        _, _, rho, _ = s.grid.coords
        alpha = alpha_from_phi(patch, t * np.log(rho))
        lap = surface_laplacian(patch, alpha)
        assert np.abs(lap[patch.interior(collar=3)]).max() < 5e-2


class TestIntegrability:
    def test_bonnet_constants_on_catenoid(self):
        s = surf(catenoid())
        patch = s.patch()
        curv = s.curvature
        conn = connector(patch, curv)
        lam = 1.0 / curv.kappa1          # mu = lam kappa = 1
        alpha = np.full(s.grid.shape, 0.3)
        out = integrability_residual_general(patch, curv, conn, lam, alpha)
        assert out.max_residual(s.grid.interior()) < 1e-6

    def test_harmonic_family_on_enneper(self):
        t = 1.0
        s = surf(enneper(), WEDGE)
        patch = s.patch()
        curv = s.curvature
        conn = connector(patch, curv)
        _, _, rho, phi = s.grid.coords
        mu = rho**t
        alpha = alpha_from_phi(patch, t * np.log(rho), alpha0=t * phi[32, 32],
                               base=(32, 32))
        out = integrability_residual_general(patch, curv, conn, mu / curv.kappa1, alpha)
        assert out.max_residual(s.grid.interior()) < 1e-3

    def test_negative_control_stays_large(self):
        s = surf(enneper(), WEDGE)
        patch = s.patch()
        curv = s.curvature
        conn = connector(patch, curv)
        u, _, _, _ = s.grid.coords
        mu = np.exp(u**2)
        alpha = alpha_from_phi(patch, u**2, require_harmonic=False)
        out = integrability_residual_general(patch, curv, conn, mu / curv.kappa1, alpha)
        assert out.max_residual(s.grid.interior()) > 1e-2

    def test_elliptic_samples_rejected(self):
        # a sphere-like curvature set has kappa1 kappa2 > 0 everywhere
        s = surf(enneper())
        patch = s.patch()
        curv = s.curvature
        fake = type(curv)(curv.shape_operator, curv.kappa1, np.abs(curv.kappa2),
                          curv.n1, curv.n2, curv.H, curv.K, curv.umbilic)
        with pytest.raises(InvalidInputError):
            integrability_residual_general(patch, fake, np.zeros(s.r.shape),
                                           curv.kappa1 * 0 + 1, curv.kappa1 * 0)


class TestConnectorOracle:
    def test_catenoid_closed_form(self):
        # For F = 1/w^2 the connector of the principal frame reduces to
        # c = 2 (1 - rho^2) / (rho^2 + 1)^2 (v e_u - u e_v), derived from
        # the conformal-frame connection with chi = -2 phi.
        s = surf(catenoid(), DomainGrid.polar(0.5, 1.5, 129, 129))
        patch = s.patch()
        conn = connector(patch, s.curvature)
        u, v, rho, _ = s.grid.coords
        fr = s.frames
        fac = (2.0 * (1.0 - rho**2) / (rho**2 + 1.0) ** 2)[..., None]
        expected = fac * (v[..., None] * fr.e_u - u[..., None] * fr.e_v)
        mask = s.grid.interior()
        assert np.abs(conn.c - expected)[mask].max() < 5e-4
        assert conn.antisymmetry_residual < 5e-4

    def test_antisymmetry_tightens_at_order_4(self):
        s = surf(catenoid(), DomainGrid.polar(0.5, 1.5, 129, 129))
        conn = connector(s.patch(fd_order=4, analytic="full"), s.curvature)
        assert conn.antisymmetry_residual < 1e-7


class TestCompatibility:
    def test_minimal_case_ratio_one(self):
        for alpha in (0.2, 0.9, 2.0):
            assert abs(compatibility_ratio(1.0, -1.0, alpha, 0.0) - 1.0) < 1e-15

    def test_zero_alpha(self):
        assert compatibility_ratio(2.0, -0.7, 0.0, 0.4) == 1.0

    def test_worked_example(self):
        val = compatibility_ratio(2.0, -1.0, np.pi / 4, 0.0)
        assert abs(val - 0.5) < 1e-14
        assert abs(val - (-(-1.0) / 2.0)) < 1e-14

    def test_vanishing_denominator(self):
        with pytest.raises(InvalidInputError):
            compatibility_ratio(1.0, -1.0, np.pi, np.pi / 2)

    def test_array_form_matches_scalar(self):
        rng = np.random.default_rng(5)
        k1 = rng.uniform(0.2, 5.0, 60)
        k2 = -rng.uniform(0.2, 5.0, 60)
        alpha = rng.uniform(-np.pi, np.pi, 60)
        alpha[::10] = 0.0
        beta = rng.uniform(-1.0, 1.0, 60)
        out = compatibility_ratio(k1, k2, alpha, beta)
        assert out.shape == (60,)
        assert (out[::10] == 1.0).all()
        for k in range(60):
            assert out[k] == compatibility_ratio(k1[k], k2[k], alpha[k], beta[k])

    def test_array_vanishing_denominator(self):
        with pytest.raises(InvalidInputError):
            compatibility_ratio([1.0, 2.0], [-1.0, -0.5], [np.pi, 0.3], np.pi / 2)

    def test_report_consistency(self):
        rng = np.random.default_rng(3)
        k1 = rng.uniform(0.5, 3.0, 50)
        k2 = -rng.uniform(0.5, 3.0, 50)
        lam = rng.uniform(0.1, 2.0, 50)
        alpha = rng.uniform(-2.5, 2.5, 50)
        rep = compatibility_report(k1, k2, lam, alpha)
        np.testing.assert_allclose(rep.ratio_lhs, rep.ratio_rhs, atol=1e-12)
        assert rep.symmetry_residual < 1e-12


class TestImageMinimality:
    def test_random_sweep(self):
        rng = np.random.default_rng(41)
        n = 1000
        k1 = rng.uniform(0.2, 5.0, n)
        k2 = -rng.uniform(0.2, 5.0, n)
        lam = rng.uniform(0.1, 10.0, n)
        alpha = rng.uniform(-np.pi, np.pi, n)
        res = image_mean_curvature_check(k1, k2, lam, alpha)
        assert res.max() < 1e-12

    def test_right_angle_drilling(self):
        res = image_mean_curvature_check(2.0, -0.5, 1.3, np.pi / 2)
        assert res.max() < 1e-15

    def test_sign_contract(self):
        with pytest.raises(InvalidInputError):
            image_mean_curvature_check(-1.0, -1.0, 1.0, 0.1)
        with pytest.raises(InvalidInputError):
            image_mean_curvature_check(1.0, -1.0, -1.0, 0.1)


class TestBendingContent:
    def test_worked_point(self):
        # at w = i (rho = 1, phi = pi/2): b = (1/rho) e_phi = (-1, 0, 0)
        s = surf(enneper())
        field = bending_drilling_field(s)
        i = 32  # rho = 1.0
        j = 48  # phi = pi/2
        _, _, rho, phi = GRID.coords
        assert abs(rho[i, j] - 1.0) < 1e-12 and abs(phi[i, j] - np.pi / 2) < 1e-12
        np.testing.assert_allclose(field.b[i, j], [-1.0, 0.0, 0.0], atol=1e-12)

    def test_b_matches_polar_form(self):
        s = surf(bour(3.0))
        field = bending_drilling_field(s)
        _, _, rho, phi = GRID.coords
        e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
        np.testing.assert_allclose(field.b, e_phi / rho[..., None], atol=1e-12)

    def test_numeric_split_agrees(self):
        for datum in (enneper(), bour(3.0), helicoid()):
            valid, res_b, res_d = bending_cross_check(surf(datum))
            assert valid.any()
            assert res_b < 1e-9
            assert res_d < 1e-9

    def test_universality_across_data(self):
        fields = [bending_drilling_field(surf(d))
                  for d in (enneper(), bour(3.0), catenoid_helicoid(0.4))]
        for other in fields[1:]:
            np.testing.assert_allclose(fields[0].b, other.b, atol=1e-15)

    def test_numeric_split_pairwise_equality(self):
        # the Rodrigues-split bending vectors of two different reference
        # rotations agree sample by sample where both are defined
        from minsurf.rotations import rodrigues_from_matrices, split_about_e3_batched

        def numeric_b(s):
            fr = s.frames
            r_ref = (fr.e_u[..., :, None] * np.array([1.0, 0.0, 0.0])
                     + fr.e_v[..., :, None] * np.array([0.0, 1.0, 0.0])
                     + fr.nu[..., :, None] * np.array([0.0, 0.0, 1.0]))
            a_ref, pi_mask = rodrigues_from_matrices(r_ref)
            _, b = split_about_e3_batched(a_ref)
            return b, ~pi_mask

        b1, ok1 = numeric_b(surf(enneper()))
        b2, ok2 = numeric_b(surf(bour(3.0)))
        both = ok1 & ok2
        assert both.any()
        assert np.abs(b1[both] - b2[both]).max() < 1e-8

    def test_catenoid_reference_rotation_is_pi_turn(self):
        # chi/2 + phi = 0 identically: the cot pole covers the whole grid
        s = surf(catenoid())
        valid, _, _ = bending_cross_check(s)
        assert not valid.any()
        assert not bending_drilling_field(s).valid_d.any()

    def test_enneper_pole_on_real_axis(self):
        # chi = 0: the drilling content diverges along phi = 0
        field = bending_drilling_field(surf(enneper()))
        j0 = int(np.argmin(np.abs(GRID.t)))
        assert abs(GRID.t[j0]) < 1e-12
        assert not field.valid_d[:, j0].any()
        assert field.valid_d[:, j0 + 2].all()


class TestPureBendingMeasure:
    def test_point_values(self):
        s = surf(enneper())
        a = pure_bending_measure(s)
        i = 0  # rho = 0.5
        j = 32  # phi = 0
        np.testing.assert_allclose(a[i, j], np.diag([2.56, 2.56, 0.0]), atol=1e-12)

    def test_matches_closed_form(self):
        for datum in (enneper(), catenoid(), helicoid()):
            s = surf(datum)
            a = pure_bending_measure(s)
            np.testing.assert_allclose(a, pure_bending_closed_form(GRID), atol=1e-9)

    def test_fd_path_agrees(self):
        # order-4 stencils on a wedge: the immersion's angular harmonics
        # make order 2 on the full annulus far too coarse for this tensor
        grid = DomainGrid.polar(0.8, 1.6, 129, 129, -np.pi / 8, np.pi / 8)
        s = surf(bour(3.0), grid)
        a_fd = pure_bending_measure_fd(s)
        mask = s.grid.interior(collar=5)
        err = np.abs(a_fd - pure_bending_closed_form(s.grid))[mask].max()
        assert err < 1e-6

    def test_fd_immersion_normals_match_normal_map(self):
        from minsurf.bendneutral import normal_fd_residual

        res = []
        for n in (65, 129):
            s = surf(bour(3.0), DomainGrid.polar(0.5, 1.5, n, n))
            res.append(normal_fd_residual(s))
        assert res[1] < 5e-3
        assert 3.4 < res[0] / res[1] < 4.6

    def test_identical_across_data_on_same_domain(self):
        a1 = pure_bending_measure(surf(enneper()))
        a2 = pure_bending_measure(surf(helicoid()))
        assert np.abs(a1 - a2).max() < 1e-9


class TestDrillingRotation:
    def test_rotates_tangent_plane(self):
        nu = np.array([0.0, 0.0, 1.0])
        r = drilling_rotation(nu, np.pi / 2)
        np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]),
                                   [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(r @ nu, nu, atol=1e-15)
