"""Tests for the Weierstrass machinery: catalog data, closed forms,
quadrature cross-checks, and the holomorphy validator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from minsurf import weierstrass
from minsurf.errors import DomainError, InvalidInputError
from minsurf.surfcalc import path_integrate
from minsurf.weierstrass import (
    DomainGrid,
    HolomorphicDatum,
    bonnet_transform,
    bour,
    catenoid,
    catenoid_helicoid,
    curvature_closed_form,
    custom,
    enneper,
    helicoid,
    integrate_representation,
    metric_vectors,
    normal,
    parse_surface_spec,
    validate_holomorphy,
)

GRID = DomainGrid.polar(0.5, 1.5, 65, 65)


class TestNormal:
    def test_origin(self):
        np.testing.assert_allclose(normal(0.0 + 0.0j), [0.0, 0.0, -1.0], atol=1e-15)

    def test_half(self):
        np.testing.assert_allclose(normal(0.5 + 0.0j), [0.8, 0.0, -0.6], atol=1e-15)

    def test_equator(self):
        w = np.exp(1j * np.linspace(0.0, 2.0, 11))
        nu = normal(w)
        assert np.abs(nu[..., 2]).max() < 1e-15

    def test_unit_and_datum_independent(self):
        w = GRID.w
        nu = normal(w)
        np.testing.assert_allclose(np.linalg.norm(nu, axis=-1), 1.0, atol=1e-14)
        s1 = integrate_representation(enneper(), GRID)
        s2 = integrate_representation(bour(3.0), GRID)
        assert np.array_equal(s1.nu, s2.nu)


class TestMetricVectors:
    def test_enneper_at_origin(self):
        r_u, r_v = metric_vectors(enneper(), 0.0 + 0.0j)
        np.testing.assert_allclose(r_u, [0.5, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(r_v, [0.0, -0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("datum", [enneper(), bour(3.0), catenoid(),
                                       helicoid(), catenoid_helicoid(0.7)])
    def test_isothermal_identities(self, datum):
        w = GRID.w
        r_u, r_v = metric_vectors(datum, w)
        _, _, rho, _ = GRID.coords
        p, _ = datum.sample(GRID)
        m = 0.5 * np.exp(p) * (rho**2 + 1.0)
        np.testing.assert_allclose(np.linalg.norm(r_u, axis=-1), m, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(r_v, axis=-1), m, rtol=1e-12)
        dot = np.einsum("ijk,ijk->ij", r_u, r_v)
        assert np.abs(dot / m**2).max() < 1e-12

    def test_fd_cross_check(self):
        surf = integrate_representation(enneper(), GRID)
        patch = surf.patch()
        r_u, r_v = surf.metric_vectors()
        _, _, _, phi = GRID.coords
        r_s_cf = np.cos(phi)[..., None] * r_u + np.sin(phi)[..., None] * r_v
        mask = GRID.interior()
        err = np.abs(patch.r_s - r_s_cf)[mask].max()
        assert err < 5e-4

    def test_frame_right_handed(self):
        surf = integrate_representation(bour(3.0), GRID)
        fr = surf.frames
        np.testing.assert_allclose(np.cross(fr.e_u, fr.e_v), fr.nu, atol=1e-12)


class TestCurvatureClosedForm:
    def test_enneper_origin(self):
        c = curvature_closed_form(enneper(), 0.0 + 0.0j)
        assert abs(c.kappa1 - 4.0) < 1e-14
        assert abs(c.kappa2 + 4.0) < 1e-14
        assert abs(c.K + 16.0) < 1e-13

    def test_enneper_half(self):
        c = curvature_closed_form(enneper(), 0.5 + 0.0j)
        assert abs(c.K - (-16.0 / 1.25**4)) < 1e-12
        assert abs(c.K + 6.5536) < 1e-12

    @pytest.mark.parametrize("datum", [enneper(), catenoid(), helicoid()])
    def test_traceless(self, datum):
        c = curvature_closed_form(datum, GRID.w)
        tr = np.trace(c.shape_operator, axis1=-2, axis2=-1)
        assert np.abs(tr).max() < 1e-12
        assert np.abs(c.H).max() == 0.0

    def test_principal_frame(self):
        c = curvature_closed_form(bour(3.0), GRID.w)
        nu = normal(GRID.w)
        np.testing.assert_allclose(np.cross(c.n1, c.n2), nu, atol=1e-12)
        sn1 = np.einsum("ijkl,ijl->ijk", c.shape_operator, c.n1)
        np.testing.assert_allclose(sn1, c.kappa1[..., None] * c.n1, atol=1e-12)

    def test_matches_fd_shape_operator(self):
        from minsurf.surfcalc import shape_operator

        surf = integrate_representation(enneper(), DomainGrid.polar(0.5, 1.5, 129, 129))
        curv_fd = shape_operator(surf.patch())
        mask = surf.grid.interior()
        rel = np.abs(curv_fd.kappa1 - surf.curvature.kappa1) / surf.curvature.kappa1
        assert rel[mask].max() < 5e-3


class TestIntegrateRepresentation:
    def test_enneper_hand_antiderivative(self):
        surf = integrate_representation(enneper(), GRID)
        w = GRID.w
        i0, j0 = GRID.anchor
        x = 0.5 * (w - w**3 / 3.0)
        y = 0.5j * (w + w**3 / 3.0)
        z = 0.5 * w**2
        expected = np.stack([x.real, y.real, z.real], axis=-1)
        expected -= expected[i0, j0]
        np.testing.assert_allclose(surf.r, expected, atol=1e-14)

    @pytest.mark.parametrize("datum", [enneper(), bour(3.0), catenoid(),
                                       helicoid()])
    def test_quadrature_matches_catalog(self, datum, column_first):
        grid = DomainGrid.polar(0.5, 1.5, 33, 33)
        cat = integrate_representation(datum, grid)
        quad = integrate_representation(replace(datum, power=None), grid)
        assert np.abs(cat.r - quad.r).max() < 1e-10
        # row-first (quad.r) against column-first over the same edge integrals
        edges = [weierstrass._edge_integrals(datum, grid, axis) for axis in (0, 1)]
        alt = column_first.sums(*edges, grid.anchor).real
        assert np.abs(quad.r - alt).max() < 1e-9

    def test_catenoid_is_surface_of_revolution(self):
        surf = integrate_representation(catenoid(), GRID)
        xy = surf.r[..., :2]
        center = xy[:, :-1].mean(axis=1)  # drop duplicated seam column
        radii = np.linalg.norm(xy - center[:, None, :], axis=-1)
        spread = radii.max(axis=1) - radii.min(axis=1)
        assert spread.max() < 1e-8
        # ring centers all sit on one vertical axis
        assert np.abs(center - center[0]).max() < 1e-8

    def test_catenoid_seam_closes_helicoid_does_not(self):
        cat = integrate_representation(catenoid(), GRID)
        hel = integrate_representation(helicoid(), GRID)
        assert np.abs(cat.r[:, 0] - cat.r[:, -1]).max() < 1e-12
        # helicoid picks up the pitch 2 pi c across the cut
        gap = np.abs(hel.r[:, 0, 2] - hel.r[:, -1, 2])
        np.testing.assert_allclose(gap, 2.0 * np.pi, atol=1e-12)

    def test_polar_grid_rejects_nonpositive_rmin(self):
        with pytest.raises(DomainError):
            DomainGrid.polar(0.0, 1.0, 17, 17)

    def test_surfaces_share_the_read_only_grid_normal(self):
        grid = DomainGrid.polar(0.5, 1.5, 17, 17)
        a = integrate_representation(enneper(), grid)
        b = integrate_representation(catenoid(), grid)
        assert a.nu is b.nu is grid.normal
        np.testing.assert_array_equal(a.nu, normal(grid.w))
        with pytest.raises(ValueError):
            a.nu[0, 0, 0] = 1.0

    def test_reading_closed_forms_keeps_only_samples(self):
        surf = integrate_representation(bour(3.0), GRID)
        stored = dict(vars(surf))
        assert set(stored) == {"datum", "grid", "r", "Phi", "chi", "nu"}
        for method in ("metric_vectors", "isothermal_residuals",
                       "harmonicity_residual", "patch"):
            getattr(surf, method)()
        for name in ("conformal_factor", "frames", "curvature", "K", "normal_partials"):
            getattr(surf, name)
        assert vars(surf).keys() == stored.keys()
        assert all(vars(surf)[key] is value for key, value in stored.items())
        # K comes from the closed form's own sampling and formula, bit for bit
        assert np.array_equal(surf.K, surf.curvature.K)

    def test_invariants_on_catalog(self):
        for datum in (enneper(), catenoid(), catenoid_helicoid(0.9)):
            surf = integrate_representation(datum, GRID)
            iso1, iso2 = surf.isothermal_residuals()
            assert iso1 < 1e-12 and iso2 < 1e-12
            assert surf.harmonicity_residual() < 2e-2
            assert np.abs(surf.curvature.H).max() == 0.0

    def test_harmonicity_converges_order_2(self):
        res = []
        for n in (65, 129):
            surf = integrate_representation(catenoid(), DomainGrid.polar(0.5, 1.5, n, n))
            res.append(surf.harmonicity_residual())
        assert 3.4 < res[0] / res[1] < 4.6


class TestHolomorphyValidation:
    def test_bour_family_data(self):
        for t in (0.25, 1.0, 2.5):
            datum = HolomorphicDatum(
                "bour-exp",
                lambda u, v, rho, phi, t=t: t * np.log(rho),
                lambda u, v, rho, phi, t=t: t * phi,
            )
            rep = validate_holomorphy(datum, GRID)
            assert rep.max_cauchy_riemann < 1e-8
            assert rep.max_phi_harmonic < 1e-8
            assert rep.max_chi_harmonic < 1e-8
            assert rep.ok()

    def test_constant_chi(self):
        datum = HolomorphicDatum("const", lambda u, v, r, p: 0.0 * u,
                                 lambda u, v, r, p: 0.3 + 0.0 * u)
        rep = validate_holomorphy(datum, GRID)
        assert rep.max_cauchy_riemann < 1e-12

    def test_broken_datum_flagged(self):
        datum = custom("pow(u, 2)", "0*u")
        rep = validate_holomorphy(datum, GRID)
        assert rep.max_cauchy_riemann > 0.1
        assert not rep.ok()


class TestSpecParsing:
    def test_catalog_names(self):
        assert parse_surface_spec("enneper").power == (1.0 + 0.0j, 0.0)
        assert parse_surface_spec("bour:m=3").power == (1.0 + 0.0j, 1.0)
        c, k = parse_surface_spec("catenoid").power
        assert (c, k) == (1.0 + 0.0j, -2.0)
        c, k = parse_surface_spec("helicoid").power
        assert c == 1j and k == -2.0

    def test_scherk_midpoint_spec(self):
        datum = parse_surface_spec("scherk2:theta=0.785398")
        c, k = datum.power
        assert k == -2.0
        assert abs(np.angle(c) - 0.785398) < 1e-12

    def test_scherk_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_surface_spec("scherk2:theta=0")

    def test_bonnet_applied_to_base(self):
        datum = parse_surface_spec("bonnet:theta=0.5:catenoid")
        c, k = datum.power
        assert k == -2.0
        assert abs(np.angle(c) - 0.5) < 1e-12

    def test_bonnet_transform_shifts_chi(self):
        base = enneper()
        member = bonnet_transform(base, 0.7)
        p0, c0 = base.sample(GRID)
        p1, c1 = member.sample(GRID)
        np.testing.assert_allclose(p1, p0, atol=1e-15)
        np.testing.assert_allclose(c1 - c0, 0.7, atol=1e-15)

    def test_custom_expression(self):
        datum = parse_surface_spec("custom:0.5*ln(rho);0.5*phi")
        rep = validate_holomorphy(datum, GRID)
        assert rep.ok()

    def test_unknown_spec_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_surface_spec("gyroid")

    def test_expression_name_guard(self):
        with pytest.raises(InvalidInputError):
            parse_surface_spec("custom:__import__('os');0*u")

    @pytest.mark.parametrize("expr", [
        "(lambda: ().__class__.__name__)()",
        "u.__class__",
        "u[0]",
        "[x for x in u][0]",
        "sin(u, v)",
        "exp(u, out=v)",
        "sin",
        "'text'",
        "1j * u",
        "u if v else rho",
        "u +",
    ])
    def test_expression_outside_grammar_rejected(self, expr):
        with pytest.raises(InvalidInputError):
            parse_surface_spec(f"custom:{expr};0")

    @pytest.mark.parametrize("spec, message", [
        ("bour:m=3,m=4", "parameter 'm' is given twice"),
        ("catenoid:c=1, c=2", "parameter 'c' is given twice"),
        ("bonnet:theta=0.1,theta=0.2:enneper", "parameter 'theta' is given twice"),
        ("bour:m", "parameter 'm' needs a number, got ''"),
        ("bour:m=", "parameter 'm' needs a number, got ''"),
        ("scherk2:theta=0.5,c=x", "parameter 'c' needs a number, got 'x'"),
    ])
    def test_bad_parameter_list_rejected(self, spec, message):
        with pytest.raises(InvalidInputError, match=message):
            parse_surface_spec(spec)

    def test_expression_grammar_accepts_arithmetic_and_functions(self):
        datum = parse_surface_spec(
            "custom:-ln(rho) + 0.5*pow(u, 2) - pow(v, 2)/2 + abs(pi)%4;"
            "-phi + u*v + +1")
        assert validate_holomorphy(datum, GRID).ok()


class TestRimScale:
    def test_positive_and_grows_with_domain(self):
        small = integrate_representation(enneper(), DomainGrid.polar(0.2, 1.0, 33, 33))
        large = integrate_representation(enneper(), DomainGrid.polar(0.2, 2.0, 33, 33))
        assert 0.0 < small.rim_scale < large.rim_scale


class TestBourReflectionSymmetry:
    @pytest.mark.parametrize("m", [3.0, 2.5, 1.3])
    def test_index_negation_is_reflection(self, m):
        # swapping the index sign and inverting w reflects the surface:
        # r_{-m}(1/w) = diag(1, -1, -1) r_m(w) up to a translation
        from minsurf.weierstrass import _catalog_position

        rho = np.linspace(0.5, 1.5, 40)[:, None] * np.ones(30)
        phi = np.ones(40)[:, None] * np.linspace(-2.5, 2.5, 30)
        r_pos = _catalog_position((1.0 + 0.0j, m - 2.0), rho, phi)
        r_neg = _catalog_position((1.0 + 0.0j, -m - 2.0), 1.0 / rho, -phi)
        reflected = r_pos * np.array([1.0, -1.0, -1.0])
        shift = r_neg[0, 0] - reflected[0, 0]
        assert np.abs(r_neg - reflected - shift).max() < 1e-8


EDGE_PASS_DATUM = custom("ln(rho)+u+0.1", "phi+v-0.3")
EDGE_PASS_GRIDS = pytest.mark.parametrize("grid", [
    DomainGrid.polar(0.3, 1.4, 97, 61),
    DomainGrid.polar(0.2, 1.3, 53, 88, phi_min=-0.7, phi_max=0.6),
], ids=["polar-97x61", "sector-53x88"])


class TestBlockedEdgePass:
    """The quadrature edge pass gives the same bits for any block size."""

    @EDGE_PASS_GRIDS
    @pytest.mark.parametrize("rows", [1, 200])
    def test_bit_identical_to_default_block(self, grid, rows, monkeypatch):
        default = integrate_representation(EDGE_PASS_DATUM, grid)
        edges = [weierstrass._edge_integrals(EDGE_PASS_DATUM, grid, axis)
                 for axis in (0, 1)]
        monkeypatch.setattr(weierstrass, "EDGE_BLOCK_ROWS", rows)
        blocked = integrate_representation(EDGE_PASS_DATUM, grid)
        assert np.array_equal(blocked.r, default.r)
        for axis in (0, 1):
            assert np.array_equal(
                weierstrass._edge_integrals(EDGE_PASS_DATUM, grid, axis), edges[axis])

    # 61 and 88 grid lines are 8 and 11 blocks, or one block of 200
    @EDGE_PASS_GRIDS
    @pytest.mark.parametrize("rows", [weierstrass.EDGE_BLOCK_ROWS, 200])
    def test_bit_identical_across_workers(self, grid, rows, monkeypatch):
        monkeypatch.setattr(weierstrass, "EDGE_BLOCK_ROWS", rows)
        serial = integrate_representation(EDGE_PASS_DATUM, grid)
        for workers in (2, 3):
            forked = integrate_representation(EDGE_PASS_DATUM, grid, workers=workers)
            assert np.array_equal(forked.r, serial.r)

    def test_peak_memory_bounded(self):
        grid = DomainGrid.polar(0.075, 1.5, 256, 256)
        tracemalloc.start()
        try:
            integrate_representation(EDGE_PASS_DATUM, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


class TestAnchorRowPass:
    """The axis-1 edge pass runs on the anchor row only, the one row that
    the row-first path reads."""

    @EDGE_PASS_GRIDS
    def test_axis1_pass_samples_only_the_anchor_row(self, grid, monkeypatch):
        ns, nt = grid.shape
        points, passes = [0], []
        values_at = HolomorphicDatum.values_at
        edge_integrals = weierstrass._edge_integrals

        def counted_values_at(datum, u, *rest):
            points[0] += np.size(u)
            return values_at(datum, u, *rest)

        def counted_pass(datum, pass_grid, axis, **workers):
            before = points[0]
            out = edge_integrals(datum, pass_grid, axis, **workers)
            passes.append((axis, points[0] - before))
            return out

        monkeypatch.setattr(HolomorphicDatum, "values_at", counted_values_at)
        monkeypatch.setattr(weierstrass, "_edge_integrals", counted_pass)
        integrate_representation(EDGE_PASS_DATUM, grid)
        assert passes == [(0, (ns - 1) * nt * 16), (1, (nt - 1) * 16)]

    @EDGE_PASS_GRIDS
    def test_same_bits_as_the_full_grid_pass(self, grid):
        i0 = grid.anchor[0]
        assert 0 < i0 < grid.shape[0] - 1
        edges_s, edges_t = [weierstrass._edge_integrals(EDGE_PASS_DATUM, grid, axis)
                            for axis in (0, 1)]
        full = path_integrate(edges_s, edges_t[i0], grid.anchor).real
        assert np.array_equal(integrate_representation(EDGE_PASS_DATUM, grid).r, full)

