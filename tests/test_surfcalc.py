"""Oracle tests for the surface differential operators.

Flat patches give exact expectations; spheres give closed-form curvature
and Laplace-Beltrami eigenfunctions; convergence tests assert the order-2
behaviour of every finite-difference path.
"""

import numpy as np
import pytest

from minsurf.errors import InvalidInputError, SingularSurfaceError, UmbilicError
from minsurf.surfcalc import (
    SurfacePatch,
    circulation_check,
    connector,
    integrate_tangential_field,
    path_integrate,
    rectangle_loop,
    shape_operator,
    surface_curl,
    surface_gradient,
    surface_laplacian,
    surface_vector_gradient,
)

E3 = np.array([0.0, 0.0, 1.0])


def flat_patch(n=41):
    s = np.linspace(0.0, 1.0, n)
    t = np.linspace(0.0, 1.0, n)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    r = np.stack([ss, tt, np.zeros_like(ss)], axis=-1)
    return SurfacePatch(s, t, r), ss, tt


def torus_patch(r0, a, n=65):
    s = np.linspace(-1.0, 1.0, n)
    t = np.linspace(-1.0, 1.0, n)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    ring = r0 + a * np.cos(ss)
    r = np.stack([ring * np.cos(tt), ring * np.sin(tt), a * np.sin(ss)], axis=-1)
    return SurfacePatch(s, t, r), ss


def sphere_patch(radius=1.0, n=65, analytic=True, center_equator=False):
    if center_equator:
        s = np.linspace(np.pi / 2 - 0.5, np.pi / 2 + 0.5, n)
        t = np.linspace(-0.5, 0.5, n)
    else:
        s = np.linspace(0.6, 2.2, n)
        t = np.linspace(-1.2, 1.2, n)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    r = radius * np.stack([np.sin(ss) * np.cos(tt),
                           np.sin(ss) * np.sin(tt),
                           np.cos(ss)], axis=-1)
    if not analytic:
        return SurfacePatch(s, t, r)
    r_s = radius * np.stack([np.cos(ss) * np.cos(tt),
                             np.cos(ss) * np.sin(tt),
                             -np.sin(ss)], axis=-1)
    r_t = radius * np.stack([-np.sin(ss) * np.sin(tt),
                             np.sin(ss) * np.cos(tt),
                             np.zeros_like(ss)], axis=-1)
    return SurfacePatch(s, t, r, r_s=r_s, r_t=r_t,
                        nu=r / radius, nu_s=r_s / radius, nu_t=r_t / radius)


class TestSurfaceGradient:
    def test_constant_field(self):
        patch, ss, tt = flat_patch()
        g = surface_gradient(patch, np.full_like(ss, 3.7))
        assert np.abs(g).max() < 1e-12

    def test_flat_coordinate(self):
        patch, ss, tt = flat_patch()
        g = surface_gradient(patch, ss)
        np.testing.assert_allclose(g[..., 0], 1.0, atol=1e-12)
        assert np.abs(g[..., 1:]).max() < 1e-12

    def test_sphere_height_is_projected_e3(self):
        patch = sphere_patch(center_equator=True, n=81)
        g = surface_gradient(patch, patch.r[..., 2])
        expected = E3 - patch.nu[..., 2:3] * patch.nu
        mask = patch.interior()
        assert np.abs(g - expected)[mask].max() < 1e-4
        # equator point (1, 0, 0) sits at the grid center; O(h^2) accuracy
        np.testing.assert_allclose(g[40, 40], E3, atol=1e-4)

    def test_tangentiality(self):
        patch = sphere_patch(analytic=False)
        g = surface_gradient(patch, patch.r[..., 2])
        assert np.abs(np.einsum("ijk,ijk->ij", g, patch.nu)).max() < 1e-9

    def test_directional_derivative_identity(self):
        patch = sphere_patch(n=81)
        phi = patch.r[..., 0] * patch.r[..., 2]
        g = surface_gradient(patch, phi)
        lhs = patch.d_s(phi)
        rhs = np.einsum("ijk,ijk->ij", g, patch.r_s)
        mask = patch.interior()
        assert np.abs(lhs - rhs)[mask].max() < 1e-8

    def test_singular_patch_rejected(self):
        n = 21
        s = np.linspace(0.0, 1.0, n)
        ss, tt = np.meshgrid(s, s, indexing="ij")
        r = np.stack([ss + tt, ss + tt, np.zeros_like(ss)], axis=-1)
        patch = SurfacePatch(s, s, r)
        with pytest.raises(SingularSurfaceError):
            surface_gradient(patch, ss)

    def test_wrong_grid_rejected(self):
        patch, ss, tt = flat_patch()
        with pytest.raises(InvalidInputError):
            surface_gradient(patch, ss[:-1])


class TestShapeOperator:
    def test_flat_patch_zero(self):
        patch, _, _ = flat_patch()
        curv = shape_operator(patch)
        assert np.abs(curv.shape_operator).max() < 1e-10
        assert np.abs(curv.H).max() < 1e-10
        assert curv.umbilic.all()

    def test_sphere_closed_form(self):
        radius = 2.0
        patch = sphere_patch(radius=radius)
        curv = shape_operator(patch)
        np.testing.assert_allclose(curv.kappa1, 1.0 / radius, atol=1e-12)
        np.testing.assert_allclose(curv.kappa2, 1.0 / radius, atol=1e-12)
        assert curv.umbilic.all()
        # full tensor equals P(nu)/R
        p = np.eye(3) - patch.nu[..., :, None] * patch.nu[..., None, :]
        np.testing.assert_allclose(curv.shape_operator, p / radius, atol=1e-12)

    def test_annihilates_normal_and_symmetry(self):
        patch = sphere_patch(radius=1.5)
        curv = shape_operator(patch)
        sn = np.einsum("ijkl,ijl->ijk", curv.shape_operator, patch.nu)
        assert np.abs(sn).max() < 1e-9
        fr = patch.frames
        basis = np.stack([fr.e_u, fr.e_v], axis=-2)
        s2 = np.einsum("ijak,ijkl,ijbl->ijab", basis, curv.shape_operator, basis)
        assert np.abs(s2 - np.swapaxes(s2, -1, -2)).max() < 1e-8

    def test_trace_and_det_consistency(self):
        patch = sphere_patch(radius=0.7)
        curv = shape_operator(patch)
        tr = np.trace(curv.shape_operator, axis1=-2, axis2=-1)
        np.testing.assert_allclose(tr, 2.0 * curv.H, atol=1e-8)
        np.testing.assert_allclose(curv.K, curv.kappa1 * curv.kappa2, atol=1e-12)

    def test_torus_closed_form(self):
        # tube radius a, axial radius R0; with nu = r_s x r_t the normal
        # points inward, so the tube curvature is -1/a and the axial one
        # -cos(s)/(R0 + a cos s)
        r0, a = 2.0, 0.5
        patch, ss = torus_patch(r0, a, n=129)
        curv = shape_operator(patch)
        mask = patch.interior()
        ax = -np.cos(ss) / (r0 + a * np.cos(ss))
        np.testing.assert_allclose(curv.kappa2[mask], -1.0 / a, atol=2e-4)
        np.testing.assert_allclose(curv.kappa1[mask], ax[mask], atol=2e-4)

    def test_fd_path_converges_order_2(self):
        # sphere/torus charts make centered-difference errors cancel exactly
        # (single-frequency fields), so measure the order on a sinusoid graph
        # against the Monge closed form for K
        errs = []
        for n in (65, 129):
            s = np.linspace(-1.0, 1.0, n)
            ss, tt = np.meshgrid(s, s, indexing="ij")
            f = 0.3 * np.sin(ss) * np.cos(tt)
            r = np.stack([ss, tt, f], axis=-1)
            patch = SurfacePatch(s, s, r)
            fx = 0.3 * np.cos(ss) * np.cos(tt)
            fy = -0.3 * np.sin(ss) * np.sin(tt)
            fxx = -f
            fyy = -f
            fxy = -0.3 * np.cos(ss) * np.sin(tt)
            k_exact = (fxx * fyy - fxy**2) / (1.0 + fx**2 + fy**2) ** 2
            curv = shape_operator(patch)
            mask = patch.interior()
            errs.append(np.abs(curv.K - k_exact)[mask].max())
        assert 3.4 < errs[0] / errs[1] < 4.6


class TestLaplacian:
    def test_flat_harmonic(self):
        patch, ss, tt = flat_patch()
        lap = surface_laplacian(patch, ss**2 - tt**2)
        mask = patch.interior()
        assert np.abs(lap[mask]).max() < 1e-10

    def test_flat_quadratic(self):
        patch, ss, tt = flat_patch()
        lap = surface_laplacian(patch, ss**2)
        mask = patch.interior()
        np.testing.assert_allclose(lap[mask], 2.0, atol=1e-9)

    def test_constant(self):
        patch, ss, _ = flat_patch()
        lap = surface_laplacian(patch, np.full_like(ss, 5.0))
        assert np.abs(lap).max() < 1e-12

    def test_isothermal_patch_identity(self):
        # on an isothermal patch the Laplace-Beltrami operator reduces to
        # the flat laplacian divided by |r_u|^2
        from minsurf.weierstrass import DomainGrid, enneper, integrate_representation

        surf = integrate_representation(enneper(), DomainGrid.polar(0.5, 1.5, 129, 129))
        patch = surf.patch()
        u, _, _, _ = surf.grid.coords
        lap = surface_laplacian(patch, u**2)
        expected = 2.0 / surf.conformal_factor**2
        mask = patch.interior(collar=3)
        assert np.abs(lap - expected)[mask].max() < 2e-2

    def test_sphere_eigenfunction_convergence(self):
        # z is a degree-1 spherical harmonic: lap z = -2 z / R^2
        errs = []
        for n in (65, 129):
            patch = sphere_patch(analytic=False, n=n)
            z = patch.r[..., 2]
            lap = surface_laplacian(patch, z)
            mask = patch.interior()
            errs.append(np.abs(lap + 2.0 * z)[mask].max())
        assert errs[1] < 2e-3
        assert 3.4 < errs[0] / errs[1] < 4.6


class TestSurfaceCurl:
    def test_flat_gradient_curl_free(self):
        patch, ss, tt = flat_patch()
        h = surface_gradient(patch, ss**2 * tt)
        curl = surface_curl(patch, h)
        mask = patch.interior()
        assert np.abs(curl[mask]).max() < 1e-10

    def test_sphere_matches_curvature_identity(self):
        # curl_s grad_s phi = nu x (grad_s nu)(grad_s phi)
        patch = sphere_patch(n=129)
        phi = patch.r[..., 2]
        g = surface_gradient(patch, phi)
        curl = surface_curl(patch, g)
        curv = shape_operator(patch)
        expected = np.cross(patch.nu,
                            np.einsum("ijkl,ijl->ijk", curv.shape_operator, g))
        mask = patch.interior()
        assert np.abs(curl - expected)[mask].max() < 5e-4

    def test_rotated_harmonic_gradient_has_no_normal_curl(self):
        # on a minimal patch, curl_s(nu x grad_s phi) . nu = 0 for harmonic
        # phi; the FD residual vanishes at order 2 under refinement
        from minsurf.weierstrass import DomainGrid, enneper, integrate_representation

        res = []
        for n in (129, 257):
            surf = integrate_representation(enneper(), DomainGrid.polar(0.5, 1.5, n, n))
            patch = surf.patch()
            _, _, rho, _ = surf.grid.coords
            h = np.cross(patch.nu, surface_gradient(patch, np.log(rho)))
            curl_nu = np.einsum("ijk,ijk->ij", surface_curl(patch, h), patch.nu)
            res.append(np.abs(curl_nu[patch.interior(collar=3)]).max())
        assert res[1] < 5e-2
        assert 3.4 < res[0] / res[1] < 4.6

    def test_skew_identity_second_gradient(self):
        # skw(grad_s^2 phi) = skw((grad_s nu)(grad_s phi) x nu) at O(h^2)
        resids = []
        for n in (65, 129):
            patch = sphere_patch(n=n)
            phi = patch.r[..., 0]
            g = surface_gradient(patch, phi)
            hess = surface_vector_gradient(patch, g)
            curv = shape_operator(patch)
            sg = np.einsum("ijkl,ijl->ijk", curv.shape_operator, g)
            rhs = sg[..., :, None] * patch.nu[..., None, :]
            skw = lambda m: 0.5 * (m - np.swapaxes(m, -1, -2))
            mask = patch.interior()
            resids.append(np.abs(skw(hess) - skw(rhs))[mask].max())
        assert resids[1] < 1e-3
        assert 3.0 < resids[0] / resids[1] < 5.2


class TestConnector:
    def test_flat_constant_frame_zero(self):
        # build a patch with a slight anisotropic bend so directions are unique
        n = 41
        s = np.linspace(-0.4, 0.4, n)
        t = np.linspace(-0.4, 0.4, n)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        r = np.stack([ss, tt, 0.1 * ss**2], axis=-1)  # parabolic cylinder
        patch = SurfacePatch(s, t, r)
        curv = shape_operator(patch)
        field = connector(patch, curv)
        mask = patch.interior()
        # frame is parallel along the flat rulings: connector vanishes
        assert np.abs(field.c[mask]).max() < 1e-6
        assert field.antisymmetry_residual < 1e-6

    def test_umbilic_rejected(self):
        patch = sphere_patch()
        curv = shape_operator(patch)
        with pytest.raises(UmbilicError):
            connector(patch, curv)

    def test_tangential(self):
        n = 41
        s = np.linspace(-0.4, 0.4, n)
        t = np.linspace(-0.4, 0.4, n)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        r = np.stack([ss, tt, 0.2 * ss**2 - 0.05 * tt**2], axis=-1)
        patch = SurfacePatch(s, t, r)
        curv = shape_operator(patch)
        field = connector(patch, curv)
        dot = np.einsum("ijk,ijk->ij", field.c, patch.nu)
        assert np.abs(dot[patch.interior()]).max() < 1e-9


class TestCirculation:
    def test_constant_field_flat(self):
        patch, ss, tt = flat_patch()
        h = np.broadcast_to(np.array([0.3, -0.7, 0.1]), patch.r.shape).copy()
        loop = rectangle_loop(5, 35, 8, 30)
        assert circulation_check(patch, h, loop) < 1e-10

    def test_gradient_field_flat(self):
        patch, ss, tt = flat_patch()
        h = surface_gradient(patch, ss**2 * tt)
        loop = rectangle_loop(4, 36, 4, 36)
        assert circulation_check(patch, h, loop) < 1e-10

    def test_rotational_field_sphere_converges(self):
        resids = []
        for n in (65, 129):
            patch = sphere_patch(analytic=False, n=n)
            h = np.cross(np.broadcast_to(E3, patch.r.shape), patch.r)
            q = (n - 1) // 4
            loop = rectangle_loop(q, 3 * q, q, 3 * q)
            resids.append(circulation_check(patch, h, loop))
        assert 3.0 < resids[0] / resids[1] < 5.2

    def test_open_contour_rejected(self):
        patch, _, _ = flat_patch()
        loop = rectangle_loop(5, 20, 5, 20)[:-1]
        with pytest.raises(InvalidInputError):
            circulation_check(patch, patch.r, loop)

    def test_non_adjacent_steps_rejected(self):
        patch, _, _ = flat_patch()
        loop = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]])
        with pytest.raises(InvalidInputError):
            circulation_check(patch, patch.r, loop)


def node_walk(edges_s, edges_t, base, by_columns):
    """Reference path sums: walk from ``base`` to every node one edge at a
    time, along the base row then the node's column (or the other way)."""
    i0, j0 = base
    ns, nt = edges_t.shape[0], edges_s.shape[1]
    out = np.zeros((ns, nt) + edges_s.shape[2:], dtype=edges_s.dtype)

    def walk(steps, a, b):
        return steps[a:b].sum(axis=0) if b >= a else -steps[b:a].sum(axis=0)

    for i in range(ns):
        for j in range(nt):
            if by_columns:
                out[i, j] = walk(edges_s[:, j0], i0, i) + walk(edges_t[i], j0, j)
            else:
                out[i, j] = walk(edges_t[i0], j0, j) + walk(edges_s[:, j], i0, i)
    return out


def random_edges(rng, tail, dtype):
    """Increments on the s- and t-edges of a 6 x 5 grid."""
    def draw(*dims):
        x = rng.normal(size=dims + tail)
        return x + 1j * rng.normal(size=dims + tail) if dtype is complex else x

    return draw(5, 5), draw(6, 4)


BASES = [(0, 0), (5, 4), (0, 2), (3, 0), (2, 2)]  # corners, edges, interior


class TestPathIntegrate:
    @pytest.mark.parametrize("dtype,tail", [(float, ()), (complex, (3,))],
                             ids=["real", "complex-3"])
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("by_columns", [False, True])
    def test_matches_node_walk(self, dtype, tail, base, by_columns, column_first):
        rng = np.random.default_rng(11)
        edges_s, edges_t = random_edges(rng, tail, dtype)
        out = path_sums(edges_s, edges_t, base, by_columns, column_first)
        assert out.shape == (6, 5) + tail and out.dtype == np.dtype(dtype)
        assert np.all(out[base] == 0)
        np.testing.assert_allclose(
            out, node_walk(edges_s, edges_t, base, by_columns), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("by_columns", [False, True])
    def test_differences_of_a_potential_sum_back(self, base, by_columns, column_first):
        rng = np.random.default_rng(12)
        pot = rng.normal(size=(6, 5, 3)) + 1j * rng.normal(size=(6, 5, 3))
        out = path_sums(np.diff(pot, axis=0), np.diff(pot, axis=1), base,
                        by_columns, column_first)
        np.testing.assert_allclose(out, pot - pot[base], rtol=0, atol=1e-12)


def path_sums(edges_s, edges_t, base, by_columns, column_first):
    """Path sums over full-grid edges: row-first reads only the base row's
    t-edges; column-first is the same rule on the transposed grid."""
    if by_columns:
        return column_first.sums(edges_s, edges_t, base)
    return path_integrate(edges_s, edges_t[base[0]], base)


def path_difference(patch, h, base, column_first):
    """max |row-first - column-first| of the potential rebuilt from h."""
    row = integrate_tangential_field(patch, h, base=base)
    return np.abs(row - column_first.potential(patch, h, base)).max()


class TestPotentialReconstruction:
    def test_reconstructs_potential_on_sphere(self):
        patch = sphere_patch(n=129)
        phi = patch.r[..., 2]
        h = surface_gradient(patch, phi)
        base = (64, 64)
        rec = integrate_tangential_field(patch, h, base=base, value0=phi[base])
        assert np.abs(rec - phi).max() < 2e-4

    def test_path_independence_for_gradient(self, column_first):
        patch = sphere_patch(n=129)
        h = surface_gradient(patch, patch.r[..., 2])
        assert path_difference(patch, h, (64, 64), column_first) < 2e-4

    def test_path_dependence_for_rotational_field(self, column_first):
        patch = sphere_patch(n=65)
        h = np.cross(np.broadcast_to(E3, patch.r.shape), patch.r)
        assert path_difference(patch, h, (32, 32), column_first) > 1e-2


class TestVectorGradient:
    def test_kills_normal(self):
        patch = sphere_patch()
        g = surface_vector_gradient(patch, patch.r)
        gn = np.einsum("ijkl,ijl->ijk", g, patch.nu)
        assert np.abs(gn).max() < 1e-9
