"""Tests for the associate-family constructors."""

import os

import numpy as np
import pytest

from minsurf.bendneutral import deformation_between
from minsurf.errors import InvalidInputError
from minsurf.families import (
    FamilyFrame,
    FamilySpec,
    family_frames,
    family_member,
    validate_family,
)
from minsurf.weierstrass import (
    DomainGrid,
    catenoid,
    enneper,
    integrate_representation,
    scherk_midpoint,
)

GRID = DomainGrid.polar(0.5, 1.5, 49, 49)


class TestFamilyMember:
    def test_bour_endpoints(self):
        spec = FamilySpec("bour-t")
        d0 = family_member(spec, 0.0)
        d1 = family_member(spec, 1.0)
        assert d0.power == (1.0 + 0.0j, 0.0)   # the F = 1 surface
        assert d1.power == (1.0 + 0.0j, 1.0)   # F = w, index m = 3
        midway = family_member(spec, 0.5)
        assert midway.power == (1.0 + 0.0j, 0.5)

    def test_catenoid_helicoid_endpoints(self):
        spec = FamilySpec("catenoid-helicoid")
        c0, k0 = family_member(spec, 0.0).power
        c1, k1 = family_member(spec, 1.0).power
        assert k0 == k1 == -2.0
        assert abs(c0 - 1.0) < 1e-15
        assert abs(c1 - 1j) < 1e-15

    def test_bonnet_member_shifts_chi(self):
        spec = FamilySpec("bonnet", theta_max=0.8)
        member = family_member(spec, 0.5)
        p0, c0 = enneper().sample(GRID)
        p1, c1 = member.sample(GRID)
        np.testing.assert_allclose(p1, p0, atol=1e-15)
        np.testing.assert_allclose(c1 - c0, 0.4, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            family_member(FamilySpec("bour-t"), 1.5)

    def test_group_property(self):
        # composing two parameter steps equals the direct member
        spec = FamilySpec("bour-t")
        t1, t2 = 0.3, 0.45
        direct = family_member(spec, t1 + t2)
        p_direct, c_direct = direct.sample(GRID)
        d1 = family_member(spec, t1)
        p1, c1 = d1.sample(GRID)
        p2, c2 = family_member(spec, t2).sample(GRID)
        np.testing.assert_allclose(p1 + p2, p_direct, atol=1e-13)
        np.testing.assert_allclose(c1 + c2, c_direct, atol=1e-13)

    def test_general_member(self):
        spec = FamilySpec("general", harmonic_pair=(
            lambda u, v, r, p: 0.5 * np.log(r),
            lambda u, v, r, p: 0.5 * p,
        ))
        member = family_member(spec, 1.0)
        p, c = member.sample(GRID)
        p0, c0 = enneper().sample(GRID)
        _, _, rho, phi = GRID.coords
        np.testing.assert_allclose(p - p0, 0.5 * np.log(rho), atol=1e-14)
        np.testing.assert_allclose(c - c0, 0.5 * phi, atol=1e-14)


class TestScherkMidpoint:
    def test_datum_arithmetic(self):
        datum = scherk_midpoint(np.pi / 4)
        p, c = datum.sample(GRID)
        _, _, rho, phi = GRID.coords
        np.testing.assert_allclose(p, -2.0 * np.log(rho), atol=1e-14)
        np.testing.assert_allclose(c, -2.0 * phi + np.pi / 4, atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, -0.1, 2.0])
    def test_endpoints_rejected(self, theta):
        with pytest.raises(InvalidInputError):
            scherk_midpoint(theta)

    def test_isometric_to_catenoid(self):
        s_cat = integrate_representation(catenoid(), GRID)
        s_sch = integrate_representation(scherk_midpoint(np.pi / 4), GRID)
        a = np.linalg.norm(s_cat.metric_vectors()[0], axis=-1)
        b = np.linalg.norm(s_sch.metric_vectors()[0], axis=-1)
        assert np.abs(a - b).max() < 1e-10

    def test_minimal(self):
        s = integrate_representation(scherk_midpoint(0.6), GRID)
        assert np.abs(s.curvature.H).max() == 0.0
        assert s.harmonicity_residual() < 2e-2


class TestFamilyFrames:
    def test_five_frame_gallery(self):
        spec = FamilySpec("bour-t", frames=5)
        frames = family_frames(spec, GRID)
        assert [f.index for f in frames] == list(range(5))
        np.testing.assert_allclose([f.t for f in frames],
                                   [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
        assert all(f.surface.rim_scale > 0.0 for f in frames)
        assert all(isinstance(f, FamilyFrame) for f in frames)

    def test_every_frame_is_minimal_and_isothermal(self):
        spec = FamilySpec("catenoid-helicoid", frames=4)
        for frame in family_frames(spec, GRID):
            iso1, iso2 = frame.surface.isothermal_residuals()
            assert iso1 < 1e-12 and iso2 < 1e-12
            assert np.abs(frame.surface.curvature.H).max() == 0.0
            assert frame.surface.harmonicity_residual() < 2e-2

    def test_consecutive_frames_deformation(self):
        spec = FamilySpec("bour-t", frames=5)
        frames = family_frames(spec, GRID)
        _, _, rho, phi = GRID.coords
        for a, b in zip(frames[:-1], frames[1:]):
            d = deformation_between(a.surface, b.surface)
            dt = b.t - a.t
            np.testing.assert_allclose(d.mu, rho**dt, rtol=1e-13)
            np.testing.assert_allclose(d.alpha, dt * phi, atol=1e-13)

    def test_bonnet_members_isometric_to_base(self):
        spec = FamilySpec("bonnet", frames=4, theta_max=1.2)
        frames = family_frames(spec, GRID)
        base = frames[0].surface
        for frame in frames[1:]:
            d = deformation_between(base, frame.surface)
            np.testing.assert_allclose(d.mu, 1.0, atol=1e-15)
            a = np.linalg.norm(base.metric_vectors()[0], axis=-1)
            b = np.linalg.norm(frame.surface.metric_vectors()[0], axis=-1)
            assert np.abs(a - b).max() < 1e-10

    def test_forked_build_matches_serial(self):
        spec = FamilySpec("bonnet", frames=4)
        serial = [frame.surface.r.tobytes() for frame in family_frames(spec, GRID)]
        for workers in (1, 2, 3, 8):
            forked = family_frames(spec, GRID, lambda frame: frame.surface.r.tobytes(),
                                   workers)
            assert forked == serial

    def test_each_results_keep_frame_order(self):
        spec = FamilySpec("bour-t", frames=5)
        frames = family_frames(spec, GRID)

        def record(frame):  # index and builder, then the bits of r
            return b"%d %d " % (frame.index, os.getpid()) + frame.surface.r.tobytes()

        for workers in (1, 2, 3, 8):
            out = [rec.split(b" ", 2) for rec in family_frames(spec, GRID, record, workers)]
            assert [int(index) for index, _, _ in out] == list(range(5))
            assert len({pid for _, pid, _ in out}) == min(workers, 5)
            for (_, _, r), frame in zip(out, frames):
                assert r == frame.surface.r.tobytes()

    # a holomorphic base plus a conjugate harmonic pair makes every member
    # holomorphic: the pair, and a non-power base, are each checked once
    @pytest.mark.parametrize("kind, base, probes", [
        ("general", "enneper", 1), ("general", "custom:ln(rho)+u;phi+v", 2),
        ("bonnet", "enneper", 0), ("bonnet", "custom:ln(rho)+u;phi+v", 1)])
    def test_one_holomorphy_probe_per_family(self, kind, base, probes, monkeypatch):
        from minsurf import weierstrass

        calls, validate = [], weierstrass.validate_holomorphy

        def counted(datum, grid):
            calls.append(datum.label)
            return validate(datum, grid)

        monkeypatch.setattr(weierstrass, "validate_holomorphy", counted)
        spec = FamilySpec(kind, frames=5, base=weierstrass.parse_surface_spec(base),
                          harmonic_pair=(lambda u, v, r, p: u, lambda u, v, r, p: v))
        frames = family_frames(spec, DomainGrid.polar(0.5, 1.5, 9, 9))
        assert len(frames) == 5 and len(calls) == probes

    def test_non_harmonic_general_pair_rejected(self):
        spec = FamilySpec("general", harmonic_pair=(
            lambda u, v, r, p: u**2,
            lambda u, v, r, p: 0.0 * u,
        ))
        with pytest.raises(InvalidInputError):
            validate_family(spec, GRID)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            FamilySpec("bour-t", frames=1)
        with pytest.raises(InvalidInputError):
            FamilySpec("bour-t", t0=0.0, t1=0.0)
        with pytest.raises(InvalidInputError):
            FamilySpec("spiral")
        with pytest.raises(InvalidInputError):
            FamilySpec("general")
