"""Parameterized families of associate minimal surfaces.

Members are produced by additive arithmetic on (Phi, chi): constants give
the classical isometric associates, harmonic pairs the generalized
normal-preserving transformations, and the pure-power family interpolates
between the F = 1 surface and the surfaces of revolution class.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .weierstrass import (
    DomainGrid,
    HolomorphicDatum,
    WeierstrassSurface,
    bonnet_transform,
    catenoid_helicoid,
    enneper,
    from_power,
    integrate_representation,
    require_holomorphic,
)

FAMILY_KINDS = ("bonnet", "general", "bour-t", "catenoid-helicoid")


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for a one-parameter family of data.

    ``base`` is required for bonnet/general; ``harmonic_pair`` holds the
    (phi, theta) callables of the general transformation, which must be a
    conjugate harmonic pair on the domain used to build frames.
    """

    kind: str
    t0: float = 0.0
    t1: float = 1.0
    frames: int = 5
    base: Optional[HolomorphicDatum] = None
    theta_max: float = np.pi / 2
    c: float = 1.0
    harmonic_pair: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidInputError(f"unknown family kind {self.kind!r}")
        if self.frames < 2:
            raise InvalidInputError("a family needs at least 2 frames")
        if not (np.isfinite(self.t0) and np.isfinite(self.t1) and self.t1 > self.t0):
            raise InvalidInputError("parameter range must be finite with t1 > t0")
        if self.kind in ("bonnet", "general") and self.base is None:
            object.__setattr__(self, "base", enneper())
        if self.kind == "general" and self.harmonic_pair is None:
            raise InvalidInputError("general family needs a harmonic (phi, theta) pair")

    def parameter_values(self):
        return np.linspace(self.t0, self.t1, self.frames)


def family_member(spec: FamilySpec, t) -> HolomorphicDatum:
    """Datum of the family at parameter t (must lie inside the range)."""
    t = float(t)
    if not spec.t0 - 1e-12 <= t <= spec.t1 + 1e-12:
        raise InvalidInputError(f"t = {t:g} outside [{spec.t0:g}, {spec.t1:g}]")
    if spec.kind == "bour-t":
        return from_power(1.0, t, f"bour-t:t={t:g}")
    if spec.kind == "catenoid-helicoid":
        return catenoid_helicoid(t * np.pi / 2, spec.c)
    if spec.kind == "bonnet":
        return bonnet_transform(spec.base, t * spec.theta_max)
    phi_h, theta_h = spec.harmonic_pair
    return spec.base.shifted(
        lambda u, v, r, p: t * phi_h(u, v, r, p),
        lambda u, v, r, p: t * theta_h(u, v, r, p),
        label=f"{spec.base.label}+general:t={t:g}",
    )


@dataclass(frozen=True)
class FamilyFrame:
    index: int
    t: float
    surface: WeierstrassSurface

    @property
    def scale(self):
        return self.surface.rim_scale


def validate_family(spec: FamilySpec, grid: DomainGrid):
    """Check that the general transformation pair is a conjugate harmonic
    pair on the grid (Cauchy-Riemann and harmonicity), before any frame
    is built."""
    if spec.kind != "general":
        return
    phi_h, theta_h = spec.harmonic_pair
    require_holomorphic(HolomorphicDatum("family-pair", phi_h, theta_h), grid,
                        "general family pair is not a conjugate harmonic pair "
                        "on the domain")


def family_frames(spec: FamilySpec, grid: DomainGrid, threads=1, each=None):
    """Build one surface per frame, uniformly spaced in t, on a pool of
    ``threads`` worker threads.

    Returns the :class:`FamilyFrame` list in frame order.  Given ``each``,
    the worker that builds a frame passes it to ``each`` and keeps only the
    result, so the list holds ``each(frame)`` instead and at most one
    surface per thread is alive at a time.  Every frame shares the grid's
    normal field.
    """
    validate_family(spec, grid)

    def build(item):
        idx, t = item
        frame = FamilyFrame(idx, float(t),
                            integrate_representation(family_member(spec, t), grid))
        return frame if each is None else each(frame)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(build, enumerate(spec.parameter_values())))
