"""Minimal surfaces from Weierstrass data, rotation drilling/bending
splits, and bending-neutral deformation analysis."""

from .bendneutral import (
    BendingContent,
    DeformationField,
    alpha_from_phi,
    bending_cross_check,
    bending_drilling_field,
    chain_rule_residual,
    compatibility_ratio,
    deformation_between,
    image_mean_curvature_check,
    integrability_residual_general,
    pure_bending_closed_form,
    pure_bending_measure,
    pure_bending_measure_fd,
)
from .errors import (
    DomainError,
    IntegrabilityError,
    InvalidInputError,
    SingularSurfaceError,
    UmbilicError,
)
from .families import (
    FamilyFrame,
    FamilySpec,
    family_frames,
    family_member,
)
from .rotations import axis_distance_profile
from .surfcalc import (
    ConnectorField,
    CurvatureData,
    FrameField,
    SurfacePatch,
    circulation_check,
    connector,
    shape_operator,
    surface_curl,
    surface_gradient,
    surface_laplacian,
)
from .weierstrass import (
    DomainGrid,
    HolomorphicDatum,
    WeierstrassSurface,
    curvature_closed_form,
    integrate_representation,
    metric_vectors,
    normal,
    parse_surface_spec,
    scherk_midpoint,
    validate_holomorphy,
)

__version__ = "0.1.0"
