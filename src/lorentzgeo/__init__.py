"""lorentzgeo: chart-based curvature engine for semi-Riemannian metrics.

Defines metrics, vector fields, and scalar fields through closed-form
expressions in chart coordinates, computes connection and curvature
tensors from exact derivatives, classifies fields and causal characters,
and verifies curvature sign bounds at extrema of the field energy.
"""

__version__ = "0.1.0"

from .expr import Expr, differentiate, evaluate, parse_expression, to_text
from .manifold import (
    CausalCharacter,
    Coordinate,
    ManifoldSpec,
    PlaneType,
    TangentPlane,
    load_spec,
    metric_at,
    to_document,
    validate_signature,
)
from .curvature import (
    PointGeometry,
    causal_character,
    null_sectional_curvature,
    plane_type,
    point_geometries,
    point_geometry,
    sectional_curvature,
    shape_operator,
)
from .symmetry import (
    FieldClass,
    FieldTag,
    classify_field,
    hessian_identity_residual,
    kernel_direction,
    lie_derivative,
    restricted_operator,
    skew_adjoint_residual,
)
from .obstruction import (
    ConformalBoundReport,
    ExtremumKind,
    ExtremumRecord,
    ScanResult,
    SignScanReport,
    Verdict,
    WitnessReport,
    circle_lift,
    conformal_bound_check,
    extremum_witness,
    interpolate_path,
    lorentzianize,
    plane_sign_scan,
    scan_extrema,
)
from .catalog import CatalogEntry, build_example, list_examples, run_entry
