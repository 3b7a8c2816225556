"""Built-in chart catalog with expected-value tables.

Each entry bundles a chart, a designated field, scan paths, and a table
of expected quantities used by the regression/acceptance machinery.
Expected rows carry a provenance tag: ``published`` for values taken
from the source material the examples come from, ``derived`` for values
computed here from closed forms or independent oracles, and ``exact``
for immediate arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    point_geometry,
    ricci_at,
    sectional_curvature,
    symmetry_residuals,
)
from .manifold import (
    CausalCharacter,
    ManifoldSpec,
    TangentPlane,
    causal_character,
    field_energy_expr,
    load_spec,
    metric_at,
)
from .obstruction import (
    ExtremumKind,
    Verdict,
    circle_lift,
    conformal_bound_check,
    extremum_witness,
    interpolate_path,
    plane_sign_scan,
    scan_extrema,
)
from .symmetry import (
    classify_field,
    hessian_identity_residual,
    skew_adjoint_residual,
)

PI = math.pi


@dataclass(frozen=True)
class ExpectedRow:
    """One checkable quantity with its expected value and tolerance.

    ``expected`` may be a float (compared within ``tol``) or a string
    (compared exactly).  ``compute`` maps the owning entry to the
    engine's value for the quantity.
    """

    quantity: str
    expected: float | str
    tol: float | None
    provenance: str                     # published | derived | exact
    compute: object = field(repr=False, compare=False, default=None)
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    spec: ManifoldSpec
    field_name: str
    paths: dict
    expected: tuple[ExpectedRow, ...]
    # scan_extrema results of entry.field_name, keyed by grid: several
    # rows of one entry read the same scan
    scans: dict = field(default_factory=dict, repr=False, compare=False)


def check_row(entry: CatalogEntry, row: ExpectedRow) -> dict:
    computed = row.compute(entry)
    if isinstance(row.expected, str):
        ok = str(computed) == row.expected
    else:
        ok = abs(float(computed) - row.expected) <= row.tol
    return {
        "quantity": row.quantity,
        "expected": row.expected,
        "computed": computed if isinstance(computed, str) else float(computed),
        "tolerance": row.tol,
        "provenance": row.provenance,
        "note": row.note,
        "verdict": "PASS" if ok else "FAIL",
    }


def run_entry(entry: CatalogEntry) -> list[dict]:
    return [check_row(entry, row) for row in entry.expected]


# ---------------------------------------------------------------------------
# Shared helpers for the expected-value computations
# ---------------------------------------------------------------------------

def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_independent(rng, dim):
    while True:
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        gram = np.array([[u @ u, u @ v], [u @ v, v @ v]])
        if np.linalg.det(gram) > 1e-6 * (u @ u) * (v @ v):
            return u, v


def _max_sectional_deviation(entry, target, n_points=50, seed=0):
    """max |K(random plane) - target| over random points."""
    M = entry.spec
    rng = _rng(seed)
    worst = 0.0
    for p in M.sample_points(n_points, rng):
        u, v = _random_independent(rng, M.dim)
        k = sectional_curvature(M, TangentPlane(p, u, v))
        worst = max(worst, abs(k - target))
    return worst


def _max_field_plane_deviation(entry, target, n_points=50, seed=0):
    """max |K(plane containing X) - target| over random points/planes."""
    M = entry.spec
    rng = _rng(seed)
    worst = 0.0
    for p in M.sample_points(n_points, rng):
        X = M.field_eval(entry.field_name, p)
        w = rng.normal(size=M.dim)
        k = sectional_curvature(M, TangentPlane(p, w, X))
        worst = max(worst, abs(k - target))
    return worst


def _max_ricci_abs(entry, n_points=50, seed=0):
    M = entry.spec
    rng = _rng(seed)
    worst = 0.0
    for p in M.sample_points(n_points, rng):
        ric, _ = ricci_at(M, p)
        worst = max(worst, float(np.max(np.abs(ric))))
    return worst


def _max_hessian_identity_residual(entry, n_points=20, seed=0):
    M = entry.spec
    rng = _rng(seed)
    return max(hessian_identity_residual(M, entry.field_name, p)
               for p in M.sample_points(n_points, rng))


def _scan(entry, grid=64):
    key = grid if isinstance(grid, int) else tuple(grid)
    if key not in entry.scans:
        entry.scans[key] = scan_extrema(entry.spec, entry.field_name, grid=grid)
    return entry.scans[key]


def _find_extremum(scan, kind):
    recs = [r for r in scan.records if r.kind is kind]
    if not recs:
        raise AssertionError(f"no {kind.value} found")
    return recs[0]


# ---------------------------------------------------------------------------
# Chart documents
# ---------------------------------------------------------------------------

_MINKOWSKI2 = """
[manifold]
name = minkowski2
dim = 2
coords = t, x
range.t = -5, 5
range.x = -5, 5
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "1"

[field.X]
components = "1", "0"

[field.EULER]
components = "t", "x"
"""

_MINKOWSKI4 = """
[manifold]
name = minkowski4
dim = 4
coords = t, x, y, z
range.t = -5, 5
range.x = -5, 5
range.y = -5, 5
range.z = -5, 5
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "1"
g.2.2 = "1"
g.3.3 = "1"

[field.X]
components = "1", "0", "0", "0"
"""

_ROUND_S2 = """
[manifold]
name = round_s2
dim = 2
coords = theta, phi
range.theta = 0, 3.141592653589793
range.phi = 0, 6.283185307179586
periodic = phi
signature = riemannian

[metric]
g.0.0 = "1"
g.1.1 = "sin(theta)^2"
"""

_ROUND_S3 = """
[manifold]
name = round_s3
dim = 3
coords = eta, xi1, xi2
range.eta = 0, 1.5707963267948966
range.xi1 = 0, 6.283185307179586
range.xi2 = 0, 6.283185307179586
periodic = xi1, xi2
signature = riemannian

[metric]
g.0.0 = "1"
g.1.1 = "cos(eta)^2"
g.2.2 = "sin(eta)^2"

[field.X]
components = "0", "1", "1"
"""

# round metric minus twice the square of the dual of the unit fiber field
_HOPF_LORENTZ_S3 = """
[manifold]
name = hopf_lorentz_s3
dim = 3
coords = eta, xi1, xi2
range.eta = 0, 1.5707963267948966
range.xi1 = 0, 6.283185307179586
range.xi2 = 0, 6.283185307179586
periodic = xi1, xi2
signature = lorentzian

[metric]
g.0.0 = "1"
g.1.1 = "cos(eta)^2 - 2*cos(eta)^4"
g.2.2 = "sin(eta)^2 - 2*sin(eta)^4"
g.1.2 = "-2*cos(eta)^2*sin(eta)^2"

[field.X]
components = "0", "1", "1"

[field.U]
components = "1", "0", "0"

[field.IU]
components = "0", "-(sin(eta)/cos(eta))", "cos(eta)/sin(eta)"
"""

_TORUS_FAMILY = """
[manifold]
name = torus_family
dim = 2
coords = x, y
range.x = 0, 1
range.y = 0, 1
periodic = x, y
signature = lorentzian

[metric]
g.0.1 = "1"
g.1.1 = "2*(-1 + cos(2*pi*x)/4)"

[field.X]
components = "0", "1"

[scalar.f]
expr = "-1 + cos(2*pi*x)/4"
"""

_TORUS_FAMILY_MIXED = """
[manifold]
name = torus_family_mixed
dim = 2
coords = x, y
range.x = 0, 1
range.y = 0, 1
periodic = x, y
signature = lorentzian

[metric]
g.0.1 = "1"
g.1.1 = "2*(cos(2*pi*x)/4 - 1/8)"

[field.X]
components = "0", "1"

[scalar.f]
expr = "cos(2*pi*x)/4 - 1/8"
"""

_TORUS3_NULL_VARIANT = """
[manifold]
name = torus3_null_variant
dim = 3
coords = x, y, z
range.x = -1, 1
range.y = 0, 1
range.z = 0, 1
periodic = y, z
signature = lorentzian

[metric]
g.0.1 = "1"
g.1.1 = "2*(-1 + cos(2*pi*x)/4)"
g.2.2 = "2 + sin(2*pi*z)*exp(-(x^2))"

[field.X]
components = "0", "1", "0"
"""

_CONFORMAL_COUNTEREXAMPLE = """
[manifold]
name = conformal_counterexample
dim = 2
coords = x, y
range.x = -2, 2
range.y = -2, 2
signature = lorentzian

[metric]
g.0.0 = "exp(2*(-(x^2 + 2*y^2)))"
g.1.1 = "-exp(2*(-(x^2 + 2*y^2)))"

[field.X]
components = "0", "1"

[scalar.u]
expr = "-(x^2 + 2*y^2)"
"""

_SCHWARZSCHILD = """
[manifold]
name = schwarzschild_exterior
dim = 4
coords = t, r, theta, phi
range.t = 0, 10
range.r = 2.5, 20
range.theta = 0, 3.141592653589793
range.phi = 0, 6.283185307179586
periodic = phi
signature = lorentzian

[params]
m = 1.0

[metric]
g.0.0 = "-(1 - 2*m/r)"
g.1.1 = "1/(1 - 2*m/r)"
g.2.2 = "r^2"
g.3.3 = "r^2*sin(theta)^2"

[field.X]
components = "1", "0", "0", "0"
"""

_STATIC_PRODUCT = """
[manifold]
name = static_product
dim = 3
coords = x, y, t
range.x = 0, 1
range.y = 0, 1
range.t = 0, 1
periodic = x, y, t
signature = lorentzian

[metric]
g.0.0 = "1"
g.1.1 = "1"
g.2.2 = "-1"

[field.X]
components = "0", "0", "1"
"""


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------

def _plateau_witness_value(entry, seed=3):
    """Witness value at a plateau point (every point doubles as min/max)."""
    scan = _scan(entry, grid=12)
    if not scan.plateau:
        raise AssertionError("expected a plateau chart")
    recs = scan.witness_records(entry.spec, entry.field_name)
    rep = extremum_witness(entry.spec, entry.field_name, recs[0])
    if rep.verdict is Verdict.SCOPE:
        return float("nan")
    return rep.value


def _build_minkowski2() -> CatalogEntry:
    spec = load_spec(_MINKOWSKI2, name="minkowski2")
    rows = (
        ExpectedRow("sectional_any_plane", 0.0, 1e-12, "exact",
                    lambda e: sectional_curvature(
                        e.spec, TangentPlane([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))),
        ExpectedRow("plateau_flag", "True", None, "exact",
                    lambda e: str(_scan(e, grid=12).plateau)),
        ExpectedRow("plateau_witness_value", 0.0, 1e-9, "exact",
                    _plateau_witness_value,
                    note="flat chart: equality case of the minimum-side bound"),
        ExpectedRow("classify_X", "killing", None, "exact",
                    lambda e: classify_field(e.spec, "X").tag.value),
        ExpectedRow("classify_euler", "homothetic", None, "exact",
                    lambda e: classify_field(e.spec, "EULER").tag.value),
        ExpectedRow("euler_lambda", 2.0, 1e-10, "exact",
                    lambda e: classify_field(e.spec, "EULER").lam),
    )
    return CatalogEntry("minkowski2", "flat 2d chart, signature (-,+)",
                        spec, "X", {}, rows)


def _build_minkowski4() -> CatalogEntry:
    spec = load_spec(_MINKOWSKI4, name="minkowski4")
    rows = (
        ExpectedRow("max_ricci_abs", 0.0, 1e-12, "exact", _max_ricci_abs),
        ExpectedRow("hessian_identity_residual", 0.0, 1e-7, "derived",
                    _max_hessian_identity_residual),
        ExpectedRow("classify_X", "killing", None, "exact",
                    lambda e: classify_field(e.spec, "X").tag.value),
    )
    return CatalogEntry("minkowski4", "flat 4d chart, signature (-,+,+,+)",
                        spec, "X", {}, rows)


def _build_round_s2() -> CatalogEntry:
    spec = load_spec(_ROUND_S2, name="round_s2")

    def ricci_equals_metric(e):
        rng = _rng(2)
        worst = 0.0
        for p in e.spec.sample_points(20, rng):
            ric, _ = ricci_at(e.spec, p)
            g = e.spec.metric_eval(p)
            worst = max(worst, float(np.max(np.abs(ric - g))))
        return worst

    rows = (
        ExpectedRow("sectional_deviation_from_1", 0.0, 1e-8, "derived",
                    lambda e: _max_sectional_deviation(e, 1.0)),
        ExpectedRow("scalar_curvature", 2.0, 1e-8, "derived",
                    lambda e: ricci_at(e.spec, [PI / 3, 1.0])[1]),
        ExpectedRow("ricci_equals_metric", 0.0, 1e-8, "derived",
                    ricci_equals_metric),
    )
    return CatalogEntry("round_s2", "unit round 2-sphere", spec, "", {}, rows)


def _build_round_s3() -> CatalogEntry:
    spec = load_spec(_ROUND_S3, name="round_s3")
    rows = (
        ExpectedRow("sectional_deviation_from_1", 0.0, 1e-8, "published",
                    lambda e: _max_sectional_deviation(e, 1.0),
                    note="unit round sphere has constant curvature 1"),
        ExpectedRow("fiber_field_norm", 1.0, 1e-12, "published",
                    lambda e: float(e.spec.field_eval("X", [PI / 4, 0.3, 0.8]) @
                                    e.spec.metric_eval([PI / 4, 0.3, 0.8]) @
                                    e.spec.field_eval("X", [PI / 4, 0.3, 0.8]))),
        ExpectedRow("classify_X", "killing", None, "exact",
                    lambda e: classify_field(e.spec, "X").tag.value),
    )
    return CatalogEntry("round_s3", "unit round 3-sphere in fiber coordinates",
                        spec, "X", {}, rows)


def _build_hopf_lorentz_s3() -> CatalogEntry:
    spec = load_spec(_HOPF_LORENTZ_S3, name="hopf_lorentz_s3")

    def gxx(e):
        rng = _rng(5)
        worst = 0.0
        for p in e.spec.sample_points(20, rng):
            X = e.spec.field_eval("X", p)
            g = e.spec.metric_eval(p)
            worst = max(worst, abs(float(X @ g @ X) + 1.0))
        return worst

    def horizontal_k(e):
        p = np.array([PI / 5, 0.7, 1.9])
        u = e.spec.field_eval("U", p)
        iu = e.spec.field_eval("IU", p)
        return sectional_curvature(e.spec, TangentPlane(p, u, iu))

    def inferred_base_k(e):
        p = np.array([PI / 5, 0.7, 1.9])
        g = e.spec.metric_eval(p)
        u = e.spec.field_eval("U", p)
        iu = e.spec.field_eval("IU", p)
        k = sectional_curvature(e.spec, TangentPlane(p, u, iu))
        return k - 3.0 * float(iu @ g @ iu) ** 2

    def max_skew(e):
        rng = _rng(6)
        return max(skew_adjoint_residual(e.spec, "X", p)
                   for p in e.spec.sample_points(20, rng))

    rows = (
        ExpectedRow("field_norm", -1.0 * 0.0, 1e-10, "published", gxx,
                    note="deviation of g(X,X) from -1"),
        ExpectedRow("k_planes_containing_X", 0.0, 1e-8, "published",
                    lambda e: _max_field_plane_deviation(e, -1.0),
                    note="deviation of K from -1 over planes through X"),
        ExpectedRow("k_horizontal_holomorphic", 7.0, 1e-6, "derived",
                    horizontal_k,
                    note="submersion shift: base holomorphic value 4 plus 3"),
        ExpectedRow("k_inferred_base", 4.0, 1e-6, "derived", inferred_base_k,
                    note="K minus the 3*g(iu,v)^2 shift recovers the base value"),
        ExpectedRow("max_skew_residual", 0.0, 1e-9, "published", max_skew),
        ExpectedRow("hessian_identity_residual", 0.0, 1e-7, "derived",
                    _max_hessian_identity_residual),
        ExpectedRow("classify_X", "killing", None, "published",
                    lambda e: classify_field(e.spec, "X").tag.value),
    )
    return CatalogEntry("hopf_lorentz_s3",
                        "unit 3-sphere with the metric flipped along the fiber field",
                        spec, "X", {}, rows)


def _build_torus_family() -> CatalogEntry:
    spec = load_spec(_TORUS_FAMILY, name="torus_family")
    paths = {"min_to_max": np.array([[0.5, 0.0], [0.0, 0.0]])}

    def min_x(e):
        rec = _find_extremum(_scan(e), ExtremumKind.MIN)
        return min(rec.point[0], 1.0 - rec.point[0] if rec.point[0] > 0.5 else rec.point[0])

    def max_x(e):
        rec = _find_extremum(_scan(e), ExtremumKind.MAX)
        x = rec.point[0]
        return min(x, 1.0 - x)

    def witness_k(e):
        scan = _scan(e)
        rec = _find_extremum(scan, ExtremumKind.MIN)
        return extremum_witness(e.spec, "X", rec).value

    def maxside_k(e):
        scan = _scan(e)
        rec = _find_extremum(scan, ExtremumKind.MAX)
        rep = extremum_witness(e.spec, "X", rec)
        return rep.value

    def scan_zero(e):
        pts = interpolate_path(e.paths["min_to_max"], 64)
        report = plane_sign_scan(e.spec, "X", pts, planes_per_point=4)
        z = report.first_zero()
        return z.point[0] if z is not None else float("nan")

    rows = (
        ExpectedRow("metric_at_x0_yy", -1.5, 1e-12, "derived",
                    lambda e: float(metric_at(e.spec, [0.0, 0.0])[0][1, 1])),
        ExpectedRow("causal_X", "timelike", None, "published",
                    lambda e: causal_character(
                        e.spec, e.spec.field_vector("X", [0.37, 0.2])).value),
        ExpectedRow("classify_X", "killing", None, "exact",
                    lambda e: classify_field(e.spec, "X").tag.value),
        ExpectedRow("local_min_x", 0.5, 1e-4, "derived", min_x),
        ExpectedRow("local_max_x", 0.0, 1e-4, "derived", max_x),
        ExpectedRow("f_at_min", -1.25, 1e-9, "derived",
                    lambda e: _find_extremum(_scan(e), ExtremumKind.MIN).f_value),
        ExpectedRow("witness_k_at_min", PI ** 2, 1e-4, "derived", witness_k),
        ExpectedRow("maxside_worst_k", -PI ** 2, 1e-4, "derived", maxside_k),
        ExpectedRow("sign_scan_zero_x", 0.25, 2.0 / 64, "derived", scan_zero),
        ExpectedRow("k_at_third", PI ** 2 / 2, 1e-9, "derived",
                    lambda e: sectional_curvature(
                        e.spec, TangentPlane([1.0 / 3.0, 0.0], [1.0, 0.0], [0.0, 1.0])),
                    note="curvature equals the second derivative of the profile"),
    )
    return CatalogEntry("torus_family",
                        "periodic 2d chart with null coordinate and profile 2f(x) dy^2",
                        spec, "X", paths, rows)


def _build_torus_family_mixed() -> CatalogEntry:
    spec = load_spec(_TORUS_FAMILY_MIXED, name="torus_family_mixed")
    rows = (
        ExpectedRow("causal_at_half", "timelike", None, "derived",
                    lambda e: causal_character(
                        e.spec, e.spec.field_vector("X", [0.5, 0.0])).value),
        ExpectedRow("causal_at_zero", "spacelike", None, "derived",
                    lambda e: causal_character(
                        e.spec, e.spec.field_vector("X", [0.0, 0.0])).value),
        ExpectedRow("causal_at_sixth", "lightlike", None, "derived",
                    lambda e: causal_character(
                        e.spec, e.spec.field_vector("X", [1.0 / 6.0, 0.0])).value,
                    note="profile crosses zero where cos(2 pi x) = 1/2"),
    )
    return CatalogEntry("torus_family_mixed",
                        "sign-changing profile for causal-character transitions",
                        spec, "X", {}, rows)


def _build_torus3_null_variant() -> CatalogEntry:
    spec = load_spec(_TORUS3_NULL_VARIANT, name="torus3_null_variant")

    def max_sym_residual(e):
        rng = _rng(7)
        worst = 0.0
        for p in e.spec.sample_points(20, rng):
            res = symmetry_residuals(point_geometry(e.spec, p))
            worst = max(worst, max(res.values()))
        return worst

    rows = (
        ExpectedRow("max_symmetry_residual", 0.0, 1e-8, "derived", max_sym_residual),
        ExpectedRow("classify_X", "killing", None, "exact",
                    lambda e: classify_field(e.spec, "X").tag.value),
    )
    return CatalogEntry("torus3_null_variant",
                        "3d variant with an extra h(x,z) dz^2 block",
                        spec, "X", {}, rows)


def _build_conformal_counterexample() -> CatalogEntry:
    spec = load_spec(_CONFORMAL_COUNTEREXAMPLE, name="conformal_counterexample")

    def min_point_norm(e):
        scan = _scan(e)
        rec = _find_extremum(scan, ExtremumKind.MIN)
        return float(np.linalg.norm(rec.point))

    def k_origin(e):
        return sectional_curvature(
            e.spec, TangentPlane([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))

    def k_sign_sampled(e):
        rng = _rng(8)
        worst = -math.inf
        for p in e.spec.sample_points(100, rng):
            k = sectional_curvature(e.spec, TangentPlane(p, [1.0, 0.0], [0.0, 1.0]))
            worst = max(worst, k)
        return "negative" if worst < 0 else "nonnegative"

    def _bound_report(e):
        scan = _scan(e)
        rec = _find_extremum(scan, ExtremumKind.MIN)
        return conformal_bound_check(e.spec, "X", rec)

    rows = (
        ExpectedRow("classify_X", "conformal", None, "published",
                    lambda e: classify_field(e.spec, "X").tag.value),
        ExpectedRow("min_point_norm", 0.0, 1e-4, "published", min_point_norm,
                    note="the field energy bottoms out at the origin"),
        ExpectedRow("k_at_origin", -2.0, 1e-6, "derived", k_origin),
        ExpectedRow("k_sign_sampled", "negative", None, "derived", k_sign_sampled),
        ExpectedRow("sigma_at_origin", 0.0, 1e-9, "published",
                    lambda e: _bound_report(e).sigma_at_point),
        ExpectedRow("x_sigma_at_origin", -8.0, 1e-9, "derived",
                    lambda e: _bound_report(e).x_sigma,
                    note="published reference states -4 for this derivative; the "
                         "exact tree computation gives 2*u_yy = -8 and the engine "
                         "reports the computed value"),
        ExpectedRow("bound_verdict", "PASS", None, "derived",
                    lambda e: _bound_report(e).bound_verdict.value),
        ExpectedRow("nonnegativity_verdict", "FAIL", None, "derived",
                    lambda e: _bound_report(e).nonnegativity_verdict.value,
                    note="the unconditional sign bound genuinely fails here; "
                         "matching FAIL is the expected outcome"),
    )
    return CatalogEntry("conformal_counterexample",
                        "conformally flat 2d chart where the lower bound binds",
                        spec, "X", {}, rows)


def _build_schwarzschild() -> CatalogEntry:
    spec = load_spec(_SCHWARZSCHILD, name="schwarzschild_exterior")

    def f_profile_dev(e):
        rng = _rng(9)
        m_par = e.spec.params["m"]
        fexpr = field_energy_expr(e.spec, "X")
        worst = 0.0
        for p in e.spec.sample_points(30, rng):
            r = p[1]
            worst = max(worst, abs(e.spec.evaluate(fexpr, p) - (m_par / r - 0.5)))
        return worst

    def interior_min_count(e):
        scan = _scan(e, grid=[8, 16, 8, 8])
        return float(len(scan.minima()))

    rows = (
        ExpectedRow("max_ricci_abs", 0.0, 1e-6, "published", _max_ricci_abs,
                    note="vacuum exterior"),
        ExpectedRow("f_profile_deviation", 0.0, 1e-10, "published", f_profile_dev,
                    note="energy profile m/r - 1/2"),
        ExpectedRow("interior_local_min_count", 0.0, 0.5, "derived",
                    interior_min_count),
        ExpectedRow("classify_X", "killing", None, "published",
                    lambda e: classify_field(e.spec, "X").tag.value),
    )
    return CatalogEntry("schwarzschild_exterior",
                        "static spherically symmetric vacuum exterior, mass m",
                        spec, "X", {}, rows)


def _build_static_product() -> CatalogEntry:
    spec = load_spec(_STATIC_PRODUCT, name="static_product")

    def k_planes_bound(e):
        rng = _rng(10)
        worst = 0.0
        for p in e.spec.sample_points(10, rng):
            X = e.spec.field_eval("X", p)
            w = rng.normal(size=3)
            k = sectional_curvature(e.spec, TangentPlane(p, w, X))
            worst = max(worst, abs(k))
        return worst

    def min_timelike_ricci(e):
        rng = _rng(11)
        worst = math.inf
        for p in e.spec.sample_points(10, rng):
            ric, _ = ricci_at(e.spec, p)
            v = np.array([0.1, 0.1, 1.0]) + 0.05 * rng.normal(size=3)
            worst = min(worst, float(v @ ric @ v))
        return worst

    rows = (
        ExpectedRow("max_ricci_abs", 0.0, 1e-10, "derived", _max_ricci_abs),
        ExpectedRow("k_planes_containing_X", 0.0, 1e-9, "published", k_planes_bound,
                    note="with constant warping the product is flat and every "
                         "plane through the static field has zero curvature"),
        ExpectedRow("min_timelike_ricci", 0.0, 1e-10, "published",
                    min_timelike_ricci,
                    note="convergence condition holds with equality"),
        ExpectedRow("plateau_flag", "True", None, "exact",
                    lambda e: str(_scan(e, grid=10).plateau)),
    )
    return CatalogEntry("static_product",
                        "product of a flat base with a negative-definite line factor",
                        spec, "X", {}, rows)


def _build_circle_lift_torus() -> CatalogEntry:
    base = load_spec(_TORUS_FAMILY, name="torus_family")
    c = math.sqrt(1.5)
    lift = circle_lift(base, "X", c, mode="lightlike_locus", grid=64)
    spec = lift.spec
    paths = {"across_locus": np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])}

    def locus_min_abs_x(e):
        best = math.inf
        for p in lift.lightlike_locus:
            x = p[0]
            best = min(best, min(abs(x), abs(1.0 - x)))
        return best

    def max_energy(e):
        return lift.max_gxx + c * c

    def _null_witness(e):
        scan = _scan(e, grid=[32, 8, 8])
        for rec in scan.maxima():
            if rec.causal is CausalCharacter.LIGHTLIKE:
                return extremum_witness(e.spec, "Xbar", rec)
        raise AssertionError("no lightlike maximum found")

    def null_witness_value(e):
        return _null_witness(e).value

    def null_witness_verdict(e):
        return _null_witness(e).verdict.value

    rows = (
        ExpectedRow("classify_Xbar", "killing", None, "published",
                    lambda e: classify_field(e.spec, "Xbar").tag.value),
        ExpectedRow("causal_everywhere", "True", None, "derived",
                    lambda e: str(lift.causal_everywhere)),
        ExpectedRow("max_lifted_energy", 0.0, 1e-9, "derived", max_energy,
                    note="the lift is lightlike exactly where g(X,X) peaks"),
        ExpectedRow("lightlike_locus_x", 0.0, 1e-6, "derived", locus_min_abs_x),
        ExpectedRow("null_witness_value", 1.5 * PI ** 2, 1e-6, "derived",
                    null_witness_value,
                    note="closed form -c^2 f''(0) = +1.5 pi^2; the locus is the "
                         "energy maximum, so the null curvature there is "
                         "nonnegative, not nonpositive"),
        ExpectedRow("null_witness_verdict", "PASS", None, "derived",
                    null_witness_verdict,
                    note="maximum-side inequality K_X >= 0"),
        ExpectedRow("hessian_identity_residual", 0.0, 1e-7, "derived",
                    lambda e: max(
                        hessian_identity_residual(e.spec, "Xbar", p)
                        for p in e.spec.sample_points(20, _rng(12)))),
    )
    return CatalogEntry("circle_lift_torus",
                        "torus_family with a flat circle factor and lifted field",
                        spec, "Xbar", paths, rows)


_BUILDERS = {
    "minkowski2": _build_minkowski2,
    "minkowski4": _build_minkowski4,
    "round_s2": _build_round_s2,
    "round_s3": _build_round_s3,
    "hopf_lorentz_s3": _build_hopf_lorentz_s3,
    "torus_family": _build_torus_family,
    "torus_family_mixed": _build_torus_family_mixed,
    "torus3_null_variant": _build_torus3_null_variant,
    "conformal_counterexample": _build_conformal_counterexample,
    "schwarzschild_exterior": _build_schwarzschild,
    "static_product": _build_static_product,
    "circle_lift_torus": _build_circle_lift_torus,
}


def list_examples() -> list[str]:
    return sorted(_BUILDERS)


def build_example(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry '{name}'; "
                       f"available: {', '.join(list_examples())}") from None
    return builder()
