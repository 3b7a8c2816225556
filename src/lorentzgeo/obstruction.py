"""Witness-level machinery for curvature sign obstructions.

Given a chart and a causal field X, this module locates extrema of the
energy f = g(X,X)/2 on a grid (with Newton refinement),
constructs the witness plane at a causal extremum from the kernel of
the restricted skew operator, or at a timelike maximum takes the exact
largest curvature over every plane through X, scans plane families
along paths for curvature sign changes, checks the conformal lower
bound at critical points of conformal fields, and builds two derived
charts: the Lorentzian flip of a Riemannian metric along a nowhere-zero
Killing field, and the circle lift that appends a flat periodic
coordinate to trade a timelike field for a merely causal one.

Every curvature of a plane through X is cᵀJc of one Jacobi form J on
the X-perp frame (:func:`_jacobi_on_frame`): the witness reads it at the
kernel direction or takes its top eigenvalue, the sign scan on sampled c_k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .curvature import (
    ScalarDerivs,
    causal_character,
    energy_derivs,
    jacobi_form,
    point_geometry,
)
from .manifold import (
    BOUNDARY_COLLAR,
    SAMPLING_COLLAR,
    CausalCharacter,
    Coordinate,
    ManifoldSpec,
    TangentPlane,
    metric_pairing_expr,
    validate_signature,
)
from .symmetry import (
    ConformalFactor,
    FieldClass,
    FieldTag,
    RestrictedOperator,
    classify_field,
    kernel_direction,
    lie_derivative_metric_exprs,
    orthogonal_complement_basis,
    restricted_operator,
)

WITNESS_TOL = 1e-6
PLATEAU_BAND = 1e-10
PLATEAU_FRACTION = 0.9
CONFORMAL_TOL = 1e-9      # slack of the conformal bound and of sigma(p0) ~ 0
FLIP_SAMPLES = 30         # sampled points checked by lorentzianize
FLIP_TOL = 1e-8           # relative residual of its pre- and postconditions
LIFT_TOL = 1e-6           # relative slack of c^2 = -max g(X,X) in circle_lift
LIFTED_FIELD = "Xbar"     # the lifted field's name on the circle lift

_TINY = 1e-300
_NEWTON_STEPS = 8     # from a grid node Newton reaches float precision in 1-3


class ExtremumKind(enum.Enum):
    MIN = "local_min"
    MAX = "local_max"
    SADDLE = "saddle"


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SCOPE = "SCOPE"


@dataclass(frozen=True)
class ExtremumRecord:
    point: np.ndarray
    f_value: float
    kind: ExtremumKind
    causal: CausalCharacter
    hessian_eigs: tuple[float, ...]

    @property
    def eig_signs(self) -> tuple[int, ...]:
        tol = 1e-7 * max(1.0, max(abs(e) for e in self.hessian_eigs))
        return tuple(0 if abs(e) <= tol else (1 if e > 0 else -1)
                     for e in self.hessian_eigs)


@dataclass(frozen=True)
class ScanResult:
    records: tuple[ExtremumRecord, ...]
    plateau: bool
    f_min: float
    f_max: float
    plateau_points: tuple[np.ndarray, ...] = ()

    def minima(self):
        return [r for r in self.records if r.kind is ExtremumKind.MIN]

    def maxima(self):
        return [r for r in self.records if r.kind is ExtremumKind.MAX]

    def witness_records(self, M: ManifoldSpec, xname: str):
        """Records to feed the witness machinery.  On a plateau every
        sampled point counts as both a minimum and a maximum."""
        if not self.plateau:
            return list(self.records)
        out = []
        for p in self.plateau_points:
            for kind in (ExtremumKind.MIN, ExtremumKind.MAX):
                out.append(_make_record(M, xname, p, kind))
        return out


def _make_record(M: ManifoldSpec, xname: str, p, kind: ExtremumKind) -> ExtremumRecord:
    f_derivs = energy_derivs(M, xname)
    p = M.wrap_point(p)
    hess = f_derivs.covariant_hessian(p)
    eigs = tuple(float(w) for w in np.linalg.eigvalsh(hess))
    cc = causal_character(M, p, M.field_eval(xname, p))
    return ExtremumRecord(point=p, f_value=f_derivs.value(p), kind=kind,
                          causal=cc, hessian_eigs=eigs)


# ---------------------------------------------------------------------------
# Grid scan with Newton refinement
# ---------------------------------------------------------------------------

def _grid_axes(M: ManifoldSpec, per_axis: list[int], collar: float) -> list[np.ndarray]:
    axes = []
    for c, n in zip(M.coords, per_axis):
        if c.periodic:
            axes.append(np.linspace(c.lo, c.hi, n, endpoint=False))
        else:
            axes.append(np.linspace(c.lo + collar, c.hi - collar, n))
    return axes


def _grid_points(axes: list[np.ndarray]) -> np.ndarray:
    """Grid nodes as an (N, m) array, in C order of the grid indices."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _refine(M: ManifoldSpec, fd: ScalarDerivs, p0: np.ndarray,
            spacings: np.ndarray) -> np.ndarray:
    """Newton steps on grad f = 0 from the grid node p0, on the exact
    gradient and coordinate-Hessian trees.

    The step is the least-squares solution, so a singular Hessian (an
    extremum that is a whole curve or torus of points) moves only across
    the critical set.  A step is kept only if it is finite, stays within
    a grid spacing of p0 on every axis and shrinks |grad f|; the first
    refused step ends the refinement."""
    lo = np.array([-np.inf if c.periodic else c.lo + BOUNDARY_COLLAR for c in M.coords])
    hi = np.array([np.inf if c.periodic else c.hi - BOUNDARY_COLLAR for c in M.coords])
    p = p0
    grad = fd.gradient(p)
    norm = float(np.linalg.norm(grad))
    for _ in range(_NEWTON_STEPS):
        if norm == 0.0:
            break
        step = np.linalg.lstsq(fd.coordinate_hessian(p), -grad, rcond=None)[0]
        trial = np.clip(p + step, lo, hi)
        if not np.all(np.isfinite(trial)):
            break
        trial = M.wrap_point(trial)
        if not _box_adjacent(M, spacings, trial, p0):
            break
        trial_grad = fd.gradient(trial)
        trial_norm = float(np.linalg.norm(trial_grad))
        if not trial_norm < norm:
            break
        p, grad, norm = trial, trial_grad, trial_norm
    return p


# Candidates per block of the pairwise adjacency test, so that a chart
# with many tied grid nodes cannot ask for an n-by-n array at once.
_PAIR_BLOCK = 1 << 20


def _box_adjacent(M: ManifoldSpec, spacings: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Whether points a and b (broadcasting over leading axes) lie within
    1.01 grid spacings of each other on every axis, periodic axes wrapped."""
    period = np.array([c.period if c.periodic else np.inf for c in M.coords])
    d = np.abs(a - b)
    d = np.minimum(d, period - d)
    return np.all(d <= 1.01 * spacings, axis=-1)


def _cluster_representatives(M: ManifoldSpec, spacings: np.ndarray,
                             values: np.ndarray, points: np.ndarray) -> list[np.ndarray]:
    """Merge grid-adjacent candidates (tie plateaus and ridges refine to
    the same extremum); keep the best point of each cluster, lowest value
    first and then lowest point, and return them sorted by point."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows = max(1, _PAIR_BLOCK // max(1, n * M.dim))
    for lo in range(0, n, rows):
        adj = _box_adjacent(M, spacings, points[lo:lo + rows, None, :], points[None, :, :])
        for i, j in zip(*np.nonzero(adj)):
            parent[find(lo + i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    reps = []
    for members in clusters.values():
        best = min(members, key=lambda i: (values[i], tuple(points[i])))
        reps.append(points[best])
    reps.sort(key=tuple)
    return reps


def scan_extrema(M: ManifoldSpec, xname: str, grid: int | list[int] = 64,
                 collar: float = SAMPLING_COLLAR) -> ScanResult:
    """Grid-scan f = g(X,X)/2, refine local-neighbor candidates by
    Newton steps on the exact derivative trees of f, and classify them
    by the eigenvalues of the covariant Hessian.

    Non-periodic boundary slices never become candidates; plateau charts
    (>=90% of grid values tying within 1e-10) are flagged instead of
    producing spurious extremum records.
    """
    per_axis = [grid] * M.dim if isinstance(grid, int) else list(grid)
    if any(n < 8 for n in per_axis):
        raise ValueError("grid resolution must be at least 8 per axis")
    fd = energy_derivs(M, xname)
    axes = _grid_axes(M, per_axis, collar)
    shape = tuple(len(a) for a in axes)
    nodes = _grid_points(axes)
    F = M.evaluate_points(fd.expr, nodes).reshape(shape)
    nodes = nodes.reshape(shape + (M.dim,))

    f_min, f_max = float(F.min()), float(F.max())
    med = float(np.median(F))
    plateau = bool(np.mean(np.abs(F - med) <= PLATEAU_BAND) >= PLATEAU_FRACTION)
    if plateau:
        rng = np.random.default_rng(1)
        pts = tuple(M.wrap_point(p) for p in M.sample_points(8, rng, collar))
        return ScanResult(records=(), plateau=True, f_min=f_min, f_max=f_max,
                          plateau_points=pts)

    tie = 1e-12 * max(1.0, abs(f_min), abs(f_max))
    min_mask = np.ones(shape, dtype=bool)
    max_mask = np.ones(shape, dtype=bool)
    for a in range(M.dim):
        for shift in (1, -1):
            nb = np.roll(F, shift, axis=a)
            min_mask &= F <= nb + tie
            max_mask &= F >= nb - tie
        if not M.coords[a].periodic:
            sl = [slice(None)] * M.dim
            for edge in (0, -1):
                sl[a] = edge
                min_mask[tuple(sl)] = False
                max_mask[tuple(sl)] = False

    spacings = np.array([(axes[a][1] - axes[a][0]) if len(axes[a]) > 1 else 1.0
                         for a in range(M.dim)])

    records: list[ExtremumRecord] = []
    for mask, kind, sense in ((min_mask, ExtremumKind.MIN, 1.0),
                              (max_mask, ExtremumKind.MAX, -1.0)):
        for p in _cluster_representatives(M, spacings, sense * F[mask], nodes[mask]):
            refined = _refine(M, fd, p, spacings)
            rec = _make_record(M, xname, refined, kind)
            if -sense in rec.eig_signs:     # f falls (min) or rises (max) somewhere
                rec = replace(rec, kind=ExtremumKind.SADDLE)
            if not any(r.kind is rec.kind
                       and _box_adjacent(M, spacings, r.point, rec.point)
                       for r in records):
                records.append(rec)

    return ScanResult(records=tuple(records), plateau=False, f_min=f_min,
                      f_max=f_max)


# ---------------------------------------------------------------------------
# Witness construction at causal extrema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a witness check at one extremum of f = g(X,X)/2."""

    extremum: ExtremumRecord
    field: str
    verdict: Verdict
    case: str | None = None                 # "timelike_even" / "lightlike_odd"
    plane: TangentPlane | None = None
    curvature_kind: str | None = None       # "sectional" / "null_sectional"
    value: float | None = None
    inequality: str | None = None           # ">= 0" / "<= 0"
    scope_reason: str | None = None
    kernel_residual: float | None = None
    invariance_residual: float | None = None


def _jacobi_on_frame(M: ManifoldSpec, p, X: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """J_X on the g-orthonormal rows B of ``basis``: span{cB, X} of a unit
    c has curvature cᵀJc.  m-1 rows span X-perp of a timelike X, where
    Q = g(X,X), so cᵀJc is the sectional curvature; m-2 rows represent
    X-perp/X of a lightlike X, and cᵀJc = g(R(v,X)X,v)/g(v,v) is the
    null sectional curvature."""
    geo = point_geometry(M, p)
    J = basis @ jacobi_form(geo, X) @ basis.T
    if len(basis) == M.dim - 1:
        J = J / float(X @ geo.metric @ X)
    return J


def _kernel_plane(M: ManifoldSpec, xname: str,
                  p) -> tuple[RestrictedOperator, np.ndarray, np.ndarray, float]:
    """The restricted operator at p, the Jacobi form J on its basis, the
    kernel direction c of the operator (plane span{c·basis, X}, curvature
    cᵀJc), and |op c| relative to |op| (absolute when op is ~0).  Every
    caller's operator has odd dimension, so c exists."""
    op = restricted_operator(M, xname, p)
    kv = kernel_direction(op.matrix)
    opn = float(np.linalg.norm(op.matrix, 2))
    res = float(np.linalg.norm(op.matrix @ kv))
    J = _jacobi_on_frame(M, p, M.field_eval(xname, p), op.basis)
    return op, J, kv, res / opn if opn > 1e-10 else res


def extremum_witness(M: ManifoldSpec, xname: str, record: ExtremumRecord,
                     tol: float = WITNESS_TOL,
                     classification: FieldClass | None = None) -> WitnessReport:
    """Build the witness plane at a causal extremum and test the forced
    curvature sign.

    At a local minimum: timelike X on an even-dimensional chart forces a
    plane through X with sectional curvature >= 0; lightlike X on an
    odd-dimensional chart forces a degenerate plane through X with null
    sectional curvature <= 0.  At a local maximum the inequalities
    reverse.  For timelike X every plane through X must then have
    K <= 0, and the report gives the exact largest K over all of them:
    the top eigenvalue of the Jacobi form J of :func:`_jacobi_on_frame`,
    with the plane of its eigenvector; every other value is cᵀJc at the
    kernel direction c.  Parity or causality mismatches are reported as
    out-of-scope, never raised.

    For a causal field f <= 0 everywhere, so every lightlike point has
    f = 0 and is a global maximum of f: the paper's causal,
    odd-dimensional statement is the maximum-side branch K_X >= 0.  The
    lightlike-minimum branch serves only non-causal homothetic fields.
    """
    if classification is None:
        classification = classify_field(M, xname)
    base = dict(extremum=record, field=xname)

    def scope(reason: str) -> WitnessReport:
        return WitnessReport(verdict=Verdict.SCOPE, scope_reason=reason, **base)

    if not classification.is_homothetic_or_killing:
        return scope(f"field classifies as {classification.tag.value}; "
                     "the witness construction needs a homothetic field")
    if record.kind is ExtremumKind.SADDLE:
        return scope("saddle points are recorded but are not witness hypotheses")

    p = record.point
    cc = record.causal
    m = M.dim
    X = M.field_eval(xname, p)

    if cc is CausalCharacter.ZERO:
        return scope("field vanishes at the extremum")
    if cc is CausalCharacter.SPACELIKE:
        return scope("field is spacelike at the extremum; a causal vector is required")

    if cc is CausalCharacter.TIMELIKE and m % 2 != 0:
        return scope(f"timelike extremum needs even dimension, chart has m={m}")
    if cc is CausalCharacter.LIGHTLIKE and m % 2 != 1:
        return scope(f"lightlike extremum needs odd dimension, chart has m={m}")

    minimum = record.kind is ExtremumKind.MIN
    op, J, kv, kres = _kernel_plane(M, xname, p)
    k_val = float(kv @ J @ kv)
    if cc is CausalCharacter.TIMELIKE:
        case, curvature_kind, nonnegative = "timelike_even", "sectional", minimum
        if not minimum:
            ks, vecs = np.linalg.eigh(J)
            top = int(np.argmax(ks))      # ties keep the first basis plane
            k_val, kv = float(ks[top]), vecs[:, top]
    else:
        case, curvature_kind, nonnegative = "lightlike_odd", "null_sectional", not minimum
    ok = k_val >= -tol if nonnegative else k_val <= tol
    return WitnessReport(verdict=Verdict.PASS if ok else Verdict.FAIL, case=case,
                         plane=TangentPlane(p, kv @ op.basis, X),
                         curvature_kind=curvature_kind, value=k_val,
                         inequality=">= 0" if nonnegative else "<= 0", kernel_residual=kres,
                         invariance_residual=op.invariance_residual, **base)


# ---------------------------------------------------------------------------
# Sign scan along a path of plane families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointScan:
    point: np.ndarray
    causal: CausalCharacter
    curvature_kind: str                      # "sectional" / "null_sectional"
    values: tuple[float, ...]                # one entry per sampled plane


@dataclass(frozen=True)
class ScanZero:
    path_param: float                        # fractional index along the path
    point: np.ndarray
    plane_index: int


@dataclass(frozen=True)
class SignScanReport:
    scans: tuple[PointScan, ...]
    zeros: tuple[ScanZero, ...]
    sign_change: bool
    k_min: float
    k_max: float

    def first_zero(self) -> ScanZero | None:
        return self.zeros[0] if self.zeros else None


def interpolate_path(waypoints, steps: int) -> np.ndarray:
    """Piecewise-linear chart path through the waypoints with ``steps``
    segments in total (steps+1 points)."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim != 2 or len(wp) < 2:
        raise ValueError("need at least two waypoints")
    seg_lengths = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    total = float(seg_lengths.sum())
    if total == 0.0:
        raise ValueError("degenerate path")
    ts = np.linspace(0.0, total, steps + 1)
    cum = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    points = []
    for t in ts:
        s = min(int(np.searchsorted(cum, t, side="right")) - 1, len(wp) - 2)
        local = (t - cum[s]) / max(seg_lengths[s], _TINY)
        points.append(wp[s] + local * (wp[s + 1] - wp[s]))
    return np.array(points)


def plane_sign_scan(M: ManifoldSpec, xname: str, points,
                    planes_per_point: int = 32) -> SignScanReport:
    """Sample plane families containing X along the path and locate
    curvature zeros / sign changes.

    X must stay causal along the path.  The k-th value at a point is
    c_kᵀJc_k of :func:`_jacobi_on_frame` on the X-perp basis: sectional
    at timelike points, null sectional at lightlike ones.  c_k is e_0 on
    a 1-row frame, else e_q turned towards e_{q+1} by pi k /
    planes_per_point, q = k mod (d-1).  A lightlike X in dimension 2 has
    no degenerate plane through it and is refused.
    """
    points = np.asarray(points, dtype=float)
    scans: list[PointScan] = []
    for p in points:
        p = M.wrap_point(p)
        X = M.field_eval(xname, p)
        cc = causal_character(M, p, X)
        if cc is CausalCharacter.ZERO:
            raise ValueError(f"field vanishes on the path at {p.tolist()}")
        if cc is CausalCharacter.SPACELIKE:
            raise ValueError(f"field is spacelike on the path at {p.tolist()}; "
                             "the scan requires a causal field")
        basis = orthogonal_complement_basis(M, xname, p)
        d = len(basis)
        if d == 0:
            raise ValueError(f"field is lightlike on the path at {p.tolist()} on a "
                             "2-dimensional chart; no degenerate plane contains it")
        J = _jacobi_on_frame(M, p, X, basis)
        cs = np.zeros((planes_per_point, d))
        for k, c in enumerate(cs):
            if d == 1:
                c[0] = 1.0
            else:
                alpha, q = math.pi * k / planes_per_point, k % (d - 1)
                c[q], c[q + 1] = math.cos(alpha), math.sin(alpha)
        kind = "sectional" if cc is CausalCharacter.TIMELIKE else "null_sectional"
        scans.append(PointScan(p, cc, kind, tuple(float(c @ J @ c) for c in cs)))

    n_pts = len(scans)
    k_all = [v for s in scans for v in s.values]
    k_min, k_max = min(k_all), max(k_all)
    ztol = 1e-9 * max(abs(k_min), abs(k_max), 1e-30)

    zeros: list[ScanZero] = []
    for j in range(planes_per_point):
        trace = [s.values[j] for s in scans]
        for i, val in enumerate(trace):
            if abs(val) <= ztol:
                zeros.append(ScanZero(float(i), scans[i].point, j))
        for i in range(n_pts - 1):
            a, b = trace[i], trace[i + 1]
            if abs(a) <= ztol or abs(b) <= ztol:
                continue
            if a * b < 0:
                t = a / (a - b)
                pt = scans[i].point + t * (scans[i + 1].point - scans[i].point)
                zeros.append(ScanZero(i + t, pt, j))
    zeros.sort(key=lambda z: (z.path_param, z.plane_index))
    return SignScanReport(scans=tuple(scans), zeros=tuple(zeros),
                          sign_change=bool(zeros), k_min=k_min, k_max=k_max)


# ---------------------------------------------------------------------------
# Conformal lower bound at critical points of conformal fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalBoundReport:
    point: np.ndarray
    field: str
    sigma_at_point: float
    x_sigma: float
    bound: float
    curvature: float
    plane: TangentPlane
    bound_verdict: Verdict                   # K >= bound/2-style lower bound
    nonnegativity_verdict: Verdict           # the unconditional K >= 0 check
    kernel_residual: float


def conformal_bound_check(M: ManifoldSpec, xname: str, record: ExtremumRecord,
                          classification: FieldClass | None = None,
                          ) -> ConformalBoundReport:
    """At a critical point p0 of f with X timelike and L_X g = sigma*g,
    verify sigma(p0) ~ 0, build the kernel witness plane, and compare
    K(plane) against the lower bound X(sigma)/2 * (-g(X,X))^{-1}.

    Killing and homothetic fields are accepted as the sigma == const
    sub-cases; the bound then degenerates to the plain K >= 0 check.
    """
    if classification is None:
        classification = classify_field(M, xname)
    if classification.tag is FieldTag.NONE:
        raise ValueError("field does not classify as conformal within tolerance")
    if M.dim % 2 != 0:
        raise ValueError("the conformal bound construction needs even dimension")
    p = record.point
    if record.causal is not CausalCharacter.TIMELIKE:
        raise ValueError(f"field must be timelike at the critical point, "
                         f"got {record.causal.value}")

    cf = ConformalFactor(M, xname)
    sigma0 = cf.sigma(p)
    if abs(sigma0) > CONFORMAL_TOL:
        raise ValueError(
            f"sigma({p.tolist()}) = {sigma0:.3e} is not ~0; the point is not "
            "critical for f or the field is misclassified")

    op, J, kv, kres = _kernel_plane(M, xname, p)
    k_val = float(kv @ J @ kv)

    xs = cf.x_sigma(p)
    X = M.field_eval(xname, p)
    gxx = float(X @ point_geometry(M, p).metric @ X)
    bound = 0.5 * xs / (-gxx)
    return ConformalBoundReport(
        point=p, field=xname, sigma_at_point=sigma0, x_sigma=xs, bound=bound,
        curvature=k_val, plane=TangentPlane(p, kv @ op.basis, X),
        bound_verdict=Verdict.PASS if k_val >= bound - CONFORMAL_TOL else Verdict.FAIL,
        nonnegativity_verdict=Verdict.PASS if k_val >= -CONFORMAL_TOL else Verdict.FAIL,
        kernel_residual=kres)


# ---------------------------------------------------------------------------
# Derived charts: Lorentzian flip and circle lift
# ---------------------------------------------------------------------------

class LorentzianizeError(ValueError):
    pass


def _first_failure(pts: np.ndarray, *checks) -> None:
    """Raise the message of the first failed (ok, message) check at the
    first sample failing any: what a point-by-point loop reports."""
    for k, p in enumerate(pts):
        for ok, message in checks:
            if not ok[k]:
                raise LorentzianizeError(message.format(p.tolist()))


def lorentzianize(M: ManifoldSpec, xname: str, *,
                  check_riemannian: bool = True) -> ManifoldSpec:
    """Flip g := g_R - (2/g_R(X,X)) w (x) w with w the g_R-dual of X.

    For a Riemannian input with nowhere-zero Killing X this produces a
    Lorentzian chart on which X is timelike with g(X,X) = -g_R(X,X),
    g agrees with g_R on the complement of X, and X stays Killing; these
    postconditions are verified by sampling.  ``check_riemannian=False``
    skips the input checks so the flip can be applied twice (the flip is
    an involution).
    """
    m = M.dim
    X = M.fields[xname]
    omega = []
    for i in range(m):
        acc = ex.ZERO
        for j in range(m):
            acc = ex.add(acc, ex.mul(M.metric[i][j], X[j]))
        omega.append(acc)
    q = metric_pairing_expr(M, xname, xname)
    new_metric = [[ex.sub(M.metric[i][j],
                          ex.div(ex.mul(ex.Const(2.0), ex.mul(omega[i], omega[j])), q))
                   for j in range(m)] for i in range(m)]
    new_signature = "lorentzian" if M.signature == "riemannian" else "riemannian"

    flipped = ManifoldSpec(name=f"{M.name}_flip", coords=M.coords,
                           signature=new_signature, metric=new_metric,
                           params=M.params, fields=M.fields, scalars=M.scalars)

    if check_riemannian:
        if M.signature != "riemannian":
            raise LorentzianizeError("input chart must be Riemannian")
        pts = M.sample_points(FLIP_SAMPLES, np.random.default_rng(0))
        g = M.evaluate_symmetric(M.metric, pts)
        Xs = np.stack([M.evaluate_points(c, pts) for c in X], axis=1)
        gX = np.einsum("nij,nj->ni", g, Xs)
        qs = np.einsum("ni,ni->n", Xs, gX)
        scales = np.maximum(np.max(np.abs(g), axis=(1, 2)), 1.0)
        definite = np.all(np.linalg.eigvalsh(g) > 0, axis=1)
        L = M.evaluate_symmetric(lie_derivative_metric_exprs(M, xname), pts)
        killing = np.max(np.abs(L), axis=(1, 2)) <= FLIP_TOL * scales
        _first_failure(pts, (definite, "input metric not positive definite at {}"),
                       (qs > 0, "field vanishes (or is degenerate) at {}"),
                       (killing, "field is not Killing for the input metric (residual at {})"))
        gn = flipped.evaluate_symmetric(flipped.metric, pts)
        flip_ok = np.abs(np.einsum("ni,nij,nj->n", Xs, gn, Xs) + qs) <= FLIP_TOL * scales
        # rows w_i = e_i - (g(e_i,X)/g(X,X)) X span X-perp
        W = np.eye(m) - gX[:, :, None] * Xs[:, None, :] / qs[:, None, None]
        perp = W @ (gn - g) @ W.transpose(0, 2, 1)
        perp_ok = np.max(np.abs(perp), axis=(1, 2)) <= FLIP_TOL * scales
        Ln = flipped.evaluate_symmetric(lie_derivative_metric_exprs(flipped, xname), pts)
        killing = np.max(np.abs(Ln), axis=(1, 2)) <= 10 * FLIP_TOL * scales
        _first_failure(pts, (flip_ok, "flip postcondition g(X,X) = -g_R(X,X) failed"),
                       (perp_ok, "flip postcondition g = g_R on X-perp failed"),
                       (killing, "field is not Killing for the flipped metric"))
        validate_signature(flipped, samples=FLIP_SAMPLES, seed=0)
    return flipped


class LiftError(ValueError):
    pass


@dataclass(frozen=True)
class LiftResult:
    spec: ManifoldSpec
    field: str                               # name of the lifted field
    c: float
    max_gxx: float
    min_gxx: float
    causal_everywhere: bool
    nowhere_timelike: bool
    lightlike_locus: tuple[np.ndarray, ...]  # grid points where the lift is null


def circle_lift(M: ManifoldSpec, xname: str, c: float, *,
                mode: str = "lightlike_locus", grid: int = 48) -> LiftResult:
    """Append a flat periodic coordinate and lift X to X + c*e_theta on
    (M x S^1, g + dtheta^2).  The lifted field is named ``LIFTED_FIELD``;
    the new coordinate is ``theta``, or ``theta1``, ``theta2``, ... when
    that name is taken.

    In ``lightlike_locus`` mode c^2 must equal -max g(X,X) over the scan
    grid (within tolerance), so the lifted field is causal everywhere
    and lightlike exactly on the locus where g(X,X) attains its maximum.
    ``general`` mode accepts any c > 0 and simply reports the causal
    status.  X must be Killing for the base metric.
    """
    if not (math.isfinite(c) and c > 0):
        raise LiftError(f"lift constant c must be positive and finite, got {c!r}")
    cls = classify_field(M, xname)
    if cls.tag is not FieldTag.KILLING:
        raise LiftError(f"field must be Killing for the base metric, "
                        f"classifies as {cls.tag.value}")

    gxx_expr = metric_pairing_expr(M, xname, xname)
    nodes = _grid_points(_grid_axes(M, [grid] * M.dim, SAMPLING_COLLAR))
    values = M.evaluate_points(gxx_expr, nodes)
    max_gxx, min_gxx = float(values.max()), float(values.min())

    c2 = c * c
    scale = max(1.0, abs(max_gxx), abs(min_gxx))
    if mode == "lightlike_locus":
        if abs(c2 + max_gxx) > LIFT_TOL * scale:
            raise LiftError(
                f"lightlike-locus lift needs c^2 = -max g(X,X) = {-max_gxx!r}, "
                f"got c^2 = {c2!r}")
    elif mode != "general":
        raise LiftError(f"unknown lift mode '{mode}'")

    causal_everywhere = c2 <= -max_gxx + LIFT_TOL * scale
    nowhere_timelike = c2 >= -min_gxx - LIFT_TOL * scale
    locus = tuple(np.append(p, 0.0) for val, p in zip(values, nodes)
                  if abs(val + c2) <= 1e-9 * scale)

    theta_name = "theta"
    taken = set(M.coord_names()) | set(M.params)
    k = 1
    while theta_name in taken:
        theta_name = f"theta{k}"
        k += 1
    m = M.dim
    coords = list(M.coords) + [Coordinate(theta_name, 0.0, 2 * math.pi, True)]
    new_metric = [[ex.ZERO] * (m + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(m):
            new_metric[i][j] = M.metric[i][j]
    new_metric[m][m] = ex.ONE
    fields = {name: list(comps) + [ex.ZERO] for name, comps in M.fields.items()}
    fields[LIFTED_FIELD] = list(M.fields[xname]) + [ex.Const(c)]
    lifted = ManifoldSpec(name=f"{M.name}_lift", coords=coords,
                          signature=M.signature, metric=new_metric,
                          params=M.params, fields=fields, scalars=M.scalars)
    return LiftResult(spec=lifted, field=LIFTED_FIELD, c=c, max_gxx=max_gxx,
                      min_gxx=min_gxx, causal_everywhere=causal_everywhere,
                      nowhere_timelike=nowhere_timelike, lightlike_locus=locus[:64])
