"""Witness-level machinery for curvature sign obstructions.

Given a chart and a causal field X, this module locates extrema of the
energy f = g(X,X)/2 on a grid (with Newton refinement),
constructs the witness plane at a causal extremum from the kernel of
the restricted skew operator, scans plane families along paths for
curvature sign changes, checks the conformal lower bound at critical
points of conformal fields, and builds two derived charts: the
Lorentzian flip of a Riemannian metric along a nowhere-zero Killing
field, and the circle lift that appends a flat periodic coordinate to
trade a timelike field for a merely causal one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .curvature import (
    ScalarDerivs,
    energy_derivs,
    hessian_scalar_at,
    null_sectional_curvature,
    point_geometry,
    sectional_curvature,
    sectional_numerator,
)
from .manifold import (
    BOUNDARY_COLLAR,
    SAMPLING_COLLAR,
    CausalCharacter,
    Coordinate,
    ManifoldSpec,
    TangentPlane,
    TangentVector,
    causal_character,
    metric_pairing_expr,
    plane_discriminant,
    validate_signature,
)
from .symmetry import (
    ConformalFactor,
    FieldClass,
    FieldTag,
    classify_field,
    kernel_direction,
    lie_derivative_metric_at,
    orthogonal_complement_basis,
    restricted_operator,
)

WITNESS_TOL = 1e-6
PLATEAU_BAND = 1e-10
PLATEAU_FRACTION = 0.9

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
    hess = hessian_scalar_at(M, f_derivs.expr, p, derivs=f_derivs)
    eigs = tuple(float(w) for w in np.linalg.eigvalsh(hess))
    cc = causal_character(M, M.field_vector(xname, p), geo=point_geometry(M, p))
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
    tolerance: float = WITNESS_TOL
    scope_reason: str | None = None
    kernel_residual: float | None = None
    invariance_residual: float | None = None
    lam: float | None = None
    sampled_values: tuple[float, ...] = ()


def _kernel_residual(matrix: np.ndarray, kv: np.ndarray) -> float:
    """|op v| relative to |op|, absolute when the operator is ~0."""
    opn = float(np.linalg.norm(matrix, 2))
    res = float(np.linalg.norm(matrix @ kv))
    return res / opn if opn > 1e-10 else res


def sample_planes_containing(M: ManifoldSpec, xname: str, p,
                             count: int = 32) -> list[TangentPlane]:
    """Planes span{X, v} with v rotating through an orthonormal frame of
    the spacelike complement of a timelike X."""
    p = M.wrap_point(p)
    X = M.field_eval(xname, p)
    basis = orthogonal_complement_basis(M, xname, p, quotient=False)
    d = len(basis)
    planes = []
    for k in range(count):
        if d == 1:
            v = basis[0]
        else:
            alpha = math.pi * k / count
            q = k % (d - 1)
            v = math.cos(alpha) * basis[q] + math.sin(alpha) * basis[q + 1]
        planes.append(TangentPlane(p, v, X))
    return planes


def extremum_witness(M: ManifoldSpec, xname: str, record: ExtremumRecord,
                     tol: float = WITNESS_TOL, planes: int = 32,
                     classification: FieldClass | None = None) -> WitnessReport:
    """Build the witness plane at a causal extremum and test the forced
    curvature sign.

    At a local minimum: timelike X on an even-dimensional chart forces a
    plane through X with sectional curvature >= 0; lightlike X on an
    odd-dimensional chart forces a degenerate plane through X with null
    sectional curvature <= 0.  At a local maximum the inequalities
    reverse (for the timelike case the check runs over sampled planes,
    all of which must satisfy K <= 0).  Parity or causality mismatches
    are reported as out-of-scope, never raised.

    For a causal field f <= 0 everywhere, so every lightlike point has
    f = 0 and is a global maximum of f: the paper's causal,
    odd-dimensional statement is the maximum-side branch K_X >= 0.  The
    lightlike-minimum branch serves only non-causal homothetic fields.
    """
    if classification is None:
        classification = classify_field(M, xname)
    base = dict(extremum=record, field=xname, tolerance=tol,
                lam=classification.lam)

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

    if cc is CausalCharacter.TIMELIKE:
        op = restricted_operator(M, xname, p, mode="orthogonal")
        kv = kernel_direction(op.matrix)
        if kv is None:
            return scope("restricted operator has trivial kernel")
        kres = _kernel_residual(op.matrix, kv)
        if record.kind is ExtremumKind.MIN:
            plane = TangentPlane(p, kv @ op.basis, X)
            k_val = sectional_curvature(M, plane)
            verdict = Verdict.PASS if k_val >= -tol else Verdict.FAIL
            return WitnessReport(verdict=verdict, case="timelike_even", plane=plane,
                                 curvature_kind="sectional", value=k_val,
                                 inequality=">= 0", kernel_residual=kres,
                                 invariance_residual=op.invariance_residual, **base)
        sample = sample_planes_containing(M, xname, p, planes)
        sampled = [sectional_curvature(M, pl) for pl in sample]
        worst = max(sampled)
        worst_plane = sample[int(np.argmax(sampled))]
        verdict = Verdict.PASS if worst <= tol else Verdict.FAIL
        return WitnessReport(verdict=verdict, case="timelike_even", plane=worst_plane,
                             curvature_kind="sectional", value=worst,
                             inequality="<= 0", kernel_residual=kres,
                             invariance_residual=op.invariance_residual,
                             sampled_values=tuple(sampled), **base)

    # lightlike
    op = restricted_operator(M, xname, p, mode="quotient")
    kv = kernel_direction(op.matrix)
    if kv is None:
        return scope("quotient operator has trivial kernel")
    v = kv @ op.basis
    plane = TangentPlane(p, v, X)
    k_val = null_sectional_curvature(M, p, TangentVector(p, X), TangentVector(p, v))
    kres = _kernel_residual(op.matrix, kv)
    if record.kind is ExtremumKind.MIN:
        verdict = Verdict.PASS if k_val <= tol else Verdict.FAIL
        ineq = "<= 0"
    else:
        verdict = Verdict.PASS if k_val >= -tol else Verdict.FAIL
        ineq = ">= 0"
    return WitnessReport(verdict=verdict, case="lightlike_odd", plane=plane,
                         curvature_kind="null_sectional", value=k_val,
                         inequality=ineq, kernel_residual=kres,
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

    X must stay causal along the path.  At lightlike points the plane
    family through X is degenerate, so the scan records the null
    sectional curvature instead.
    """
    points = np.asarray(points, dtype=float)
    scans: list[PointScan] = []
    for p in points:
        p = M.wrap_point(p)
        geo = point_geometry(M, p)
        xv = M.field_vector(xname, p)
        cc = causal_character(M, xv, geo=geo)
        if cc is CausalCharacter.ZERO:
            raise ValueError(f"field vanishes on the path at {p.tolist()}")
        if cc is CausalCharacter.SPACELIKE:
            raise ValueError(f"field is spacelike on the path at {p.tolist()}; "
                             "the scan requires a causal field")
        g = geo.metric
        X = xv.components
        if cc is CausalCharacter.TIMELIKE:
            values = [sectional_numerator(geo, pl.u, X) / plane_discriminant(g, pl.u, X)
                      for pl in sample_planes_containing(M, xname, p, planes_per_point)]
            scans.append(PointScan(p, cc, "sectional", tuple(values)))
        else:
            reps = orthogonal_complement_basis(M, xname, p, quotient=True)
            vs = [reps[k % len(reps)] for k in range(planes_per_point)]
            values = [sectional_numerator(geo, v, X) / float(v @ g @ v) for v in vs]
            scans.append(PointScan(p, cc, "null_sectional", tuple(values)))

    n_pts = len(scans)
    k_all = [v for s in scans for v in s.values]
    k_min, k_max = min(k_all), max(k_all)
    ztol = 1e-9 * max(abs(k_min), abs(k_max), 1e-30)

    zeros: list[ScanZero] = []
    seen_exact: set[tuple[int, int]] = set()
    for j in range(planes_per_point):
        trace = [s.values[j] for s in scans]
        for i, val in enumerate(trace):
            if abs(val) <= ztol:
                if (i, j) not in seen_exact:
                    seen_exact.add((i, j))
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
    classification: FieldClass


def conformal_bound_check(M: ManifoldSpec, xname: str, record: ExtremumRecord,
                          tol: float = 1e-9, sigma_tol: float = 1e-9,
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
    if abs(sigma0) > sigma_tol:
        raise ValueError(
            f"sigma({p.tolist()}) = {sigma0:.3e} is not ~0; the point is not "
            "critical for f or the field is misclassified")

    op = restricted_operator(M, xname, p, mode="orthogonal")
    kv = kernel_direction(op.matrix)
    if kv is None:
        raise ValueError("restricted operator has trivial kernel")
    v = kv @ op.basis
    X = M.field_eval(xname, p)
    plane = TangentPlane(p, v, X)
    k_val = sectional_curvature(M, plane)

    xs = cf.x_sigma(p)
    gxx = float(X @ point_geometry(M, p).metric @ X)
    bound = 0.5 * xs / (-gxx)
    kres = _kernel_residual(op.matrix, kv)
    return ConformalBoundReport(
        point=p, field=xname, sigma_at_point=sigma0, x_sigma=xs, bound=bound,
        curvature=k_val, plane=plane,
        bound_verdict=Verdict.PASS if k_val >= bound - tol else Verdict.FAIL,
        nonnegativity_verdict=Verdict.PASS if k_val >= -tol else Verdict.FAIL,
        kernel_residual=kres, classification=classification)


# ---------------------------------------------------------------------------
# Derived charts: Lorentzian flip and circle lift
# ---------------------------------------------------------------------------

class LorentzianizeError(ValueError):
    pass


def lorentzianize(M: ManifoldSpec, xname: str, *, check_riemannian: bool = True,
                  samples: int = 30, seed: int = 0,
                  verify_tol: float = 1e-8) -> ManifoldSpec:
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
        rng = np.random.default_rng(seed)
        pts = M.sample_points(samples, rng)
        for p in pts:
            g = M.metric_eval(p)
            eigs = np.linalg.eigvalsh(g)
            if np.any(eigs <= 0):
                raise LorentzianizeError(f"input metric not positive definite at {p.tolist()}")
            Xp = M.field_eval(xname, p)
            qv = float(Xp @ g @ Xp)
            if qv <= 0:
                raise LorentzianizeError(f"field vanishes (or is degenerate) at {p.tolist()}")
            L = lie_derivative_metric_at(M, xname, p)
            if float(np.max(np.abs(L))) > verify_tol * max(float(np.max(np.abs(g))), 1.0):
                raise LorentzianizeError(f"field is not Killing for the input metric "
                                         f"(residual at {p.tolist()})")
        for p in pts:
            g = M.metric_eval(p)
            gn = flipped.metric_eval(p)
            Xp = M.field_eval(xname, p)
            scale = max(float(np.max(np.abs(g))), 1.0)
            if abs(float(Xp @ gn @ Xp) + float(Xp @ g @ Xp)) > verify_tol * scale:
                raise LorentzianizeError("flip postcondition g(X,X) = -g_R(X,X) failed")
            gX = g @ Xp
            qv = float(Xp @ gX)
            for i in range(m):
                w = np.eye(m)[i] - (gX[i] / qv) * Xp
                for j in range(m):
                    w2 = np.eye(m)[j] - (gX[j] / qv) * Xp
                    if abs(float(w @ gn @ w2) - float(w @ g @ w2)) > verify_tol * scale:
                        raise LorentzianizeError("flip postcondition g = g_R on X-perp failed")
            Ln = lie_derivative_metric_at(flipped, xname, p)
            if float(np.max(np.abs(Ln))) > 10 * verify_tol * scale:
                raise LorentzianizeError("field is not Killing for the flipped metric")
        validate_signature(flipped, samples=samples, seed=seed)
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
                mode: str = "lightlike_locus", grid: int = 48,
                lifted_name: str = "Xbar", theta_name: str | None = None,
                tol: float = 1e-6) -> LiftResult:
    """Append a flat periodic coordinate and lift X to X + c*e_theta on
    (M x S^1, g + dtheta^2).

    In ``lightlike_locus`` mode c^2 must equal -max g(X,X) over the scan
    grid (within tolerance), so the lifted field is causal everywhere
    and lightlike exactly on the locus where g(X,X) attains its maximum.
    ``general`` mode accepts any c > 0 and simply reports the causal
    status.  X must be Killing for the base metric.
    """
    if c <= 0:
        raise LiftError("lift constant c must be positive")
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
        if abs(c2 + max_gxx) > tol * scale:
            raise LiftError(
                f"lightlike-locus lift needs c^2 = -max g(X,X) = {-max_gxx!r}, "
                f"got c^2 = {c2!r}")
    elif mode != "general":
        raise LiftError(f"unknown lift mode '{mode}'")

    causal_everywhere = c2 <= -max_gxx + tol * scale
    nowhere_timelike = c2 >= -min_gxx - tol * scale
    locus = tuple(np.append(p, 0.0) for val, p in zip(values, nodes)
                  if abs(val + c2) <= 1e-9 * scale)

    if theta_name is None:
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
    fields[lifted_name] = list(M.fields[xname]) + [ex.Const(c)]
    lifted = ManifoldSpec(name=f"{M.name}_lift", coords=coords,
                          signature=M.signature, metric=new_metric,
                          params=M.params, fields=fields, scalars=M.scalars)
    return LiftResult(spec=lifted, field=lifted_name, c=c, max_gxx=max_gxx,
                      min_gxx=min_gxx, causal_everywhere=causal_everywhere,
                      nowhere_timelike=nowhere_timelike, lightlike_locus=locus[:64])
