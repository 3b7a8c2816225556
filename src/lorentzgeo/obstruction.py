"""Witness-level machinery for curvature sign obstructions.

Given a chart and a causal field X, this module locates extrema of the
energy f = g(X,X)/2 by plain Newton from the grid nodes least or largest
over their 3^m lattice neighbourhood (one node on each axis f does not
mention, one per cluster of touching nodes), constructs the witness
plane at a causal extremum from the kernel of the restricted skew
operator, or at a timelike maximum takes the exact largest curvature
over every plane through X, scans plane families along paths for
curvature sign changes, checks the conformal lower bound at critical
points of conformal fields, and builds two derived charts: the
Lorentzian flip of a Riemannian metric along a nowhere-zero Killing
field, and the circle lift that appends a flat periodic coordinate to
trade a timelike field for a merely causal one.

Every curvature of a plane through X is cᵀJc of the Jacobi form J of
the point's :func:`~lorentzgeo.symmetry.perp_frame`, which also gives the
point's geometry, X, the X-perp basis and the curvature kind: the witness
reads J at the kernel direction or takes its top eigenvalue, the sign
scan on sampled c_k.  The witness and the conformal check read X and dX
once; the latter builds no derivative tree.  The derived charts ask
:func:`~lorentzgeo.symmetry.classify_field` whether X is Killing.  The
flip evaluates the flipped metric once, at its samples, and reads its
signature from those values by :func:`~lorentzgeo.manifold.require_signature`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .curvature import (
    _TINY,
    ScalarDerivs,
    causal_character,
    energy_derivs,
    point_geometries,
)
from .manifold import (
    BOUNDARY_COLLAR,
    SAMPLING_COLLAR,
    CausalCharacter,
    Coordinate,
    ManifoldSpec,
    TangentPlane,
    metric_pairing_expr,
    require_signature,
)
from .symmetry import (
    FieldClass,
    FieldTag,
    SubspaceError,
    _conformal_factor,
    classify_field,
    kernel_direction,
    perp_frame,
    require_tolerance,
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
        mins = [_make_record(M, xname, geo, ExtremumKind.MIN)
                for geo in point_geometries(M, self.plateau_points)]
        return [r for rec in mins for r in (rec, replace(rec, kind=ExtremumKind.MAX))]


def _make_record(M: ManifoldSpec, xname: str, geo, kind: ExtremumKind) -> ExtremumRecord:
    """The record of kind ``kind`` at the point of ``geo``: the covariant
    Hessian, the causal character of X and f, all read from ``geo``."""
    f_derivs = energy_derivs(M, xname)
    eigs = tuple(float(w) for w in np.linalg.eigvalsh(f_derivs.covariant_hessian(geo)))
    cc = causal_character(M, geo, M.field_eval(xname, geo))
    return ExtremumRecord(point=geo.point, f_value=f_derivs.value(geo), kind=kind,
                          causal=cc, hessian_eigs=eigs)


# ---------------------------------------------------------------------------
# Grid scan with Newton refinement
# ---------------------------------------------------------------------------

def _grid_axes(M: ManifoldSpec, per_axis: list[int]) -> list[np.ndarray]:
    axes = []
    for c, n in zip(M.coords, per_axis):
        if c.periodic:
            axes.append(np.linspace(c.lo, c.hi, n, endpoint=False))
        else:
            axes.append(np.linspace(c.lo + SAMPLING_COLLAR, c.hi - SAMPLING_COLLAR, n))
    return axes


def _scan_axes(M: ManifoldSpec, mentioned: set[str], axes: list[np.ndarray]) -> list[np.ndarray]:
    """The full grid ``axes`` cut for a tree that mentions the names
    ``mentioned`` (``ex.free_names``): whole on each axis it mentions, one
    node on each other axis, along which the tree is constant: the first
    on a periodic axis, the first interior one on an open axis."""
    return [a if c.name in mentioned else a[:1] if c.periodic else a[1:2]
            for c, a in zip(M.coords, axes)]


def _grid_points(axes: list[np.ndarray]) -> np.ndarray:
    """Grid nodes as an (N, m) array, in C order of the grid indices."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _refine(M: ManifoldSpec, fd: ScalarDerivs, p0: np.ndarray) -> np.ndarray:
    """Newton steps on grad f = 0 from the grid node p0, on the exact
    gradient and coordinate-Hessian trees: the visited point of least |grad f|.

    The step is the least-squares solution, so a singular Hessian (an
    extremum that is a whole curve or torus of points) moves only across
    the critical set.  Each step is clamped to the boundary collar on open
    axes and wrapped on periodic ones.  A zero gradient, a non-finite step
    or a step that leaves the point unchanged ends the refinement."""
    lo = np.array([-np.inf if c.periodic else c.lo + BOUNDARY_COLLAR for c in M.coords])
    hi = np.array([np.inf if c.periodic else c.hi - BOUNDARY_COLLAR for c in M.coords])
    p = best = p0
    grad = fd.gradient(p)
    norm = best_norm = float(np.linalg.norm(grad))
    for _ in range(_NEWTON_STEPS):
        if norm == 0.0:
            break
        step = np.linalg.lstsq(fd.coordinate_hessian(p), -grad, rcond=None)[0]
        trial = np.clip(p + step, lo, hi)
        if not np.all(np.isfinite(trial)):
            break
        trial = M.wrap_point(trial)
        if np.array_equal(trial, p):
            break
        p, grad = trial, fd.gradient(trial)
        norm = float(np.linalg.norm(grad))
        if norm < best_norm:
            best, best_norm = p, norm
    return best


def _box_adjacent(M: ManifoldSpec, spacings: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Whether points a and b (broadcasting over leading axes) lie within
    1.01 grid spacings of each other on every axis, periodic axes wrapped;
    the scan's dedupe of refined records, which lie off the grid."""
    period = np.array([c.period if c.periodic else np.inf for c in M.coords])
    d = np.abs(a - b)
    d = np.minimum(d, period - d)
    return np.all(d <= 1.01 * spacings, axis=-1)


def _cluster_representatives(M: ManifoldSpec, mask: np.ndarray,
                             values: np.ndarray) -> np.ndarray:
    """Merge the candidates of ``mask`` (``values`` in C order) that touch
    on the index lattice: every index within 1, periodic axes wrapped.
    Keep the lowest value, then lowest node, of each cluster (tie plateaus
    and ridges refine to the same extremum); return flat indices in C order."""
    shape, flat = mask.shape, np.flatnonzero(mask)
    offsets = np.indices((3,) * mask.ndim).reshape(mask.ndim, -1) - 1
    near = np.array(np.unravel_index(flat, shape))[:, :, None] + offsets[:, None, :]
    # a neighbour clipped on an open axis is one already in the box
    modes = tuple("wrap" if c.periodic else "clip" for c in M.coords)
    slot = np.full(mask.size, len(flat))          # len(flat): not a candidate
    slot[flat] = np.arange(len(flat))
    neighbours = slot[np.ravel_multi_index(tuple(near), shape, mode=modes)]
    label = np.arange(len(flat))
    while True:                                   # min-label propagation, pointer jumping
        low = np.append(label, len(flat))[neighbours].min(axis=1)
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.lexsort((flat, values))
    _, first = np.unique(label[order], return_index=True)
    return np.sort(flat[order[first]])


def scan_extrema(M: ManifoldSpec, xname: str, grid: int | list[int] = 64) -> ScanResult:
    """Grid-scan f = g(X,X)/2 for nodes that are the least (largest) of
    their 3^m lattice neighbourhood, refine them by Newton steps on the
    exact derivative trees of f, and classify them by the eigenvalues of
    the covariant Hessian.  Every candidate is refined before any record
    is made, and the refined points' geometries are asked for in one
    batch, which the spec's memo then holds for the witness; so an error
    in refining a later candidate is raised ahead of one in making an
    earlier record.

    Candidates that touch on the grid's index lattice form one cluster,
    refined once from its best node; a refined minimum (maximum) at which
    f falls (rises) along a Hessian direction is a saddle.  Open-axis edge
    nodes never become candidates; plateau charts (>=90% of grid values
    tying within 1e-10) are flagged instead of producing spurious records.

    Every axis that the tree of f does not mention (X = d/dt Killing
    leaves t out) is scanned at the one node of :func:`_scan_axes`,
    which is where each cluster of the full grid keeps its best node.
    The masks, the plateau test, the clusters and the records are those
    of the full grid; the resolution floor and the record dedupe still
    use the full axes.  ``grid`` is one resolution for every axis or a
    list of one per axis; a list of another length is a ValueError.
    """
    per_axis = [grid] * M.dim if isinstance(grid, int) else list(grid)
    if len(per_axis) != M.dim:
        raise ValueError(f"grid {per_axis} has {len(per_axis)} entries but the chart "
                         f"has dimension {M.dim}")
    if any(n < 8 for n in per_axis):
        raise ValueError("grid resolution must be at least 8 per axis")
    fd = energy_derivs(M, xname)
    full = _grid_axes(M, per_axis)
    spacings = np.array([a[1] - a[0] for a in full])
    axes = _scan_axes(M, fd.mentioned, full)
    shape = tuple(len(a) for a in axes)
    nodes = _grid_points(axes)
    F = M.evaluate_points(fd.expr, nodes).reshape(shape)

    f_min, f_max = float(F.min()), float(F.max())
    med = float(np.median(F))
    plateau = bool(np.mean(np.abs(F - med) <= PLATEAU_BAND) >= PLATEAU_FRACTION)
    if plateau:
        rng = np.random.default_rng(1)
        pts = tuple(M.wrap_point(p) for p in M.sample_points(8, rng))
        return ScanResult(records=(), plateau=True, f_min=f_min, f_max=f_max,
                          plateau_points=pts)

    tie = 1e-12 * max(1.0, abs(f_min), abs(f_max))
    lo, hi = F, F                 # least and largest f over each node's 3^m neighbourhood
    for a, n in enumerate(shape):
        if n > 1:
            lo = np.minimum(lo, np.minimum(np.roll(lo, 1, a), np.roll(lo, -1, a)))
            hi = np.maximum(hi, np.maximum(np.roll(hi, 1, a), np.roll(hi, -1, a)))
    min_mask, max_mask = F <= lo + tie, F >= hi - tie
    for a, n in enumerate(shape):
        if not M.coords[a].periodic and n > 1:
            for edge in ((slice(None),) * a + (0,), (slice(None),) * a + (-1,)):
                min_mask[edge] = max_mask[edge] = False

    found = [(kind, sense, _refine(M, fd, p))
             for mask, kind, sense in ((min_mask, ExtremumKind.MIN, 1.0),
                                       (max_mask, ExtremumKind.MAX, -1.0))
             for p in nodes[_cluster_representatives(M, mask, sense * F[mask])]]
    records: list[ExtremumRecord] = []
    for (kind, sense, _), geo in zip(found, point_geometries(M, [p for *_, p in found])):
        rec = _make_record(M, xname, geo, kind)
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
    verdict: Verdict
    case: str | None = None                 # "timelike_even" / "lightlike_odd"
    plane: TangentPlane | None = None
    curvature_kind: str | None = None       # "sectional" / "null_sectional"
    value: float | None = None
    inequality: str | None = None           # ">= 0" / "<= 0"
    scope_reason: str | None = None
    kernel_residual: float | None = None


def _record_frame(M: ManifoldSpec, xname: str, record: ExtremumRecord):
    """X-perp at the record's point; a SubspaceError unless X there is causal as recorded."""
    frame = perp_frame(M, xname, record.point)
    if frame.causal is not record.causal:
        raise SubspaceError(f"X is {frame.causal.value} at {record.point.tolist()}; "
                            f"the record says {record.causal.value}")
    return frame


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
    the top eigenvalue of the Jacobi form J of the
    :func:`~lorentzgeo.symmetry.perp_frame` at the extremum, with the
    plane of its eigenvector; every other value is cᵀJc at the kernel
    direction c of A_X restricted to that frame, whose causal character
    decides: a record it contradicts, like a parity mismatch, is SCOPE.

    For a causal field f <= 0 everywhere, so every lightlike point has
    f = 0 and is a global maximum of f: the paper's causal,
    odd-dimensional statement is the maximum-side branch K_X >= 0.  The
    lightlike-minimum branch serves only non-causal homothetic fields.
    ``tol``, the band the sign test allows, must be finite and
    non-negative.

    A homothetic X (L_X g = lam g) has nabla X = S + (lam/2) I with S
    skew for g, so the kernel direction is taken from S: dX - (lam/2) I
    goes to the restricted operator (a Killing X has lam = 0 and keeps
    its dX bit for bit).  A kernel vector v then has
    Hess f(v,v) = (lam/2)^2 g(v,v) - g(R(v,X)X,v).
    """
    require_tolerance(tol)
    if classification is None:
        classification = classify_field(M, xname)

    def scope(reason: str) -> WitnessReport:
        return WitnessReport(record, Verdict.SCOPE, scope_reason=reason)

    if not classification.is_homothetic_or_killing:
        return scope(f"field classifies as {classification.tag.value}; "
                     "the witness construction needs a homothetic field")
    if record.kind is ExtremumKind.SADDLE:
        return scope("saddle points are recorded but are not witness hypotheses")

    cc, m = record.causal, M.dim

    if cc is CausalCharacter.ZERO:
        return scope("field vanishes at the extremum")
    if cc is CausalCharacter.SPACELIKE:
        return scope("field is spacelike at the extremum; a causal vector is required")

    timelike = cc is CausalCharacter.TIMELIKE
    parity = "even" if timelike else "odd"         # the paper's rule
    if parity != ("even", "odd")[m % 2]:
        return scope(f"{cc.value} extremum needs {parity} dimension, chart has m={m}")

    try:
        frame = _record_frame(M, xname, record)
    except SubspaceError as e:           # X is not causal there, or not as the record says
        return scope(str(e))
    nonnegative = (record.kind is ExtremumKind.MIN) == timelike   # a timelike min, lightlike max
    # a homothetic X has nabla X = skew + (lam/2) I; the kernel is the skew part's
    dX = M.field_derivs(xname, frame.geo) - 0.5 * classification.lam * np.eye(m)
    kv, kres = kernel_direction(restricted_operator(frame, dX))
    k_val = float(kv @ frame.jacobi @ kv)
    if timelike and not nonnegative:    # a timelike maximum: the largest K of all
        ks, vecs = np.linalg.eigh(frame.jacobi)
        top = int(np.argmax(ks))      # ties keep the first basis plane
        k_val, kv = float(ks[top]), vecs[:, top]
    ok = k_val >= -tol if nonnegative else k_val <= tol
    return WitnessReport(record, Verdict.PASS if ok else Verdict.FAIL,
                         plane=TangentPlane(record.point, kv @ frame.basis, frame.field),
                         case=f"{cc.value}_{parity}", curvature_kind=frame.curvature_kind,
                         value=k_val, inequality=">= 0" if nonnegative else "<= 0",
                         kernel_residual=kres)


# ---------------------------------------------------------------------------
# Sign scan along a path of plane families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointScan:
    point: np.ndarray
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
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
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

    X must stay causal along the path: the
    :func:`~lorentzgeo.symmetry.perp_frame` of each point refuses it
    otherwise, and gives its curvature kind.  The
    k-th value at a point is c_kᵀJc_k of the frame's Jacobi form:
    sectional at timelike points, null sectional at lightlike ones.  c_k
    is e_0 on a 1-row frame, else e_q turned towards e_{q+1} by
    pi k / planes_per_point, q = k mod (d-1).  ``k_min`` and ``k_max``
    are exact, whatever the sampled planes: the least and largest
    eigenvalue of J over the path's points.  A value is a zero when its
    magnitude is at most 1e-9 times the largest eigenvalue magnitude of
    J at its own point; no sign change is read next to a zero.  A
    lightlike X in dimension 2 has no degenerate plane through it and is
    refused.
    """
    if planes_per_point < 1:
        raise ValueError(f"planes_per_point must be at least 1, got {planes_per_point}")
    scans: list[PointScan] = []
    ends: list[np.ndarray] = []
    for geo in point_geometries(M, points):
        frame = perp_frame(M, xname, geo)
        d = len(frame.basis)
        if d == 0:
            raise ValueError(f"field is lightlike on the path at {geo.point.tolist()} on a "
                             "2-dimensional chart; no degenerate plane contains it")
        cs = np.zeros((planes_per_point, d))
        for k, c in enumerate(cs):
            if d == 1:
                c[0] = 1.0
            else:
                alpha, q = math.pi * k / planes_per_point, k % (d - 1)
                c[q], c[q + 1] = math.cos(alpha), math.sin(alpha)
        scans.append(PointScan(geo.point, frame.curvature_kind,
                               tuple(float(c @ frame.jacobi @ c) for c in cs)))
        ends.append(np.linalg.eigvalsh(frame.jacobi)[[0, -1]])

    n_pts = len(scans)
    ends = np.array(ends)
    k_min, k_max = float(ends[:, 0].min()), float(ends[:, 1].max())
    ztol = 1e-9 * np.abs(ends).max(axis=1)

    zeros: list[ScanZero] = []
    for j in range(planes_per_point):
        trace = [s.values[j] for s in scans]
        for i, val in enumerate(trace):
            if abs(val) <= ztol[i]:
                zeros.append(ScanZero(float(i), scans[i].point, j))
        for i in range(n_pts - 1):
            a, b = trace[i], trace[i + 1]
            if abs(a) <= ztol[i] or abs(b) <= ztol[i + 1]:
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
    X-perp's causal character decides: a record it contradicts is a ValueError.
    """
    if classification is None:
        classification = classify_field(M, xname)
    if classification.tag is FieldTag.NONE:
        raise ValueError("field does not classify as conformal within tolerance")
    if M.dim % 2 != 0:
        raise ValueError("the conformal bound construction needs even dimension")
    if record.causal is not CausalCharacter.TIMELIKE:
        raise ValueError(f"field must be timelike at the critical point, "
                         f"got {record.causal.value}")

    frame = _record_frame(M, xname, record)
    X, dX = frame.field, M.field_derivs(xname, frame.geo)
    sigma0, xs = _conformal_factor(energy_derivs(M, xname), frame.geo, X, dX)
    if abs(sigma0) > CONFORMAL_TOL:
        raise ValueError(
            f"sigma({record.point.tolist()}) = {sigma0:.3e} is not ~0; the point is not "
            "critical for f or the field is misclassified")

    kv, kres = kernel_direction(restricted_operator(frame, dX))
    k_val = float(kv @ frame.jacobi @ kv)

    gxx = float(X @ frame.geo.metric @ X)
    bound = 0.5 * xs / (-gxx)
    return ConformalBoundReport(
        sigma_at_point=sigma0, x_sigma=xs, bound=bound,
        curvature=k_val, plane=TangentPlane(record.point, kv @ frame.basis, X),
        bound_verdict=Verdict.PASS if k_val >= bound - CONFORMAL_TOL else Verdict.FAIL,
        nonnegativity_verdict=Verdict.PASS if k_val >= -CONFORMAL_TOL else Verdict.FAIL,
        kernel_residual=kres)


# ---------------------------------------------------------------------------
# Derived charts: Lorentzian flip and circle lift
# ---------------------------------------------------------------------------

class LorentzianizeError(ValueError):
    pass


def _require_killing(M: ManifoldSpec, xname: str, which: str, error: type) -> None:
    """Raise ``error`` unless :func:`~lorentzgeo.symmetry.classify_field`
    calls X Killing on M, the ``which`` metric of a derived chart."""
    tag = classify_field(M, xname).tag
    if tag is not FieldTag.KILLING:
        raise error(f"field must be Killing for the {which} metric, classifies as {tag.value}")


def _first_failure(pts: np.ndarray, *checks) -> None:
    """Raise the message of the first failed (ok, message) check at the
    first sample failing any: what a point-by-point loop reports."""
    for k, p in enumerate(pts):
        for ok, message in checks:
            if not ok[k]:
                raise LorentzianizeError(message.format(p.tolist()))


def _flip(M: ManifoldSpec, xname: str) -> ManifoldSpec:
    """g := g_R - (2/g_R(X,X)) w (x) w with w the g_R-dual of X, the
    signature label swapped, and nothing checked: the flip is an
    involution, so applying it twice gives the input back.  g.j.i shares
    the tree of g.i.j."""
    m = M.dim
    X = M.fields[xname]
    omega = []
    for i in range(m):
        acc = ex.ZERO
        for j in range(m):
            acc = ex.add(acc, ex.mul(M.metric[i][j], X[j]))
        omega.append(acc)
    q = metric_pairing_expr(M, xname, xname)
    new_metric = [[ex.ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            new_metric[i][j] = new_metric[j][i] = ex.sub(
                M.metric[i][j], ex.div(ex.mul(ex.Const(2.0), ex.mul(omega[i], omega[j])), q))
    new_signature = "lorentzian" if M.signature == "riemannian" else "riemannian"
    return ManifoldSpec(name=f"{M.name}_flip", coords=M.coords,
                        signature=new_signature, metric=new_metric,
                        params=M.params, fields=M.fields, scalars=M.scalars)


def lorentzianize(M: ManifoldSpec, xname: str) -> ManifoldSpec:
    """Flip g := g_R - (2/g_R(X,X)) w (x) w with w the g_R-dual of X.

    For a Riemannian input with nowhere-zero Killing X this produces a
    Lorentzian chart on which X is timelike with g(X,X) = -g_R(X,X),
    g agrees with g_R on the complement of X, and X stays Killing; X is
    classified on both charts, and the rest is verified by sampling.
    """
    if M.signature != "riemannian":
        raise LorentzianizeError("input chart must be Riemannian")
    flipped = _flip(M, xname)
    m = M.dim
    X = M.fields[xname]
    pts = M.sample_points(FLIP_SAMPLES, np.random.default_rng(0))
    g = M.evaluate_symmetric(M.metric, pts)
    Xs = np.stack([M.evaluate_points(c, pts) for c in X], axis=1)
    gX = np.einsum("nij,nj->ni", g, Xs)
    qs = np.einsum("ni,ni->n", Xs, gX)
    scales = np.maximum(np.max(np.abs(g), axis=(1, 2)), 1.0)
    definite = np.all(np.linalg.eigvalsh(g) > 0, axis=1)
    _first_failure(pts, (definite, "input metric not positive definite at {}"),
                   (qs > 0, "field vanishes (or is degenerate) at {}"))
    _require_killing(M, xname, "input", LorentzianizeError)
    gn = flipped.evaluate_symmetric(flipped.metric, pts)
    flip_ok = np.abs(np.einsum("ni,nij,nj->n", Xs, gn, Xs) + qs) <= FLIP_TOL * scales
    # rows w_i = e_i - (g(e_i,X)/g(X,X)) X span X-perp
    W = np.eye(m) - gX[:, :, None] * Xs[:, None, :] / qs[:, None, None]
    perp = W @ (gn - g) @ W.transpose(0, 2, 1)
    perp_ok = np.max(np.abs(perp), axis=(1, 2)) <= FLIP_TOL * scales
    _first_failure(pts, (flip_ok, "flip postcondition g(X,X) = -g_R(X,X) failed"),
                   (perp_ok, "flip postcondition g = g_R on X-perp failed"))
    _require_killing(flipped, xname, "flipped", LorentzianizeError)
    require_signature(flipped, pts, np.linalg.eigvalsh(gn))
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
    nowhere_timelike: bool
    lightlike_locus: tuple[np.ndarray, ...]  # scan nodes where the lift is null


def circle_lift(M: ManifoldSpec, xname: str, c: float, *, grid: int = 48) -> LiftResult:
    """Append a flat periodic coordinate and lift X to X + c*e_theta on
    (M x S^1, g + dtheta^2).  The lifted field is named ``LIFTED_FIELD``;
    the new coordinate is ``theta``, or ``theta1``, ``theta2``, ... when
    that name is taken.

    c^2 must equal -max g(X,X) over the scan grid (within tolerance), so
    the lifted field is causal everywhere and lightlike exactly on the
    locus where g(X,X) attains its maximum.  g(X,X) is evaluated on the
    nodes of :func:`_scan_axes`, and the reported locus lists those
    nodes: one node on each axis that g(X,X) does not mention.  X must
    be Killing for the base metric.
    """
    if not (math.isfinite(c) and c > 0):
        raise LiftError(f"lift constant c must be positive and finite, got {c!r}")
    _require_killing(M, xname, "base", LiftError)

    gxx_expr = metric_pairing_expr(M, xname, xname)
    nodes = _grid_points(_scan_axes(M, ex.free_names(gxx_expr), _grid_axes(M, [grid] * M.dim)))
    values = M.evaluate_points(gxx_expr, nodes)
    max_gxx, min_gxx = float(values.max()), float(values.min())

    c2 = c * c
    scale = max(1.0, abs(max_gxx), abs(min_gxx))
    if abs(c2 + max_gxx) > LIFT_TOL * scale:
        raise LiftError(
            f"lightlike-locus lift needs c^2 = -max g(X,X) = {-max_gxx!r}, "
            f"got c^2 = {c2!r}")
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
    new_metric = [row + [ex.ZERO] for row in M.metric] + [[ex.ZERO] * m + [ex.ONE]]
    fields = {name: list(comps) + [ex.ZERO] for name, comps in M.fields.items()}
    fields[LIFTED_FIELD] = list(M.fields[xname]) + [ex.Const(c)]
    lifted = ManifoldSpec(name=f"{M.name}_lift", coords=coords,
                          signature=M.signature, metric=new_metric,
                          params=M.params, fields=fields, scalars=M.scalars)
    return LiftResult(spec=lifted, field=LIFTED_FIELD, c=c, max_gxx=max_gxx,
                      min_gxx=min_gxx, nowhere_timelike=nowhere_timelike,
                      lightlike_locus=locus[:64])
