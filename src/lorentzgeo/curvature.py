"""Connection and curvature kernel, and the pointwise causal classes.

Everything here is a pure function of (spec, point) or of a point's
geometry.  Metric derivatives come from exact expression trees evaluated
pointwise; the tensor algebra on top is plain dense numpy (dimensions in
this engine are small, so clarity beats symmetry-compressed storage).

:func:`point_geometry` is the single evaluation of the metric jet at a
point, and :func:`point_geometries` the same at each row of a set of
points: in this module they alone call ``metric_derivs`` (one call of the
spec's compiled jet function per point), refuse a degenerate metric by
``manifold.require_nondegenerate`` on the eigenvalues of its Riemannianized
frame (the rule ``validate_signature`` and ``metric_at`` apply) and invert
g.  Both run one tensor assembly, written over leading point axes, so a
batch does the algebra once over the stacked points and gives each point
the geometry :func:`point_geometry` gives, bit for bit.  The spec memoizes
the geometries of the last batch asked for, a single point being a batch
of one (keyed on the wrapped point, so a periodic image hits too), and
their arrays are read-only, so every helper simply asks for the geometry
at its point: nothing is handed down, and g, Gamma and R are built once
per point.  A caller that visits a known set of points asks for their
geometries in one batch first.
The causal character of a vector and the type of a plane read g and
its Riemannianized frame from the same geometry, take the bands from one
Riemannianized Gram of their vectors (``manifold.riem_gram``), and refuse
a non-finite |v|^2, Q or |u|^2 |v|^2 and vectors of the wrong length.
:func:`energy_derivs` likewise differentiates f = g(X,X)/2 once per spec
and field.

Sign conventions, pinned once for the whole engine:

* curvature operator  R(U,V)W = \\nabla_U \\nabla_V W - \\nabla_V \\nabla_U W
  - \\nabla_[U,V] W
* lowered tensor      R[i,j,k,l] = g(R(e_i,e_j) e_l, e_k), which satisfies
  R_ijkl = -R_jikl = -R_ijlk = R_klij and the cyclic first-index identity
* Christoffel symbols of the first kind
  Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2, and
  Gamma^a_ij = g^al Gamma_{l,ij}
* the lowered tensor is built from the 2-jet without raising an index:
  R_ijkl = (d_i d_l g_kj - d_i d_k g_jl - d_j d_l g_ki + d_j d_k g_il) / 2
  + Gamma_{p,jk} Gamma^p_il - Gamma_{p,ik} Gamma^p_jl
* Ricci is contracted from the lowered tensor, Ric_jk = g^mb R_mjbk, and
  the scalar curvature is g^jk Ric_jk
* sectional curvature K(plane) = g(R(u,v)v, u) / Q with
  Q = g(u,u)g(v,v) - g(u,v)^2

Under this pairing the round 2-sphere has K = +1; the gate test in the
suite holds the whole triple (sphere, Lorentz Hopf sphere, Hessian
identity) to a single convention.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import Expr
from .manifold import (
    CausalCharacter,
    ManifoldSpec,
    PlaneType,
    TangentPlane,
    _entry,
    field_energy_expr,
    require_nondegenerate,
    riem_frame,
    riem_gram,
)

# Lightlike and degenerate-plane bands, relative to the Riemannianized
# norms of the riem_frame of g, so both are scale-free: |g(v,v)| at or
# below CAUSAL_EPS |v|^2 is lightlike, and |Q| at or below
# PLANE_EPS |u|^2 |v|^2 is a degenerate plane (the sectional curvature
# refuses it; callers then use the null sectional curvature).  A pair
# whose Gram determinant there is at or below DEPENDENCE_EPS |u|^2 |v|^2
# (the squared sine of their angle) is linearly dependent.
CAUSAL_EPS = 1e-9
PLANE_EPS = 1e-9
DEPENDENCE_EPS = 1e-12
_TINY = 1e-300            # floor of a magnitude that divides


class DegeneratePlaneError(ValueError):
    """Plane discriminant too small for ordinary sectional curvature."""


class DependentVectorsError(DegeneratePlaneError):
    """Spanning vectors of a plane are zero or linearly dependent."""


class NullCurvatureInputError(ValueError):
    """Inputs violate the degenerate-plane preconditions."""


@dataclass(frozen=True)
class PointGeometry:
    """Evaluated metric and curvature data at one point.  The spec
    memoizes it, so every array is read-only."""

    point: np.ndarray
    metric: np.ndarray          # g_ij
    inverse: np.ndarray         # g^ij
    dmetric: np.ndarray         # dg[k,i,j] = d_k g_ij
    christoffel: np.ndarray     # gamma[k,i,j] = Gamma^k_ij
    riemann: np.ndarray         # lowered, R[i,j,k,l] = g(R(e_i,e_j)e_l, e_k)
    ricci: np.ndarray
    scalar: float
    riem_frame: tuple[np.ndarray, np.ndarray]   # manifold.riem_frame(g)


def point_geometry(M: ManifoldSpec, p) -> PointGeometry:
    """Assemble connection and curvature tensors at one point, or return
    the spec's memo when it holds that point."""
    p = M.wrap_point(p)
    key = p.tobytes()
    geo = M._geometry.get(key)
    if geo is None:
        geo = _geometry_row(_geometry_arrays(p, *M.metric_derivs(p)), ())
        M._geometry = {key: geo}
    return geo


def point_geometries(M: ManifoldSpec, points) -> list[PointGeometry]:
    """:func:`point_geometry` at each row of an (N, m) array of points,
    with the tensor algebra done once over the stacked rows.

    Each row's jet comes from ``metric_derivs``, so every geometry equals
    the one :func:`point_geometry` builds, bit for bit.  Rows the memo
    holds (or that repeat an earlier row, after wrapping) are reused, and
    the memo then holds this batch.  Raises what a loop of
    :func:`point_geometry` over the rows raises first, except that every
    row is wrapped before any jet is evaluated, as in
    ``ManifoldSpec.evaluate_points``.
    """
    pts = M.wrap_point(np.atleast_2d(points))
    memo = M._geometry
    keys = [row.tobytes() for row in pts]
    batch = {key: memo[key] for key in keys if key in memo}
    todo = {}                       # key -> first row that needs a jet
    for k, key in enumerate(keys):
        if key not in batch:
            todo.setdefault(key, k)
    if todo:
        rows = list(todo.values())
        batch.update(zip(todo, _stacked_geometries(M, pts[rows])))
    M._geometry = batch
    return [batch[key] for key in keys]


def _stacked_geometries(M: ManifoldSpec, pts: np.ndarray) -> list[PointGeometry]:
    """The geometry at each row of wrapped points, one jet per row and the
    algebra once over the stack; raises what a loop of
    :func:`point_geometry` raises first."""
    m = M.dim
    jets = tuple(np.empty((len(pts),) + (m,) * d) for d in (2, 3, 4))    # g, dg, ddg
    done, failure = 0, None
    for p in pts:
        try:
            jets[0][done], jets[1][done], jets[2][done] = M.metric_derivs(p)
        except Exception as e:      # re-raised once the earlier rows pass the degeneracy rule
            failure = e
            break
        done += 1
    arrays = _geometry_arrays(pts[:done], *(a[:done] for a in jets))
    if failure is not None:
        raise failure
    return [_geometry_row(arrays, r) for r in range(done)]


def _geometry_arrays(p: np.ndarray, g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> tuple:
    """The fields of :class:`PointGeometry`, read-only, from the 2-jet
    (g, dg, ddg) at p, or at each of N points stacked along a leading
    axis; a degenerate metric is refused at its first point.  Index
    permutations act on the trailing axes only (``swapaxes`` with
    negative axes), so one point and a stack run the same code."""
    frame = riem_frame(g)
    require_nondegenerate(frame[0], p)
    ginv = np.linalg.inv(g)

    # dg[k,i,j] = d_k g_ij ; ddg[l,k,i,j] = d_l d_k g_ij
    # low[l,i,j] = Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    low = 0.5 * (dg.swapaxes(-1, -3).swapaxes(-1, -2) + dg.swapaxes(-1, -3) - dg)
    gamma = np.einsum("...al,...lij->...aij", ginv, low)              # Gamma^a_ij

    # R by the first-kind formula of the module docstring, with
    # s[i,j,k,l] = d_i d_k g_jl
    s = ddg.swapaxes(-3, -2)
    gg = np.einsum("...pjk,...pil->...ijkl", low, gamma)              # Gamma_{p,jk} Gamma^p_il
    lowered = (0.5 * (s.swapaxes(-2, -1) - s - s.swapaxes(-4, -3).swapaxes(-2, -1)
                      + s.swapaxes(-4, -3))
               + gg - gg.swapaxes(-4, -3))
    ricci = np.einsum("...mb,...mjbk->...jk", ginv, lowered)
    scalar = np.einsum("...jk,...jk->...", ginv, ricci)
    for a in (p, g, ginv, dg, gamma, lowered, ricci) + frame:
        a.flags.writeable = False
    return p, g, ginv, dg, gamma, lowered, ricci, scalar, frame


def _geometry_row(arrays: tuple, r) -> PointGeometry:
    """The :class:`PointGeometry` at index r of :func:`_geometry_arrays`
    (``r = ()`` for the arrays of one point)."""
    p, g, ginv, dg, gamma, riemann, ricci, scalar, (aw, V) = arrays
    return PointGeometry(p[r], g[r], ginv[r], dg[r], gamma[r], riemann[r], ricci[r],
                         float(scalar[r]), (aw[r], V[r]))


def causal_character(M: ManifoldSpec, p, v) -> CausalCharacter:
    """Classify the tangent vector v at p, with a scale-free lightlike
    band: :func:`_causal` on the geometry at p.

    The zero vector gets its own tag rather than counting as spacelike;
    callers that need a genuinely causal vector must check for ZERO.  A
    wrong-length vector or a non-finite |v|^2 raises ValueError.
    """
    return _causal(point_geometry(M, p), v)


def _causal(geo: PointGeometry, v) -> CausalCharacter:
    """:func:`causal_character` of v at the point of ``geo``, for a caller
    that already holds the geometry: g(v,v) against the band on |v|^2,
    the one-row :func:`~lorentzgeo.manifold.riem_gram` of v."""
    v = np.asarray(v, dtype=float)
    if v.shape != geo.point.shape:
        raise ValueError(f"vector needs {len(geo.point)} components, got {v.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):      # refused just below
        n2 = float(riem_gram(geo.riem_frame, v))
    if not math.isfinite(n2):
        raise ValueError(f"vector {v.tolist()} has non-finite |v|^2 at {geo.point.tolist()}")
    if n2 == 0.0:
        return CausalCharacter.ZERO
    gvv = float(v @ geo.metric @ v)
    if abs(gvv) <= CAUSAL_EPS * n2:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.TIMELIKE if gvv < 0 else CausalCharacter.SPACELIKE


def _spanning_pair(geo: PointGeometry, u: np.ndarray, v: np.ndarray) -> tuple[PlaneType, float]:
    """The type of span{u, v} and Q = g(u,u) g(v,v) - g(u,v)^2, with the
    bands on |u|^2 and |v|^2, read from one Riemannianized Gram of (u, v);
    a zero or dependent pair raises :class:`DependentVectorsError`,
    vectors of the wrong length or with a non-finite Q or |u|^2 |v|^2 a
    plain ValueError."""
    m = len(geo.point)
    if u.shape != (m,) or v.shape != (m,):
        raise ValueError(f"plane vectors need {m} components, got {u.tolist()}, {v.tolist()}")
    g = geo.metric
    with np.errstate(over="ignore", invalid="ignore"):      # refused just below
        (nu, nuv), (_, nv) = riem_gram(geo.riem_frame, np.array((u, v))).tolist()
        guu, gvv, guv = float(u @ g @ u), float(v @ g @ v), float(u @ g @ v)
        q = guu * gvv - guv * guv
    if not (math.isfinite(q) and math.isfinite(nu * nv)):
        raise ValueError(f"plane discriminant Q={q:e} of {u.tolist()}, {v.tolist()} "
                         f"is not finite at {geo.point.tolist()}")
    if nu == 0.0 or nv == 0.0:
        raise DependentVectorsError(f"zero spanning vector at {geo.point.tolist()}")
    if nu * nv - nuv * nuv <= DEPENDENCE_EPS * nu * nv:
        raise DependentVectorsError(
            f"spanning vectors are linearly dependent at {geo.point.tolist()}")
    band = PLANE_EPS * nu * nv
    if q < -band:
        return PlaneType.TIMELIKE, q
    if q > band:
        return PlaneType.SPACELIKE, q
    return PlaneType.DEGENERATE, q


def plane_type(M: ManifoldSpec, pi: TangentPlane) -> PlaneType:
    """Classify a tangent plane by the sign of its discriminant Q."""
    return _spanning_pair(point_geometry(M, pi.point), pi.u, pi.v)[0]


def sectional_numerator(geo: PointGeometry, u: np.ndarray, v: np.ndarray) -> float:
    """g(R(u,v)v, u), the curvature pairing of a spanning pair."""
    return float(np.einsum("ijkl,i,j,k,l->", geo.riemann, u, v, u, v))


def jacobi_form(geo: PointGeometry, x: np.ndarray) -> np.ndarray:
    """r_ij = g(R(e_i,x)x, e_j) in the chart basis: vᵀ r v = g(R(v,x)x, v)."""
    return np.einsum("iajb,a,b->ij", geo.riemann, x, x)


def sectional_curvature(M: ManifoldSpec, pi: TangentPlane) -> float:
    """K(plane) = g(R(u,v)v, u)/Q; basis independent, defined only away
    from degenerate planes (use the null sectional curvature there)."""
    geo = point_geometry(M, pi.point)
    u, v = pi.u, pi.v
    kind, q = _spanning_pair(geo, u, v)
    if kind is PlaneType.DEGENERATE:
        raise DegeneratePlaneError(
            f"plane discriminant Q={q:e} is degenerate at {pi.point.tolist()}; "
            "use null_sectional_curvature")
    return sectional_numerator(geo, u, v) / q


def null_sectional_curvature(M: ManifoldSpec, p, x, v) -> float:
    """Curvature of the degenerate plane span{v, x} at p with respect to
    the lightlike vector x:  g(R(v,x)x, v) / g(v,v).

    Independent of which non-lightlike v in the plane is used and of the
    sign of x.
    """
    geo = point_geometry(M, p)
    g = geo.metric
    xc, vc = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if _causal(geo, xc) is not CausalCharacter.LIGHTLIKE:
        raise NullCurvatureInputError("reference vector is not lightlike")
    if _causal(geo, vc) in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        raise NullCurvatureInputError("spanning vector must be non-lightlike")
    try:
        _spanning_pair(geo, vc, xc)
    except DependentVectorsError as e:
        raise NullCurvatureInputError(str(e)) from None
    nx, nv = np.diagonal(riem_gram(geo.riem_frame, np.array((xc, vc)))).tolist()
    gxv = float(xc @ g @ vc)
    if abs(gxv) > PLANE_EPS * np.sqrt(nx * nv):
        raise NullCurvatureInputError(
            f"span{{v, x}} is not degenerate (g(v,x)={gxv:e}); use sectional_curvature")
    return sectional_numerator(geo, vc, xc) / float(vc @ g @ vc)


class ScalarDerivs:
    """A scalar expression with its exact first and second derivative
    trees, differentiated once and reused across many points.  The
    derivative trees are deeper than the expression: one too deep for the
    recursive walkers is a :class:`~lorentzgeo.manifold.SpecError`
    naming ``what``.

    The public queries take a point.  A caller that already holds the
    point's geometry and its bindings (``M.bindings(geo.point)``) reads
    the covariant Hessian by :meth:`_covariant_hessian_at` instead, so the
    point is wrapped, bound and looked up once per query."""

    def __init__(self, M: ManifoldSpec, e: Expr, what: str = "scalar"):
        self.M = M
        self.expr = e
        self.what = what
        names = M.coord_names()
        with _entry(what):
            self.grad_trees = [ex.differentiate(e, n) for n in names]
            # the Hessian is symmetric: only its i <= j trees are built
            self.hess_trees = {(i, j): ex.differentiate(self.grad_trees[i], names[j])
                               for i in range(M.dim) for j in range(i, M.dim)}

    @cached_property
    def mentioned(self) -> set[str]:
        """The names the expression's tree mentions (``ex.free_names``),
        walked for once: the grid scan reads them at every call."""
        return ex.free_names(self.expr)

    def value(self, p) -> float:
        return self.M.evaluate(self.expr, p)

    def gradient(self, p) -> np.ndarray:
        return self._gradient(self.M.bindings(self.M.wrap_point(p)))

    def coordinate_hessian(self, p) -> np.ndarray:
        return self._hessian(self.M.bindings(self.M.wrap_point(p)))

    def covariant_hessian(self, p) -> np.ndarray:
        """(Hess phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi."""
        geo = point_geometry(self.M, p)
        return self._covariant_hessian_at(geo, self.M.bindings(geo.point))

    def _covariant_hessian_at(self, geo: PointGeometry, b: dict[str, float]) -> np.ndarray:
        """:meth:`covariant_hessian` at the point of ``geo``, whose bindings are ``b``."""
        grad = self._gradient(b)
        h = self._hessian(b) - np.einsum("kij,k->ij", geo.christoffel, grad)
        return 0.5 * (h + h.T)

    def _gradient(self, b: dict[str, float]) -> np.ndarray:
        with _entry(self.what):
            return np.array([ex.evaluate(t, b) for t in self.grad_trees])

    def _hessian(self, b: dict[str, float]) -> np.ndarray:
        h = np.empty((self.M.dim, self.M.dim))
        with _entry(self.what):
            for (i, j), t in self.hess_trees.items():
                h[i, j] = h[j, i] = ex.evaluate(t, b)
        return h


def energy_derivs(M: ManifoldSpec, xname: str) -> ScalarDerivs:
    """:class:`ScalarDerivs` of the field energy f = g(X,X)/2, built once
    per spec and field.

    The spec keeps them, so they refer to the spec weakly: a reference
    cycle would keep a spec nobody holds, with its memo of the last batch
    of geometries, alive until the cyclic garbage collector runs."""
    derivs = M._energy.get(xname)
    if derivs is None:
        derivs = M._energy[xname] = ScalarDerivs(
            weakref.proxy(M), field_energy_expr(M, xname), f"energy of field '{xname}'")
    return derivs


def shape_operator(geo: PointGeometry, X: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Matrix of v -> -nabla_v X in the chart basis, from X and
    dX[j,i] = d_j X^i at the point of ``geo``: A[i,j] = -(d_j X^i + Gamma^i_jk X^k)."""
    return -(dX.T + np.einsum("ijk,k->ij", geo.christoffel, X))


def symmetry_residuals(geo: PointGeometry) -> dict[str, float]:
    """Max deviation from the curvature tensor symmetries and the cyclic
    first-Bianchi identity, relative to the tensor's magnitude."""
    R = geo.riemann
    scale = max(float(np.max(np.abs(R))), _TINY)
    out = {
        "antisym_first": float(np.max(np.abs(R + R.transpose(1, 0, 2, 3)))) / scale,
        "antisym_last": float(np.max(np.abs(R + R.transpose(0, 1, 3, 2)))) / scale,
        "pair": float(np.max(np.abs(R - R.transpose(2, 3, 0, 1)))) / scale,
        "bianchi": float(np.max(np.abs(
            R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)))) / scale,
    }
    return out

