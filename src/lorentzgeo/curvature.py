"""Connection and curvature kernel.

Everything here is a pure function of (spec, point).  Metric derivatives
come from exact expression trees evaluated pointwise; the tensor algebra
on top is plain dense numpy (dimensions in this engine are small, so
clarity beats symmetry-compressed storage).

:func:`point_geometry` is the single evaluation of the metric jet at a
point: in this module it alone calls ``metric_derivs`` (one call of the
spec's compiled jet function), refuses a degenerate metric and inverts g.
The spec memoizes the geometry of the last point asked for (keyed on the
wrapped point, so a periodic image hits too) and its arrays
are read-only, so every helper simply asks for the geometry at its point:
nothing is handed down, and g, Gamma and R are built once per point.
:func:`energy_derivs` likewise differentiates f = g(X,X)/2 once per spec
and field.

Sign conventions, pinned once for the whole engine:

* curvature operator  R(U,V)W = \\nabla_U \\nabla_V W - \\nabla_V \\nabla_U W
  - \\nabla_[U,V] W
* lowered tensor      R[i,j,k,l] = g(R(e_i,e_j) e_l, e_k), which satisfies
  R_ijkl = -R_jikl = -R_ijlk = R_klij and the cyclic first-index identity
* sectional curvature K(plane) = g(R(u,v)v, u) / Q with
  Q = g(u,u)g(v,v) - g(u,v)^2

Under this pairing the round 2-sphere has K = +1; the gate test in the
suite holds the whole triple (sphere, Lorentz Hopf sphere, Hessian
identity) to a single convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .manifold import (
    ManifoldSpec,
    TangentPlane,
    TangentVector,
    CausalCharacter,
    causal_character,
    field_energy_expr,
    metric_inverse,
    plane_discriminant,
    riem_frame,
    riem_inner,
)

# |Q| at or below this (Riemannianized) threshold routes to the
# degenerate-plane error; callers then use the null sectional curvature.
PLANE_Q_TOL = 1e-9
SYMMETRY_TOL = 1e-8


class DegeneratePlaneError(ValueError):
    """Plane discriminant too small for ordinary sectional curvature."""


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
    memo_key, memo = M._geometry
    if key == memo_key:
        return memo
    g, dg, ddg = M.metric_derivs(p)
    ginv = metric_inverse(g, p)

    # dg[k,i,j] = d_k g_ij ; ddg[l,k,i,j] = d_l d_k g_ij
    # term[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    term = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("al,ijl->aij", ginv, term)

    dginv = -np.einsum("ac,bcd,dl->bal", ginv, dg, ginv)               # d_b g^al
    # dterm[b,i,j,l] = d_b term[i,j,l]
    dterm = ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1)
    dgamma = 0.5 * (np.einsum("bal,ijl->baij", dginv, term)
                    + np.einsum("al,bijl->baij", ginv, dterm))         # d_b Gamma^a_ij

    # up[a,i,j,k]: a-component of R(e_i,e_j) e_k
    up = (np.einsum("iajk->aijk", dgamma)
          - np.einsum("jaik->aijk", dgamma)
          + np.einsum("aim,mjk->aijk", gamma, gamma)
          - np.einsum("ajm,mik->aijk", gamma, gamma))

    lowered = np.einsum("km,mijl->ijkl", g, up)
    ricci = np.einsum("mmjk->jk", up)
    scalar = float(np.einsum("jk,jk->", ginv, ricci))
    frame = riem_frame(g)
    for a in (p, g, ginv, dg, gamma, lowered, ricci) + frame:
        a.flags.writeable = False
    geo = PointGeometry(point=p, metric=g, inverse=ginv, dmetric=dg, christoffel=gamma,
                        riemann=lowered, ricci=ricci, scalar=scalar, riem_frame=frame)
    M._geometry = (key, geo)
    return geo


def christoffel_at(M: ManifoldSpec, p) -> np.ndarray:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    return point_geometry(M, p).christoffel


def riemann_at(M: ManifoldSpec, p) -> np.ndarray:
    """Lowered curvature tensor R[i,j,k,l] = g(R(e_i,e_j)e_l, e_k)."""
    return point_geometry(M, p).riemann


def ricci_at(M: ManifoldSpec, p) -> tuple[np.ndarray, float]:
    geo = point_geometry(M, p)
    return geo.ricci, geo.scalar


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
    q = plane_discriminant(geo.metric, u, v)
    nu, nv = riem_inner(geo.riem_frame, u, u), riem_inner(geo.riem_frame, v, v)
    if nu == 0.0 or nv == 0.0 or abs(q) <= PLANE_Q_TOL * nu * nv:
        raise DegeneratePlaneError(
            f"plane discriminant Q={q:e} is degenerate at {pi.point.tolist()}; "
            "use null_sectional_curvature")
    return sectional_numerator(geo, u, v) / q


def null_sectional_curvature(M: ManifoldSpec, p, x: TangentVector, v: TangentVector) -> float:
    """Curvature of the degenerate plane span{v, x} with respect to the
    lightlike vector x:  g(R(v,x)x, v) / g(v,v).

    Independent of which non-lightlike v in the plane is used and of the
    sign of x.
    """
    geo = point_geometry(M, p)
    g = geo.metric
    xc, vc = x.components, v.components
    if causal_character(M, TangentVector(p, xc), geo=geo) is not CausalCharacter.LIGHTLIKE:
        raise NullCurvatureInputError("reference vector is not lightlike")
    cv = causal_character(M, TangentVector(p, vc), geo=geo)
    if cv in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        raise NullCurvatureInputError("spanning vector must be non-lightlike")
    nx, nv = riem_inner(geo.riem_frame, xc, xc), riem_inner(geo.riem_frame, vc, vc)
    gram = np.array([[np.dot(xc, xc), np.dot(xc, vc)], [np.dot(xc, vc), np.dot(vc, vc)]])
    if np.linalg.det(gram) <= 1e-12 * np.dot(xc, xc) * np.dot(vc, vc):
        raise NullCurvatureInputError("spanning vectors are linearly dependent")
    gxv = float(xc @ g @ vc)
    if abs(gxv) > PLANE_Q_TOL * np.sqrt(nx * nv):
        raise NullCurvatureInputError(
            f"span{{v, x}} is not degenerate (g(v,x)={gxv:e}); use sectional_curvature")
    return sectional_numerator(geo, vc, xc) / float(vc @ g @ vc)


class ScalarDerivs:
    """A scalar expression with its exact first and second derivative
    trees, differentiated once and reused across many points."""

    def __init__(self, M: ManifoldSpec, e: Expr):
        self.M = M
        self.expr = e
        names = M.coord_names()
        self.grad_trees = [ex.differentiate(e, n) for n in names]
        # the Hessian is symmetric: only its i <= j trees are built
        self.hess_trees = {(i, j): ex.differentiate(self.grad_trees[i], names[j])
                           for i in range(M.dim) for j in range(i, M.dim)}

    def value(self, p) -> float:
        return self.M.evaluate(self.expr, p)

    def gradient(self, p) -> np.ndarray:
        b = self.M.bindings(self.M.wrap_point(p))
        return np.array([ex.evaluate(t, b) for t in self.grad_trees])

    def coordinate_hessian(self, p) -> np.ndarray:
        b = self.M.bindings(self.M.wrap_point(p))
        h = np.empty((self.M.dim, self.M.dim))
        for (i, j), t in self.hess_trees.items():
            h[i, j] = h[j, i] = ex.evaluate(t, b)
        return h


def energy_derivs(M: ManifoldSpec, xname: str) -> ScalarDerivs:
    """:class:`ScalarDerivs` of the field energy f = g(X,X)/2, built once
    per spec and field."""
    derivs = M._energy.get(xname)
    if derivs is None:
        derivs = M._energy[xname] = ScalarDerivs(M, field_energy_expr(M, xname))
    return derivs


def _as_scalar_expr(M: ManifoldSpec, phi) -> Expr:
    if isinstance(phi, Expr):
        return phi
    if isinstance(phi, str):
        return M.scalars[phi]
    raise TypeError("phi must be a scalar-field name or an expression")


def hessian_scalar_at(M: ManifoldSpec, phi, p,
                      derivs: ScalarDerivs | None = None) -> np.ndarray:
    """Covariant Hessian (Hess phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi."""
    if derivs is None:
        derivs = ScalarDerivs(M, _as_scalar_expr(M, phi))
    gamma = point_geometry(M, p).christoffel
    grad = derivs.gradient(p)
    h = derivs.coordinate_hessian(p) - np.einsum("kij,k->ij", gamma, grad)
    return 0.5 * (h + h.T)


def shape_operator_at(M: ManifoldSpec, xname: str, p) -> np.ndarray:
    """Matrix of v -> -nabla_v X in the chart basis:
    A[i,j] = -(d_j X^i + Gamma^i_jk X^k)."""
    X = M.field_eval(xname, p)
    dX = M.field_derivs(xname, p)       # dX[j,i] = d_j X^i
    return -(dX.T + np.einsum("ijk,k->ij", point_geometry(M, p).christoffel, X))


def gradient_vector(M: ManifoldSpec, phi, p) -> np.ndarray:
    """grad phi = g^{ij} d_j phi as chart components."""
    e = _as_scalar_expr(M, phi)
    b = M.bindings(M.wrap_point(p))
    grad = np.array([ex.evaluate(ex.differentiate(e, n), b) for n in M.coord_names()])
    return point_geometry(M, p).inverse @ grad


def symmetry_residuals(geo: PointGeometry) -> dict[str, float]:
    """Max deviation from the curvature tensor symmetries and the cyclic
    first-Bianchi identity, relative to the tensor's magnitude."""
    R = geo.riemann
    scale = max(float(np.max(np.abs(R))), 1e-300)
    out = {
        "antisym_first": float(np.max(np.abs(R + R.transpose(1, 0, 2, 3)))) / scale,
        "antisym_last": float(np.max(np.abs(R + R.transpose(0, 1, 3, 2)))) / scale,
        "pair": float(np.max(np.abs(R - R.transpose(2, 3, 0, 1)))) / scale,
        "bianchi": float(np.max(np.abs(
            R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)))) / scale,
    }
    return out


def metric_compatibility_residual(M: ManifoldSpec, p) -> float:
    """Covariant derivative of g computed from Gamma; vanishes for the
    Levi-Civita connection."""
    geo = point_geometry(M, p)
    g, dg, gamma = geo.metric, geo.dmetric, geo.christoffel
    # nabla_k g_ij = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
    cov = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    scale = max(float(np.max(np.abs(g))), 1e-300)
    return float(np.max(np.abs(cov))) / scale
