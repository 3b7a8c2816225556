"""Lie-derivative machinery and the skew operator A_X = -nabla X.

Classifies vector fields by how their flow deforms the metric
(isometric / homothetic / conformal) from the exact L_X g trees, sampling
only when those do not all fold to zero at build time.  Builds the X-perp
frame of a point once (:func:`perp_frame`, with the Jacobi form on it,
the point's geometry and X) by one rule: the euclidean null space of gX
(and of X itself when X is lightlike, which leaves a complement of X in
X-perp that represents the quotient X-perp / span{X}), whitened by one
Cholesky factor so that the induced product is the identity.
:func:`restricted_operator` returns A_X on that frame as a plain matrix;
it and :func:`lie_derivative` are pure in X and dX, which a caller
evaluates once per point.  Extracts kernel directions, and cross-checks
the Hessian identity

    Hess f (U,V) = -g(R(U,X)X, V) + g(A_X U, A_X V),   f = g(X,X)/2,

which ties the expression, curvature, and symmetry pipelines together.

A conformal L_X g = sigma g gives X(f) = sigma f, so where f != 0

    X(sigma) = X(X(f))/f - sigma^2,   X(X(f)) = Xᵀ (d^2 f) X + X dX df.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .curvature import (
    _TINY,
    PointGeometry,
    ScalarDerivs,
    causal_character,
    energy_derivs,
    jacobi_form,
    point_geometry,
    shape_operator,
)
from .manifold import (
    CausalCharacter,
    ManifoldSpec,
    _entry,
    riem_gram,
)

CLASSIFY_TOL = 1e-8
KERNEL_REL_TOL = 1e-7
KERNEL_ABS_TOL = 1e-10
SKEW_TOL = 1e-6           # relative |op + op^T| a kernel_direction input may carry
INVARIANCE_TOL = 1e-6     # relative leak of A_X out of X-perp a restriction may carry


class FieldTag(enum.Enum):
    KILLING = "killing"
    HOMOTHETIC = "homothetic"
    CONFORMAL = "conformal"
    NONE = "none"


@dataclass(frozen=True)
class FieldClass:
    """Most specific symmetry tag whose residual passes tolerance.

    ``sample_count == 0`` means the verdict is exact: every L_X g tree
    folded to zero, and nothing was sampled."""

    tag: FieldTag
    lam: float | None
    residual: float
    sample_count: int

    @property
    def is_homothetic_or_killing(self) -> bool:
        return self.tag in (FieldTag.KILLING, FieldTag.HOMOTHETIC)


class SubspaceError(ValueError):
    """X is neither timelike nor lightlike, so X-perp has no construction,
    or A_X fails to preserve X-perp."""


class KernelExtractionError(ValueError):
    """No near-kernel direction where one is guaranteed."""


def lie_derivative(geo: PointGeometry, X: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k at the point
    of ``geo``, from X and dX[j,i] = d_j X^i there."""
    dXg = dX @ geo.metric
    return np.einsum("k,kij->ij", X, geo.dmetric) + dXg + dXg.T


def lie_derivative_metric_exprs(M: ManifoldSpec, xname: str) -> list[list[Expr]]:
    """The same Lie derivative as closed-form component expressions.
    L_X g is symmetric, so the i <= j trees are built and (j, i) shares
    the tree of (i, j)."""
    m = M.dim
    X = M.fields[xname]
    dX = M._dfields[xname]                  # dX[j][i] = d_j X^i tree
    out = [[ex.ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            total = ex.ZERO
            for k in range(m):
                total = ex.add(total, ex.mul(X[k], M._dg[k][i][j]))
                total = ex.add(total, ex.mul(M.metric[k][j], dX[i][k]))
                total = ex.add(total, ex.mul(M.metric[i][k], dX[j][k]))
            out[i][j] = out[j][i] = total
    return out


def require_tolerance(tol: float) -> None:
    """Refuse a tolerance keyword that is negative or not finite: a nan
    band passes nothing, an infinite one everything, and a negative one
    is no band at all."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def classify_field(M: ManifoldSpec, xname: str, tol: float = CLASSIFY_TOL) -> FieldClass:
    """Fit L_X g against {0, lam*g, sigma(p)*g}.

    The exact L_X g trees are built once per spec and field.  When every
    entry folds to zero at build time, X is Killing exactly: residual 0
    and ``sample_count == 0``, with nothing sampled or evaluated.
    Otherwise the trees are evaluated at 24 seeded samples: lam comes
    from a joint least-squares fit; sigma is the pointwise
    trace(g^{-1} L)/m.  Residuals are max entrywise deviations after
    normalizing by the metric magnitude at each point, and the most
    specific tag under tolerance wins.  ``tol`` must be finite and
    non-negative.
    """
    require_tolerance(tol)
    m = M.dim
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    trees = M._lie.get(xname)
    if trees is None:
        trees = M._lie[xname] = lie_derivative_metric_exprs(M, xname)
    if all(trees[i][j] == ex.ZERO for i, j in upper):
        return FieldClass(FieldTag.KILLING, 0.0, 0.0, 0)
    samples = M.sample_points(24, np.random.default_rng(0))

    g = M.evaluate_symmetric(M.metric, samples)
    with _entry(f"L_X g of field '{xname}'"):
        L = M.evaluate_symmetric(trees, samples)
    scales = np.maximum(np.max(np.abs(g), axis=(1, 2)), _TINY)
    sigmas = np.trace(np.linalg.inv(g) @ L, axis1=1, axis2=2) / m
    lam = float(np.sum(L * g)) / max(float(np.sum(g * g)), _TINY)
    r_killing, r_homothetic, r_conformal = (
        float(np.max(np.max(np.abs(dev), axis=(1, 2)) / scales))
        for dev in (L, L - lam * g, L - sigmas[:, None, None] * g))

    n = len(samples)
    if r_killing <= tol:
        return FieldClass(FieldTag.KILLING, 0.0, r_killing, n)
    if r_homothetic <= tol:
        return FieldClass(FieldTag.HOMOTHETIC, float(lam), r_homothetic, n)
    if r_conformal <= tol:
        return FieldClass(FieldTag.CONFORMAL, None, r_conformal, n)
    return FieldClass(FieldTag.NONE, None, min(r_killing, r_homothetic, r_conformal), n)


def skew_adjoint_residual(M: ManifoldSpec, xname: str, p) -> float:
    """max |g(A_X u, v) + g(u, A_X v)| over chart basis pairs, normalized
    by the operator's magnitude.  Zero exactly when X is Killing."""
    geo = point_geometry(M, p)
    g, A = geo.metric, shape_operator(geo, M.field_eval(xname, geo), M.field_derivs(xname, geo))
    sym = A.T @ g + g @ A                   # [u,v] slot: g(Au, v) + g(u, Av)
    denom = max(float(np.max(np.abs(g @ A))), float(np.max(np.abs(A.T @ g))), _TINY)
    return float(np.max(np.abs(sym))) / denom


# ---------------------------------------------------------------------------
# Bases of X-perp and the restricted / quotient operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerpFrame:
    """X-perp at one point: the point's geometry, X there, its causal
    character, a basis B (rows) orthonormal for the induced product, and
    the Jacobi form J on B: span{cB, X} of a unit c has curvature cᵀJc,
    of kind ``curvature_kind``."""

    geo: PointGeometry
    field: np.ndarray
    causal: CausalCharacter        # TIMELIKE or LIGHTLIKE
    basis: np.ndarray
    jacobi: np.ndarray

    @property
    def curvature_kind(self) -> str:
        return "sectional" if self.causal is CausalCharacter.TIMELIKE else "null_sectional"


def perp_frame(M: ManifoldSpec, xname: str, at) -> PerpFrame:
    """The :class:`PerpFrame` of X at a point or at a
    :class:`PointGeometry`, which is used as it is (a point's geometry is
    :func:`point_geometry`'s).  The causal character of X there picks
    what the basis must be euclidean-orthogonal to, here and nowhere
    else, and one rule does the rest: the rows span the null
    space of ``against`` (from its SVD) and are whitened by the Cholesky
    factor of their Gram matrix, so that B g Bᵀ = I.

    Timelike X: ``against`` is gX, the m-1 rows span X-perp, which is
    spacelike, and J = B r Bᵀ / g(X,X) (r of :func:`jacobi_form`) holds
    sectional curvatures.  Lightlike X lies in its own X-perp:
    ``against`` is gX and X, and the m-2 rows span a complement of X in
    X-perp that represents the quotient X-perp / span{X}; J = B r Bᵀ
    holds null sectional curvatures g(R(v,X)X,v)/g(v,v).  A spacelike or
    zero X raises :class:`SubspaceError` naming the character.

    The causal band is the only guard the basis needs, and it is why the
    Cholesky factorization cannot fail.  In a frame where
    g = diag(-1, 1, ..., 1) and the Riemannianized metric is the
    identity, the least g(w,w)/|w|^2 over X-perp equals |g(X,X)|/|X|^2,
    so outside the lightlike band no direction of X-perp nears the null
    cone.  On the X-perp of a lightlike X the induced product is positive
    semidefinite with kernel span{X}, so it is definite on a complement.
    """
    geo = at if type(at) is PointGeometry else point_geometry(M, at)
    g = geo.metric
    X = M.field_eval(xname, geo)
    cc = causal_character(M, geo, X)
    gX = g @ X
    if cc is CausalCharacter.TIMELIKE:
        against = [gX]
    elif cc is CausalCharacter.LIGHTLIKE:
        against = [gX, X]
    else:
        raise SubspaceError(f"field '{xname}' is {cc.value} at {geo.point.tolist()}; "
                            "X-perp is built for a timelike or lightlike X only")
    rows = np.linalg.svd(np.array(against))[2][len(against):]
    basis = np.linalg.solve(np.linalg.cholesky(rows @ g @ rows.T), rows)
    J = basis @ jacobi_form(geo, X) @ basis.T
    if cc is CausalCharacter.TIMELIKE:
        J = J / float(X @ gX)
    return PerpFrame(geo=geo, field=X, causal=cc, basis=basis, jacobi=J)


def restricted_operator(frame: PerpFrame, dX: np.ndarray) -> np.ndarray:
    """The (d, d) matrix of A_X, from the frame's X and dX[j,i] = d_j X^i,
    on the frame's d basis rows: A_X restricted to the spacelike X-perp
    (d = m-1) for a timelike X, induced on the quotient with its
    positive-definite product (d = m-2) for a lightlike X.

    For any field g(X, A_X v) = -g(X, nabla_v X) = -df(v) with
    f = g(X,X)/2, so A_X leaks out of X-perp exactly by df on X-perp.  A
    leak beyond ``INVARIANCE_TOL`` raises :class:`SubspaceError`, naming
    the point: it is not a critical point of f.
    """
    geo, X, reps = frame.geo, frame.field, frame.basis
    g = geo.metric
    images = shape_operator(geo, X, dX) @ reps.T    # column i: A_X applied to reps[i]
    # the squared Riemannianized norms of X and of each image, from one Gram
    nx2, *img2 = np.diagonal(riem_gram(geo.riem_frame, np.vstack((X, images.T)))).tolist()
    nrm_x = math.sqrt(max(nx2, _TINY))
    # a vanishing operator preserves everything; floor its magnitude so
    # pure float noise (of df, which the leak equals) does not masquerade
    # as a leak.  That noise grows with the curvature, and so does the floor.
    opmag = math.sqrt(max(img2, default=0.0))
    floor = 1e-9 * (1.0 + nrm_x) * max(1.0, float(np.max(np.abs(geo.riemann))))
    leak = float(np.max(np.abs(X @ g @ images), initial=0.0)) / (max(opmag, floor) * nrm_x)
    if leak > INVARIANCE_TOL:
        raise SubspaceError(
            f"A_X does not preserve X-perp at {geo.point.tolist()} (residual {leak:.3e}): "
            "the point is not a critical point of f = g(X,X)/2")
    return reps @ g @ images


def kernel_direction(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit kernel direction v of a skew operator on an inner-product
    space, and its residual |op v| / |op| (|op v| when |op| is at or below
    ``KERNEL_ABS_TOL``), which decides whether v is accepted.

    Odd dimension guarantees a kernel.  When none is found (an
    even-dimensional operator may have none, an odd-dimensional one
    only through an upstream inconsistency) this raises
    :class:`KernelExtractionError`, as it does for a non-skew input.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    scale = float(np.max(np.abs(matrix)))
    if scale > KERNEL_ABS_TOL and \
            float(np.max(np.abs(matrix + matrix.T))) / scale > SKEW_TOL:
        raise KernelExtractionError("operator is not skew-adjoint within tolerance")
    if n == 1:
        v, s = np.array([1.0]), np.abs(matrix[0])
    else:
        _, s, vt = np.linalg.svd(matrix)
        v = vt[-1]
    opnorm, resid = float(s[0]), float(np.linalg.norm(matrix @ v))
    relative = opnorm > KERNEL_ABS_TOL
    residual = resid / opnorm if relative else resid
    if not residual <= (KERNEL_REL_TOL if relative else KERNEL_ABS_TOL):
        raise KernelExtractionError(
            f"{n}-dimensional skew operator without a kernel direction "
            f"(|op v| = {resid:.3e}, |op| = {opnorm:.3e})")
    return v, residual


# ---------------------------------------------------------------------------
# The Hessian identity
# ---------------------------------------------------------------------------

def hessian_identity_sides(M: ManifoldSpec, xname: str, p) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of Hess f = -g(R(.,X)X,.) + g(A_X ., A_X .) in the
    chart basis; valid when X is homothetic (Killing included)."""
    geo = point_geometry(M, p)
    lhs = energy_derivs(M, xname).covariant_hessian(geo)
    X = M.field_eval(xname, geo)
    A = shape_operator(geo, X, M.field_derivs(xname, geo))
    rhs = -jacobi_form(geo, X) + A.T @ geo.metric @ A
    return lhs, rhs


def hessian_identity_residual(M: ManifoldSpec, xname: str, p) -> float:
    """Max entrywise mismatch of the Hessian identity, normalized by the
    larger side's magnitude (absolute when both sides are ~0)."""
    lhs, rhs = hessian_identity_sides(M, xname, p)
    denom = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    diff = float(np.max(np.abs(lhs - rhs)))
    if denom < 1e-12:
        return diff
    return diff / denom


def _conformal_factor(fd: ScalarDerivs, geo: PointGeometry, X: np.ndarray,
                      dX: np.ndarray) -> tuple[float, float]:
    """sigma at the point of ``geo`` and X(sigma) by the identity of the
    module docstring, fd being :func:`energy_derivs` of X, not lightlike."""
    sigma = float(np.trace(geo.inverse @ lie_derivative(geo, X, dX))) / len(X)
    xxf = float(X @ fd.coordinate_hessian(geo) @ X + X @ dX @ fd.gradient(geo))
    # + 0.0: for a Killing X over a negative f the quotient is -0.0
    return sigma, xxf / fd.value(geo) - sigma * sigma + 0.0
