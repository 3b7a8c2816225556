"""Lie-derivative machinery and the skew operator A_X = -nabla X.

Classifies vector fields by how their flow deforms the metric
(isometric / homothetic / conformal) from the exact L_X g trees, sampling
only when those do not all fold to zero at build time.  Builds the
restriction of A_X to the orthogonal complement of X, or to the quotient
of that complement by X itself: the causal character of X at the point
picks which (timelike X the complement, lightlike X the quotient), and
no caller chooses it.  Extracts kernel directions, and cross-checks the
Hessian identity

    Hess f (U,V) = -g(R(U,X)X, V) + g(A_X U, A_X V),   f = g(X,X)/2,

which ties the expression, curvature, and symmetry pipelines together.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .curvature import (
    causal_character,
    energy_derivs,
    jacobi_form,
    point_geometry,
    shape_operator_at,
)
from .manifold import (
    CausalCharacter,
    ManifoldSpec,
    riem_inner,
)

CLASSIFY_TOL = 1e-8
KERNEL_REL_TOL = 1e-7
KERNEL_ABS_TOL = 1e-10
SKEW_TOL = 1e-6           # relative |op + op^T| a kernel_direction input may carry
INVARIANCE_TOL = 1e-6     # relative leak of A_X out of X-perp a restriction may carry

_TINY = 1e-300


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


def lie_derivative_metric_at(M: ManifoldSpec, xname: str, p) -> np.ndarray:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k."""
    geo = point_geometry(M, p)
    X = M.field_eval(xname, p)
    dXg = M.field_derivs(xname, p) @ geo.metric     # dX[j,i] = d_j X^i
    return np.einsum("k,kij->ij", X, geo.dmetric) + dXg + dXg.T


def lie_derivative_metric_exprs(M: ManifoldSpec, xname: str) -> list[list[Expr]]:
    """The same Lie derivative as closed-form component expressions."""
    m = M.dim
    X = M.fields[xname]
    dX = M._dfields[xname]                  # dX[j][i] = d_j X^i tree
    out = [[ex.ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            total = ex.ZERO
            for k in range(m):
                total = ex.add(total, ex.mul(X[k], M._dg[k][i][j]))
                total = ex.add(total, ex.mul(M.metric[k][j], dX[i][k]))
                total = ex.add(total, ex.mul(M.metric[i][k], dX[j][k]))
            out[i][j] = total
    return out


def classify_field(M: ManifoldSpec, xname: str, samples=None,
                   tol: float = CLASSIFY_TOL) -> FieldClass:
    """Fit L_X g against {0, lam*g, sigma(p)*g}.

    When every entry of the exact L_X g trees folds to zero at build
    time, X is Killing exactly: residual 0 and ``sample_count == 0``,
    with nothing sampled or evaluated.  Otherwise the trees are
    evaluated over a sample set: lam comes from a joint least-squares
    fit; sigma is the pointwise trace(g^{-1} L)/m.  Residuals are max
    entrywise deviations after normalizing by the metric magnitude at
    each point, and the most specific tag under tolerance wins.
    """
    if samples is not None:
        samples = np.asarray(samples, dtype=float)
        if len(samples) < 8:
            raise ValueError("need at least 8 sample points spread over the domain")
    m = M.dim
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    trees = lie_derivative_metric_exprs(M, xname)
    if all(trees[i][j] == ex.ZERO for i, j in upper):
        return FieldClass(FieldTag.KILLING, 0.0, 0.0, 0)
    if samples is None:
        samples = M.sample_points(24, np.random.default_rng(0))

    g = M.evaluate_symmetric(M.metric, samples)
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
    g = point_geometry(M, p).metric
    A = shape_operator_at(M, xname, p)
    sym = A.T @ g + g @ A                   # [u,v] slot: g(Au, v) + g(u, Av)
    denom = max(float(np.max(np.abs(g @ A))), float(np.max(np.abs(A.T @ g))), _TINY)
    return float(np.max(np.abs(sym))) / denom


# ---------------------------------------------------------------------------
# Bases of X-perp and the restricted / quotient operators
# ---------------------------------------------------------------------------

def _span_basis(vectors: np.ndarray, rank: int) -> np.ndarray:
    """Euclidean-orthonormal basis (rows) of the span of the given rows."""
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    return vt[:rank]


def orthogonal_complement_basis(M: ManifoldSpec, xname: str, p) -> np.ndarray:
    """Basis (rows) of X-perp at p, orthonormal for the induced product;
    the causal character of X at p picks the construction.

    Timelike X: the m-1 rows span X-perp, which is spacelike.  Lightlike
    X lies in its own X-perp: the m-2 rows then represent the quotient
    X-perp / span{X}, spanning a complement of X inside X-perp on which
    the induced product is positive definite.  A spacelike or zero X
    raises :class:`SubspaceError` naming the character.

    The causal band is the only guard the basis needs.  In a frame where
    g = diag(-1, 1, ..., 1) and the Riemannianized metric is the
    identity, the least g(w,w)/|w|^2 over X-perp equals |g(X,X)|/|X|^2,
    so outside the lightlike band no direction of X-perp nears the null
    cone.
    """
    geo = point_geometry(M, p)
    g = geo.metric
    X = M.field_eval(xname, p)
    cc = causal_character(M, p, X)
    m = M.dim
    gX = g @ X
    if cc is CausalCharacter.TIMELIKE:
        # rows: e_i - (g(e_i,X)/g(X,X)) X, the g-projection onto X-perp
        proj = np.eye(m) - np.outer(gX, X) / float(X @ gX)
        candidates = _span_basis(proj, m - 1)
    elif cc is CausalCharacter.LIGHTLIKE:
        # X-perp = euclidean nullspace of the covector gX
        _, _, vt = np.linalg.svd(gX.reshape(1, -1))
        perp = vt[1:]                      # m-1 rows spanning X-perp
        # drop the X direction from the representatives
        reduced = perp - np.outer(perp @ X, X) / float(X @ X)
        candidates = _span_basis(reduced, m - 2)
    else:
        raise SubspaceError(f"field '{xname}' is {cc.value} at {geo.point.tolist()}; "
                            "X-perp is built for a timelike or lightlike X only")

    basis = []
    for w in candidates:
        for e in basis:
            w = w - float(w @ g @ e) * e
        basis.append(w / np.sqrt(float(w @ g @ w)))
    return np.array(basis)


def restriction_matrix(M: ManifoldSpec, xname: str, p,
                       reps: np.ndarray) -> tuple[np.ndarray, float]:
    """Matrix of A_X in the given g-orthonormal representative basis,
    plus the residual of A_X leaking out of X-perp."""
    geo = point_geometry(M, p)
    g, frame = geo.metric, geo.riem_frame
    A = shape_operator_at(M, xname, p)
    X = M.field_eval(xname, p)
    nrm_x = math.sqrt(max(riem_inner(frame, X, X), _TINY))
    reps = np.reshape(reps, (-1, M.dim))    # a 2-D quotient basis has no rows
    images = A @ reps.T                     # column i: A_X applied to reps[i]
    mat = reps @ g @ images
    # a vanishing operator preserves everything; floor its magnitude so
    # pure float noise (of df, which the leak equals) does not masquerade
    # as a leak.  That noise grows with the curvature, and so does the floor.
    opmag = max((math.sqrt(riem_inner(frame, img, img)) for img in images.T), default=0.0)
    floor = 1e-9 * (1.0 + nrm_x) * max(1.0, float(np.max(np.abs(geo.riemann))))
    leak = float(np.max(np.abs(X @ g @ images), initial=0.0)) / (max(opmag, floor) * nrm_x)
    return mat, leak


@dataclass(frozen=True)
class RestrictedOperator:
    """A_X restricted to X-perp (mode 'orthogonal', timelike X) or
    induced on X-perp / span{X} (mode 'quotient', lightlike X), in a
    basis that is orthonormal for the induced product."""

    mode: str
    point: np.ndarray
    basis: np.ndarray              # rows: representative vectors
    matrix: np.ndarray
    invariance_residual: float


def restricted_operator(M: ManifoldSpec, xname: str, p) -> RestrictedOperator:
    """Build the restriction of A_X that the causal character of X at p
    calls for, on the basis of :func:`orthogonal_complement_basis`.

    Timelike X gives mode 'orthogonal', on the spacelike complement of
    dimension m-1; lightlike X gives mode 'quotient', on the
    (m-2)-dimensional quotient with its positive-definite induced
    product.  A spacelike or zero X raises :class:`SubspaceError`, and so
    does a leak of A_X out of X-perp beyond ``INVARIANCE_TOL``, which
    signals a non-homothetic input.
    """
    p = M.wrap_point(p)
    reps = orthogonal_complement_basis(M, xname, p)
    mat, leak = restriction_matrix(M, xname, p, reps)
    if leak > INVARIANCE_TOL:
        raise SubspaceError(
            f"A_X does not preserve the subspace (residual {leak:.3e}); "
            "the field is unlikely to be homothetic")
    mode = "orthogonal" if len(reps) == M.dim - 1 else "quotient"
    return RestrictedOperator(mode=mode, point=p, basis=reps, matrix=mat,
                              invariance_residual=leak)


def kernel_direction(matrix: np.ndarray) -> np.ndarray:
    """Unit kernel direction of a skew operator on an inner-product space.

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
        return np.array([1.0])
    _, s, vt = np.linalg.svd(matrix)
    v = vt[-1]
    opnorm = float(s[0])
    resid = float(np.linalg.norm(matrix @ v))
    ok = resid <= KERNEL_REL_TOL * opnorm if opnorm > KERNEL_ABS_TOL \
        else resid <= KERNEL_ABS_TOL
    if not ok:
        raise KernelExtractionError(
            f"{n}-dimensional skew operator without a kernel direction "
            f"(|op v| = {resid:.3e}, |op| = {opnorm:.3e})")
    return v


# ---------------------------------------------------------------------------
# The Hessian identity
# ---------------------------------------------------------------------------

def hessian_identity_sides(M: ManifoldSpec, xname: str, p) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of Hess f = -g(R(.,X)X,.) + g(A_X ., A_X .) in the
    chart basis; valid when X is homothetic (Killing included)."""
    p = M.wrap_point(p)
    geo = point_geometry(M, p)
    lhs = energy_derivs(M, xname).covariant_hessian(p)
    X = M.field_eval(xname, p)
    A = shape_operator_at(M, xname, p)
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


# ---------------------------------------------------------------------------
# Conformal factor sigma with exact directional derivatives
# ---------------------------------------------------------------------------

class ConformalFactor:
    """sigma(p) = trace(g^{-1} L_X g)/m and its derivative along X,
    assembled from exact derivative trees (no finite differences)."""

    def __init__(self, M: ManifoldSpec, xname: str):
        self.M = M
        self.xname = xname
        self._l_trees = lie_derivative_metric_exprs(M, xname)
        names = M.coord_names()
        self._dl_trees = [
            [[ex.differentiate(self._l_trees[i][j], n) for j in range(M.dim)]
             for i in range(M.dim)]
            for n in names
        ]

    def sigma(self, p) -> float:
        L = lie_derivative_metric_at(self.M, self.xname, p)
        return float(np.trace(point_geometry(self.M, p).inverse @ L)) / self.M.dim

    def x_sigma(self, p) -> float:
        """X(sigma) at p via d_a sigma = tr(-G^-1 (d_a G) G^-1 L
        + G^-1 d_a L)/m contracted with X."""
        M = self.M
        geo = point_geometry(M, p)
        b = M.bindings(geo.point)
        m = M.dim
        ginv, dg = geo.inverse, geo.dmetric
        L = lie_derivative_metric_at(M, self.xname, p)
        X = M.field_eval(self.xname, p)
        total = 0.0
        for a in range(m):
            dL = np.array([[ex.evaluate(self._dl_trees[a][i][j], b)
                            for j in range(m)] for i in range(m)])
            d_sigma = float(np.trace(-ginv @ dg[a] @ ginv @ L + ginv @ dL)) / m
            total += X[a] * d_sigma
        return total
