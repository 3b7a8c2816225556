"""Chart data model: metrics, fields, and pointwise metric queries.

A :class:`ManifoldSpec` is a single chart: coordinate names with domain
intervals and periodicity flags, a symmetric matrix of metric component
expressions, optional real parameters, and named vector/scalar fields.
Specs are immutable after construction; every pointwise query is a pure
function, safe to call from many workers at once.  That holds with the
spec's memo of point geometries because the memo is one dict from wrapped
point to geometry that holds the last batch (a single point is a batch of
one) and is never changed, only replaced whole: two workers racing on one
spec may recompute a geometry, but never read a wrong one.  The compiled
metric jet is likewise one attribute, set whole by the first jet, and so
is each derivative table (dg, ddg, the field derivatives): two workers
racing on a fresh spec may each build a table, but each sets it whole and
both copies are equal trees.

Charts load from a sectioned key-value text document::

    [manifold]
    dim = 2
    coords = x, y
    range.x = 0, 1
    range.y = 0, 1
    periodic = x, y
    signature = lorentzian

    [params]
    # name = decimal value

    [metric]
    g.0.1 = "1"
    g.1.1 = "2*(-1 + cos(2*pi*x)/4)"

    [field.X]
    components = "0", "1"

    [scalar.u]
    expr = "-(x^2 + 2*y^2)"

Metric entries not given are zero; ``g.i.j`` and ``g.j.i`` are
symmetrized at load time.  All numbers in the document are decimal.
Coordinate and parameter names may not repeat, clash with each other or
be reserved words of the expression language (its functions and ``pi``).
"""

from __future__ import annotations

import configparser
import enum
import io
import math
import numbers
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import Expr

DEGENERACY_TOL = 1e-12
BOUNDARY_COLLAR = 1e-6
SAMPLING_COLLAR = 1e-3


class SpecError(ValueError):
    """Malformed chart document or inconsistent spec contents."""


class SignatureError(SpecError):
    """Sampled metric eigenvalues disagree with the declared signature."""


class DomainError(ValueError):
    """Point outside the chart domain (or hugging a non-periodic edge)."""


class DegenerateMetricError(SignatureError):
    """The metric at a point fails :func:`require_nondegenerate`, so it
    has no signature."""


# numpy warns on fmod(inf, period); the rows holding it are refused anyway
_fmod_batch = np.errstate(invalid="ignore")(np.fmod)
# batches of at most this many rows are wrapped one row at a time
_FEW_ROWS = 8


class _entry:
    """The one place where a ``RecursionError`` of the recursive tree
    walkers becomes a :class:`SpecError` naming the entry ``what``.  It
    guards every walk of a tree that may be too deep: the pair comparison
    and the printer, the lazy derivative builders, the pointwise metric,
    field and ∇X, and the trees derived later (the energy's derivatives,
    L_X g).  A class, not a generator: a third of the cost, so per-point
    paths use it too."""

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if isinstance(err, RecursionError):
            raise SpecError(f"{self.what} is nested too deeply to process") from None
        return False


class CausalCharacter(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    ZERO = "zero"


class PlaneType(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Coordinate:
    """One chart axis, (lo, hi) or the circle [lo, hi); the range rule
    refuses a bound that is not a real number, then ``not lo < hi``."""

    name: str
    lo: float
    hi: float
    periodic: bool

    def __post_init__(self):
        for bound in (self.lo, self.hi):
            if not isinstance(bound, numbers.Real):
                raise SpecError(f"range.{self.name}: bound {bound!r} is not a real number")
        if not self.lo < self.hi:
            raise SpecError(f"range.{self.name}: need lo < hi")

    @property
    def period(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class TangentPlane:
    """A base point plus two spanning tangent vectors at that point."""

    point: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True)
class PointGeometry:
    """Evaluated metric and curvature data at one point, with the point's
    bindings, which a per-point query given the geometry reads.  The spec
    memoizes it, so the arrays and the bindings are read-only."""

    point: np.ndarray
    metric: np.ndarray          # g_ij
    inverse: np.ndarray         # g^ij
    dmetric: np.ndarray         # dg[k,i,j] = d_k g_ij
    christoffel: np.ndarray     # gamma[k,i,j] = Gamma^k_ij
    riemann: np.ndarray         # lowered, R[i,j,k,l] = g(R(e_i,e_j)e_l, e_k)
    ricci: np.ndarray
    scalar: float
    riem_frame: tuple[np.ndarray, np.ndarray]   # riem_frame(g)
    bindings: Mapping[str, float]               # ManifoldSpec.bindings(point)


class ManifoldSpec:
    """One chart with metric, parameters, and named fields.

    Undeclared names are refused at construction (by the parser, for a chart from
    :func:`load_spec`); derivative trees are built on first need.  The
    trees of dg, ddg and the field derivatives are each differentiated
    once per spec, by the first read of ``_dg``, ``_ddg`` or
    ``_dfields``, so that downstream curvature work is pure array
    assembly.  The first :meth:`metric_derivs` call builds dg and ddg,
    lists the jet g, dg, ddg in output order and compiles its distinct
    trees, constants included, into one straight-line function
    (:func:`expr.compile_trees`); each jet is then one gather from that
    function's values.  Loading or exporting a chart differentiates and
    compiles nothing; flipping one builds only the dg and field
    derivatives that its Killing check reads.
    """

    def __init__(self, name: str, coords: list[Coordinate], signature: str,
                 metric: list[list[Expr]], params: dict[str, float] | None = None,
                 fields: dict[str, list[Expr]] | None = None,
                 scalars: dict[str, Expr] | None = None):
        """:meth:`_build`, then the rule it leaves out: every name that the
        metric entries (i <= j), the fields and the scalars use is declared."""
        self._build(name, coords, signature, metric, params, fields, scalars)
        declared = self.declared_names()
        labelled = [(f"metric entry g.{i}.{j}", self.metric[i][j])
                    for i in range(self.dim) for j in range(i, self.dim)]
        labelled += [(f"field '{f}'", c) for f, comps in self.fields.items() for c in comps]
        labelled += [(f"scalar '{s}'", e) for s, e in self.scalars.items()]
        for what, tree in labelled:
            bad = ex.free_names(tree) - declared
            if bad:
                raise SpecError(f"{what} uses undeclared names {sorted(bad)}")

    def _build(self, name, coords, signature, metric, params, fields, scalars):
        """All of :meth:`__init__` but its walk for undeclared names, which
        :func:`load_spec`'s parser refuses: the rules on the dimension, the
        signature, the names and parameters (:func:`require_names`), the
        metric's shape and the fields' component counts."""
        if len(coords) < 2:
            raise SpecError("dimension must be at least 2")
        if signature not in ("lorentzian", "riemannian"):
            raise SpecError(f"unknown signature '{signature}'")
        require_names(coords, params or {})
        self.name = name
        self.coords = list(coords)
        self.dim = len(coords)
        self.signature = signature
        self.params = dict(params or {})
        self.fields = {k: list(v) for k, v in (fields or {}).items()}
        self.scalars = dict(scalars or {})
        # filled by curvature.point_geometry(ies), curvature.energy_derivs
        # and symmetry.classify_field (the L_X g trees)
        self._geometry = {}
        self._energy = {}
        self._lie = {}
        # the compiled metric jet (source, run): built by the first metric_derivs call
        self._jet = None

        m = self.dim
        if len(metric) != m or any(len(row) != m for row in metric):
            raise SpecError(f"metric must be {m}x{m}")
        for fname, comps in self.fields.items():
            if len(comps) != m:
                raise SpecError(f"field '{fname}' has {len(comps)} components, want {m}")
        # symmetrize as expression trees at load time; the pair is compared
        # by canonical text, which walks a tree once, where == walks it
        # through several frames per node
        self.metric = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                a, b = metric[i][j], metric[j][i]
                with _entry(f"metric entry g.{i}.{j}"):
                    same = a is b or ex.to_text(a) == ex.to_text(b)
                g = a if same else ex.div(ex.add(a, b), ex.Const(2.0))
                self.metric[i][j] = g
                self.metric[j][i] = g

    # -- derivative trees, built on first read -------------------------------

    @cached_property
    def _dg(self) -> list:
        """dg[k][i][j] = d_k g_ij as trees.  g.j.i is the same tree as
        g.i.j, so each entry is differentiated once and both index orders
        share its derivatives."""
        m, names = self.dim, self.coord_names()
        dg = [[[None] * m for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                with _entry(f"metric entry g.{i}.{j}"):
                    for k, kn in enumerate(names):
                        dg[k][i][j] = dg[k][j][i] = ex.differentiate(self.metric[i][j], kn)
        return dg

    @cached_property
    def _ddg(self) -> list:
        """ddg[l][k][i][j] = d_l d_k g_ij as trees.  The mixed partials
        commute, so d_l d_k is built for l <= k only and d_k d_l shares
        its tree."""
        m, names, dg = self.dim, self.coord_names(), self._dg
        ddg = [[[[None] * m for _ in range(m)] for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                with _entry(f"metric entry g.{i}.{j}"):
                    for k in range(m):
                        for l, ln in enumerate(names[:k + 1]):
                            ddg[l][k][i][j] = ddg[l][k][j][i] = ddg[k][l][i][j] = \
                                ddg[k][l][j][i] = ex.differentiate(dg[k][i][j], ln)
        return ddg

    @cached_property
    def _dfields(self) -> dict[str, list[list[Expr]]]:
        """For each field X, dX[j][i] = d_j X^i as trees."""
        out = {}
        for fname, comps in self.fields.items():
            with _entry(f"field '{fname}'"):
                out[fname] = [[ex.differentiate(c, k) for c in comps]
                              for k in self.coord_names()]
        return out

    # -- bookkeeping -------------------------------------------------------

    def declared_names(self) -> frozenset[str]:
        return frozenset([c.name for c in self.coords]) | frozenset(self.params)

    def coord_names(self) -> list[str]:
        return [c.name for c in self.coords]

    def bindings(self, p: np.ndarray) -> dict[str, float]:
        b = {c.name: float(x) for c, x in zip(self.coords, p)}
        b.update(self.params)
        return b

    def _bound(self, at) -> Mapping[str, float]:
        """The bindings of a point, wrapped, or those a :class:`PointGeometry` carries."""
        return at.bindings if type(at) is PointGeometry else self.bindings(self.wrap_point(at))

    def wrap_point(self, p) -> np.ndarray:
        """Wrap periodic coordinates into [lo, hi); refuse non-finite
        coordinates and points within ``BOUNDARY_COLLAR`` of a
        non-periodic boundary.  A periodic coordinate in [lo, hi) is kept
        (-0.0 as 0.0), any other moved by whole periods (to lo where
        rounding lands outside), so a wrapped point wraps to itself.

        ``p`` is one point of shape (m,) or a batch of shape (N, m); a
        batch is refused at its first offending point, with the message
        that point alone would give.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.dim:
            raise DomainError(f"point must have {self.dim} coordinates, got {p.shape}")
        # The rule is written once, for Python floats (one point: numpy
        # calls on single values would cost more than the arithmetic, so
        # only a periodic coordinate out of range makes them) and for
        # numpy columns (a batch) alike.  A batch of a few rows is wrapped
        # row by row, for the same reason.
        batch = p.ndim == 2
        if batch and len(p) <= _FEW_ROWS:
            return np.array([self.wrap_point(row) for row in p]).reshape(p.shape)
        cols = list(p.T) if batch else p.tolist()
        fmod = _fmod_batch if batch else math.fmod
        isfinite = np.isfinite if batch else math.isfinite
        inside = True
        for a, c in enumerate(self.coords):
            x = cols[a]
            inside = inside & isfinite(x)
            if inside is False:
                raise DomainError(f"coordinate {c.name}={x!r} is not finite")
            if c.periodic:
                kept = (c.lo <= x) & (x < c.hi)
                if kept is not True and not np.all(kept):
                    y = c.lo + fmod(x - c.lo, c.period)
                    y = y + c.period * (y < c.lo)
                    x = np.where(kept, x, np.where((c.lo <= y) & (y < c.hi), y, c.lo))
                cols[a] = x + 0.0
            else:
                inside = inside & (c.lo + BOUNDARY_COLLAR <= x) & (x <= c.hi - BOUNDARY_COLLAR)
                if inside is False:
                    raise DomainError(
                        f"coordinate {c.name}={x!r} outside ({c.lo}, {c.hi}) "
                        f"with collar {BOUNDARY_COLLAR}")
        if not batch:
            return np.array(cols)
        if not np.all(inside):
            self.wrap_point(p[np.argmin(inside)])
        return np.stack(cols, axis=-1)

    # -- pointwise evaluation ----------------------------------------------

    def evaluate(self, e: Expr, at) -> float:
        """``e`` at a point or a :class:`PointGeometry`."""
        return ex.evaluate(e, self._bound(at))

    def evaluate_points(self, e: Expr, points) -> np.ndarray:
        """``e`` at each row of an (N, m) array of points, in one walk of
        the tree.  Raises what a loop of :meth:`evaluate` over the rows
        raises first, except that every row is wrapped before any is
        evaluated: a refused row is reported ahead of an evaluation
        error at an earlier row."""
        return ex.evaluate_batch(e, self._columns(points))

    def evaluate_symmetric(self, trees: list[list[Expr]], points) -> np.ndarray:
        """A symmetric m-by-m table of trees at each of N points, as an
        (N, m, m) array; the points are wrapped once, and only the i <= j
        trees are walked, each once.  A metric entry too deep for the walk
        is a :class:`SpecError` naming it (callers name other tables').

        The entries are walked under one ``errstate``, with no finiteness
        test: :meth:`wrap_point` and :func:`require_names` leave none but
        finite columns.  An entry that flags goes to ``evaluate_batch``,
        which raises what the scalar walker raises first or returns its values."""
        columns = self._columns(points)
        m = self.dim
        out = np.empty((len(points), m, m))
        with np.errstate(all="raise", under="ignore"):
            for i in range(m):
                for j in range(i, m):
                    with _entry(f"metric entry g.{i}.{j}") if trees is self.metric else nullcontext():
                        try:
                            value = ex._walk_batch(trees[i][j], columns)
                        except FloatingPointError:
                            value = ex.evaluate_batch(trees[i][j], columns)
                        out[:, i, j] = out[:, j, i] = value
        return out

    def _columns(self, points) -> dict:
        """Wrapped (N, m) points as one column per coordinate, with the parameters."""
        pts = self.wrap_point(np.atleast_2d(points))
        columns = {c.name: pts[:, a] for a, c in enumerate(self.coords)}
        columns.update(self.params)
        return columns

    def metric_eval(self, p) -> np.ndarray:
        b = self.bindings(self.wrap_point(p))
        m = self.dim
        g = np.empty((m, m))
        # one guard for the loop, naming the entry being walked
        with _entry("") as guard:
            for i in range(m):
                for j in range(i, m):
                    guard.what = f"metric entry g.{i}.{j}"
                    g[i, j] = g[j, i] = ex.evaluate(self.metric[i][j], b)
        return g

    def metric_derivs(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, dg, ddg) at p with dg[k,i,j] = d_k g_ij and
        ddg[l,k,i,j] = d_l d_k g_ij, all from exact trees: each value
        equals the walker's :func:`expr.evaluate` of its tree bit for bit.

        The jet is the list of g (row-major), then dg[k][i][j], then
        ddg[l][k][i][j]; its distinct trees, constants included and in
        the order the list first reaches them, are compiled once, by the
        first call, and every call gathers the list from their values.
        A pole raises the walker's error for the first tree in that order."""
        b = self.bindings(self.wrap_point(p))
        jet = self._jet
        if jet is None:
            trees = [t for row in self.metric for t in row]
            trees += [t for a in self._dg for row in a for t in row]
            trees += [t for a in self._ddg for c in a for row in c for t in row]
            distinct = {id(t): t for t in trees}
            slot = {key: n for n, key in enumerate(distinct)}
            jet = self._jet = (np.array([slot[id(t)] for t in trees]),
                               ex.compile_trees(distinct.values()))
        source, run = jet
        flat = np.array(run(b))[source]
        m = self.dim
        n1, n2 = m ** 2, m ** 2 + m ** 3
        return (flat[:n1].reshape(m, m), flat[n1:n2].reshape(m, m, m),
                flat[n2:].reshape(m, m, m, m))

    def field_eval(self, name: str, at) -> np.ndarray:
        """The field at a point or a :class:`PointGeometry`."""
        b = self._bound(at)
        with _entry(f"field '{name}'"):
            return np.array([ex.evaluate(c, b) for c in self.fields[name]])

    def field_derivs(self, name: str, at) -> np.ndarray:
        """dX[j,i] = d_j X^i from exact trees, at a point or a :class:`PointGeometry`."""
        b = self._bound(at)
        with _entry(f"field '{name}'"):
            return np.array([[ex.evaluate(t, b) for t in row] for row in self._dfields[name]])

    # -- helpers for tests and scans ----------------------------------------

    def sample_points(self, n: int, rng: np.random.Generator,
                      collar: float = SAMPLING_COLLAR) -> np.ndarray:
        """n interior points, uniform per axis, respecting a sampling
        collar on non-periodic axes."""
        cols = []
        for c in self.coords:
            lo, hi = (c.lo, c.hi) if c.periodic else (c.lo + collar, c.hi - collar)
            cols.append(rng.uniform(lo, hi, size=n))
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Pointwise metric queries
# ---------------------------------------------------------------------------

def metric_at(M: ManifoldSpec, p) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Evaluated metric, its inverse, and the eigenvalue sign pattern at p."""
    g = M.metric_eval(p)
    w = np.linalg.eigvalsh(g)
    require_nondegenerate(w, p)
    return g, np.linalg.inv(g), tuple(int(np.sign(x)) for x in w)


def require_nondegenerate(w: np.ndarray, p) -> None:
    """The one degeneracy rule, scale-free: the metric at p with eigenvalues
    w (or their magnitudes) is degenerate when min|w| <= DEGENERACY_TOL max|w|.

    ``w`` of shape (N, m) with points ``p`` of shape (N, m) checks N
    metrics and refuses the first degenerate row, with the message that
    row alone would give."""
    a = np.abs(w)
    ok = a.min(axis=-1) > DEGENERACY_TOL * a.max(axis=-1)
    if not np.logical_and.reduce(ok, axis=None):
        k = np.unravel_index(np.argmin(ok), ok.shape)
        raise DegenerateMetricError(f"metric degenerate at {np.asarray(p)[k].tolist()}: "
                                    f"eigenvalue magnitudes {a[k].tolist()}")


def require_signature(M: ManifoldSpec, pts: np.ndarray, w: np.ndarray) -> None:
    """The one signature rule: the metric with eigenvalues ``w`` (N, m) at
    points ``pts`` (N, m) passes :func:`require_nondegenerate` and has one
    negative eigenvalue if M is Lorentzian, none if Riemannian.  Refuses
    the first failing row with the message that row alone would give."""
    neg = np.sum(w < 0, axis=-1)
    wrong = neg != (1 if M.signature == "lorentzian" else 0)
    k = int(np.argmax(wrong)) if wrong.any() else len(w) - 1
    # a degenerate row up to the first wrong count is refused first
    require_nondegenerate(w[:k + 1], pts[:k + 1])
    if wrong[k]:
        raise SignatureError(
            f"declared {M.signature} but metric at {pts[k].tolist()} has eigenvalues "
            f"{w[k].tolist()} ({neg[k]} negative)")


def riem_frame(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|w|, V) from one eigen-decomposition g = V diag(w) V^T: the
    Riemannianized metric V diag(|w|) V^T that :func:`riem_gram` pairs with."""
    w, V = np.linalg.eigh(g)
    return np.abs(w), V


def riem_gram(frame: tuple[np.ndarray, np.ndarray], W: np.ndarray):
    """Riemannianized Gram matrix of the rows of W (k, m) in the
    :func:`riem_frame` of g, or the squared Riemannianized norm of one
    vector W (m,).  Each row is projected on the eigenframe once,
    P = W V, and the Gram is P diag(|w|) Pᵀ: positive definite away from
    degeneracy, it is the scale of the causal and plane bands."""
    aw, V = frame
    P = W @ V
    return (P * aw) @ P.T


# ---------------------------------------------------------------------------
# Symbolic helpers shared by the symmetry and witness machinery
# ---------------------------------------------------------------------------

def metric_pairing_expr(M: ManifoldSpec, xname: str, yname: str) -> Expr:
    """g(X, Y) as a closed-form expression."""
    X, Y = M.fields[xname], M.fields[yname]
    total = ex.ZERO
    for i in range(M.dim):
        for j in range(M.dim):
            total = ex.add(total, ex.mul(M.metric[i][j], ex.mul(X[i], Y[j])))
    return total


def field_energy_expr(M: ManifoldSpec, xname: str) -> Expr:
    """f = g(X,X)/2 as a closed-form expression."""
    return ex.mul(ex.Const(0.5), metric_pairing_expr(M, xname, xname))


# ---------------------------------------------------------------------------
# Chart document loading and writing
# ---------------------------------------------------------------------------

def require_names(coords: list[Coordinate], params: Mapping[str, float]) -> None:
    """The one rule on a chart's names and parameters, for documents and
    hand-built charts alike: no coordinate is named twice, no name is a
    reserved word of :mod:`expr` and no parameter is named like a
    coordinate or has a value that is not a finite real number.  Refuses
    the first culprit."""
    for k, c in enumerate(coords):
        if c.name in ex.RESERVED:
            raise SpecError(f"coordinate '{c.name}' is a reserved word")
        if c.name in [d.name for d in coords[:k]]:
            raise SpecError(f"coordinate '{c.name}' is named twice")
        if c.name in params:
            raise SpecError(f"parameter '{c.name}' is named like a coordinate")
    for k, v in params.items():
        if k in ex.RESERVED:
            raise SpecError(f"parameter '{k}' is a reserved word")
        if not isinstance(v, numbers.Real):
            raise SpecError(f"parameter '{k}' is not a real number: {v!r}")
        if not math.isfinite(v):
            raise SpecError(f"parameter '{k}' is not finite: {v!r}")


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SpecError(f"{what}: '{text}' is not a decimal number") from None
    # float() also reads 'inf', 'nan' and overflowing literals
    if not math.isfinite(value):
        raise SpecError(f"{what}: '{text}' is not a finite decimal number")
    return value


def _strip_quotes(s: str) -> str:
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    return s


def load_spec(document: str, *, name: str = "", validate: bool = True) -> ManifoldSpec:
    """Parse a chart document and (optionally) spot-check its signature
    with :func:`validate_signature`."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(document)
    except configparser.Error as e:
        raise SpecError(f"document parse error: {e}") from None

    if "manifold" not in cp:
        raise SpecError("missing [manifold] section")
    man = cp["manifold"]
    for key in ("dim", "coords", "signature"):
        if key not in man:
            raise SpecError(f"[manifold] missing '{key}'")
    dim = _parse_float(man["dim"], "dim")
    if not dim.is_integer():
        raise SpecError(f"dim: '{man['dim']}' is not an integer")
    dim = int(dim)
    names = [s.strip() for s in man["coords"].split(",") if s.strip()]
    if len(names) != dim:
        raise SpecError(f"dim={dim} but {len(names)} coordinate names given")
    periodic = {s.strip() for s in man.get("periodic", "").split(",") if s.strip()}
    unknown = periodic - set(names)
    if unknown:
        raise SpecError(f"periodic lists unknown coordinates {sorted(unknown)}")
    coords = []
    for n in names:
        key = f"range.{n}"
        if key not in man:
            raise SpecError(f"[manifold] missing '{key}'")
        parts = [s.strip() for s in man[key].split(",")]
        if len(parts) != 2:
            raise SpecError(f"{key} must be 'lo, hi'")
        lo = _parse_float(parts[0], key)
        hi = _parse_float(parts[1], key)
        coords.append(Coordinate(n, lo, hi, n in periodic))
    signature = man["signature"].strip().lower()

    texts = cp["params"] if "params" in cp else {}
    params = {k: _parse_float(v, f"param {k}") for k, v in texts.items()}
    require_names(coords, params)
    declared = frozenset(names) | frozenset(params)

    def parse(text: str, where: str) -> Expr:
        try:
            return ex.parse_expression(_strip_quotes(text), declared)
        except ex.ParseError as e:
            raise SpecError(f"{where}: {e}") from None

    metric = [[ex.ZERO] * dim for _ in range(dim)]
    given: set[tuple[int, int]] = set()
    if "metric" not in cp:
        raise SpecError("missing [metric] section")
    for key, val in cp["metric"].items():
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "g":
            raise SpecError(f"[metric] key '{key}' is not of the form g.i.j")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise SpecError(f"[metric] key '{key}' has non-integer indices")
        if not (0 <= i < dim and 0 <= j < dim):
            raise SpecError(f"[metric] key '{key}' indices out of range for dim={dim}")
        metric[i][j] = parse(val, f"metric g.{i}.{j}")
        given.add((i, j))
    # g.i.j defines the symmetric pair unless g.j.i is given explicitly
    for i, j in list(given):
        if i != j and (j, i) not in given:
            metric[j][i] = metric[i][j]

    fields = {}
    scalars = {}
    for section in cp.sections():
        if section.startswith("field."):
            fname = section[len("field."):]
            if "components" not in cp[section]:
                raise SpecError(f"[{section}] missing 'components'")
            fields[fname] = [parse(s, f"field {fname}")
                             for s in cp[section]["components"].split(",")]
        elif section.startswith("scalar."):
            sname = section[len("scalar."):]
            if "expr" not in cp[section]:
                raise SpecError(f"[{section}] missing 'expr'")
            scalars[sname] = parse(cp[section]["expr"], f"scalar {sname}")

    # the parser has refused undeclared names: no walk looks for them again
    spec = ManifoldSpec.__new__(ManifoldSpec)
    spec._build(name or man.get("name", "chart"), coords, signature, metric, params,
                fields, scalars)
    if validate:
        validate_signature(spec)
    return spec


def validate_signature(M: ManifoldSpec, samples: int = 30, seed: int = 0) -> None:
    """Check the declared signature at sampled interior points by
    :func:`require_signature`, on the eigenvalues of one stacked
    evaluation of the metric; a pole at some sample is reported after the
    samples before it have passed, evaluated one by one.  ``samples``
    must be at least 1.
    """
    if samples < 1:
        raise SpecError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    pts = M.sample_points(samples, rng)
    try:
        gs = M.evaluate_symmetric(M.metric, pts)
    except ex.EvalError:
        # a pole at some sample: evaluate point by point, so that a
        # signature violation at an earlier sample is still reported first
        for p in pts:
            require_signature(M, p[None], np.linalg.eigvalsh(M.metric_eval(p))[None])
    else:
        require_signature(M, pts, np.linalg.eigvalsh(gs))


def to_document(M: ManifoldSpec) -> str:
    """Serialize back to the chart document format (canonical printing).
    An entry too deep for the printer is a :class:`SpecError` naming it."""
    out = io.StringIO()
    out.write("[manifold]\n")
    out.write(f"name = {M.name}\n")
    out.write(f"dim = {M.dim}\n")
    out.write(f"coords = {', '.join(M.coord_names())}\n")
    for c in M.coords:
        out.write(f"range.{c.name} = {c.lo!r}, {c.hi!r}\n")
    per = [c.name for c in M.coords if c.periodic]
    if per:
        out.write(f"periodic = {', '.join(per)}\n")
    out.write(f"signature = {M.signature}\n")
    if M.params:
        out.write("\n[params]\n")
        for k, v in sorted(M.params.items()):
            out.write(f"{k} = {v!r}\n")
    out.write("\n[metric]\n")
    for i in range(M.dim):
        for j in range(i, M.dim):
            if M.metric[i][j] != ex.ZERO:
                with _entry(f"metric entry g.{i}.{j}"):
                    out.write(f'g.{i}.{j} = "{ex.to_text(M.metric[i][j])}"\n')
    for fname in sorted(M.fields):
        with _entry(f"field '{fname}'"):
            comps = ", ".join(f'"{ex.to_text(c)}"' for c in M.fields[fname])
        out.write(f"\n[field.{fname}]\ncomponents = {comps}\n")
    for sname in sorted(M.scalars):
        with _entry(f"scalar '{sname}'"):
            out.write(f'\n[scalar.{sname}]\nexpr = "{ex.to_text(M.scalars[sname])}"\n')
    return out.getvalue()
