"""Chart loading, pointwise metric queries, causal classification."""

import math
import sys
import threading

import numpy as np
import pytest

from lorentzgeo import expr as ex
from lorentzgeo.catalog import list_examples
from lorentzgeo.cli import main
from lorentzgeo.curvature import causal_character, plane_type, point_geometry
from lorentzgeo.expr import EvalError, Var
from lorentzgeo.manifold import (
    SAMPLING_COLLAR,
    CausalCharacter,
    Coordinate,
    DegenerateMetricError,
    DomainError,
    ManifoldSpec,
    PlaneType,
    SignatureError,
    SpecError,
    TangentPlane,
    field_energy_expr,
    load_spec,
    metric_at,
    to_document,
    validate_signature,
)
from lorentzgeo.obstruction import _grid_axes, _grid_points, lorentzianize, scan_extrema

MINK2 = """
[manifold]
dim = 2
coords = t, x
range.t = -1, 1
range.x = -1, 1
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "1"
"""

MINK3 = """
[manifold]
dim = 3
coords = t, x, y
range.t = -1, 1
range.x = -1, 1
range.y = -1, 1
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "1"
g.2.2 = "1"
"""


class TestLoadSpec:
    def test_minkowski_document(self):
        spec = load_spec(MINK2)
        assert spec.dim == 2
        g, inv, signs = metric_at(spec, [0.0, 0.0])
        assert np.allclose(g, np.diag([-1.0, 1.0]))
        assert np.allclose(inv, np.diag([-1.0, 1.0]))
        assert signs == (-1, 1)

    def test_torus_document_is_valid_lorentzian(self):
        doc = """
[manifold]
dim = 2
coords = x, y
range.x = 0, 1
range.y = 0, 1
periodic = x, y
signature = lorentzian

[metric]
g.0.1 = "1"
g.1.1 = "2*(-1 + cos(2*pi*x)/4)"
"""
        spec = load_spec(doc)
        validate_signature(spec, samples=100)
        g = spec.metric_eval([0.0, 0.0])
        assert g[0, 1] == 1.0 and g[1, 0] == 1.0
        assert g[1, 1] == pytest.approx(-1.5)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_sample_is_a_spec_error(self, samples):
        spec = load_spec(MINK2)
        with pytest.raises(SpecError, match=f"^samples must be at least 1, got {samples}$"):
            validate_signature(spec, samples=samples)

    def test_wrong_signature_declaration(self):
        doc = MINK2.replace('g.0.0 = "-1"', 'g.0.0 = "1"')
        with pytest.raises(SignatureError) as err:
            load_spec(doc)
        assert "eigenvalues" in str(err.value)

    def test_undeclared_name_in_metric(self):
        doc = MINK2.replace('g.1.1 = "1"', 'g.1.1 = "1 + q"')
        with pytest.raises(SpecError):
            load_spec(doc)

    @pytest.mark.parametrize("where", ["metric", "field", "scalar"])
    def test_undeclared_name_in_a_hand_built_spec(self, where):
        q = ex.add(Var("x"), Var("q"))
        metric = [[ex.Const(-1.0), ex.ZERO], [ex.ZERO, q if where == "metric" else ex.ONE]]
        fields = {"X": [ex.ONE, q if where == "field" else ex.ZERO]}
        scalars = {"s": q if where == "scalar" else Var("t")}
        coords = [Coordinate("t", -1.0, 1.0, False), Coordinate("x", -1.0, 1.0, False)]
        want = {"metric": "metric entry g.1.1", "field": "field 'X'", "scalar": "scalar 's'"}
        with pytest.raises(SpecError) as err:
            ManifoldSpec("hand", coords, "lorentzian", metric, fields=fields, scalars=scalars)
        assert str(err.value) == f"{want[where]} uses undeclared names ['q']"

    def test_a_loaded_chart_is_not_walked_for_undeclared_names(self, entry, count_calls):
        # the parser has refused them: a chart with a field and a scalar
        # loads without a free_names walk
        doc = to_document(entry("hopf_lorentz_s3").spec) + '\n[scalar.s]\nexpr = "eta*xi1"\n'
        walks = count_calls(ex, "free_names")
        spec = load_spec(doc)
        assert walks == []
        assert sorted(spec.fields) == ["IU", "U", "X"] and list(spec.scalars) == ["s"]

    def test_missing_sections(self):
        with pytest.raises(SpecError):
            load_spec("[manifold]\ndim = 2\n")

    def test_off_diagonal_entry_defines_symmetric_pair(self):
        doc = """
[manifold]
dim = 2
coords = u, v
range.u = -1, 1
range.v = -1, 1
signature = lorentzian

[metric]
g.0.1 = "1 + u^2"
"""
        spec = load_spec(doc)
        g = spec.metric_eval([0.5, 0.0])
        assert g[0, 1] == g[1, 0] == pytest.approx(1.25)

    def test_field_component_count_checked(self):
        doc = MINK2 + '\n[field.X]\ncomponents = "1"\n'
        with pytest.raises(SpecError):
            load_spec(doc)

    def test_document_round_trip(self):
        spec = load_spec(MINK3)
        again = load_spec(to_document(spec))
        rng = np.random.default_rng(0)
        for p in spec.sample_points(10, rng):
            assert np.allclose(spec.metric_eval(p), again.metric_eval(p))

    def test_entry_too_deep_for_the_tree_walkers_is_a_spec_error(self):
        terms = " + ".join(f"cos({k}*x)" for k in range(1, 1501))
        doc = MINK2.replace('g.1.1 = "1"', f'g.1.1 = "3 + 0.001*({terms})"')
        with pytest.raises(SpecError, match=r"metric entry g\.1\.1 is nested too deeply"):
            load_spec(doc)

    @pytest.mark.parametrize("where,document,evaluate", [
        ("metric entry g.1.1", MINK2.replace('"1"\n', '"3 + 0.001*({})"\n'),
         lambda M: M.metric_eval([0.1, 0.2])),
        ("field 'X'", MINK2 + '\n[field.X]\ncomponents = "1", "0.001*({})"\n',
         lambda M: M.field_eval("X", [0.1, 0.2])),
    ], ids=["metric", "field"])
    def test_entry_too_deep_for_the_walker_is_refused_where_it_is_evaluated(
            self, where, document, evaluate):
        """The name check at load walks with an explicit stack, so an
        entry too deep for the recursive walker loads (unchecked, for a
        metric entry); evaluating it at a point names it."""
        terms = " + ".join(f"cos({k}*x)" for k in range(1, 1501))
        M = load_spec(document.format(terms), validate=False)
        with pytest.raises(SpecError, match=f"^{where} is nested too deeply to process$"):
            evaluate(M)

    def test_entry_with_too_deep_derivatives_is_refused_at_first_need(self, tmp_path, capsys):
        # the product loads and validates, but its derivative trees are
        # deeper than the recursive differentiation can follow
        prod = "*".join(["(1 + 0.001*sin(x))"] * 500)
        doc = MINK2.replace('g.1.1 = "1"', f'g.1.1 = "{prod}"')
        M = load_spec(doc)
        validate_signature(M)
        message = "metric entry g.1.1 is nested too deeply to process"
        with pytest.raises(SpecError, match=f"^{message}$"):
            M.metric_derivs([0.1, 0.2])
        path = tmp_path / "deep_product.chart"
        path.write_text(doc)
        assert main(["curvature", str(path), "--at", "0.1,0.2"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("walk", [validate_signature, to_document],
                             ids=["batch-walk", "printer"])
    def test_entry_too_deep_for_a_later_walk_is_a_spec_error(self, walk):
        """The product loads, its names checked at load; a walk that
        starts with less stack left (the signature check's batch walk,
        the printer) names the entry instead of raising RecursionError."""
        prod = "*".join(["(1 + 0.001*sin(x))"] * 500)
        M = load_spec(MINK2.replace('g.1.1 = "1"', f'g.1.1 = "{prod}"'), validate=False)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 300)
        try:
            with pytest.raises(SpecError, match=r"^metric entry g\.1\.1 is nested too deeply"):
                walk(M)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("deep", ["(" * 3000 + "x" + ")" * 3000, "-" * 4000 + "1"],
                             ids=["parentheses", "unary-minus"])
    @pytest.mark.parametrize("where,lines", [
        ("metric g.0.1", 'g.0.1 = "{}"'),          # MINK2 ends in its [metric] section
        ("field X", '\n[field.X]\ncomponents = "{}", "0"'),
        ("scalar s", '\n[scalar.s]\nexpr = "{}"'),
    ], ids=["metric", "field", "scalar"])
    def test_entry_too_deep_for_the_parser_is_a_spec_error(self, deep, where, lines):
        doc = MINK2 + lines.format(deep) + "\n"
        with pytest.raises(SpecError, match=f"^{where}: expression is nested too deeply"):
            load_spec(doc)


    @pytest.mark.parametrize("old,new,key", [
        ("[metric]", "[params]\na = nan\n\n[metric]", "param a"),
        ("[metric]", "[params]\na = -inf\n\n[metric]", "param a"),
        ("range.x = -1, 1", "range.x = inf, 1", "range.x"),
        ("range.x = -1, 1", "range.x = 0, inf", "range.x"),
        ("range.x = -1, 1", "range.x = -1, 1e400", "range.x"),
        ("dim = 2", "dim = nan", "dim"),
        ("dim = 2", "dim = inf", "dim"),
    ], ids=["param-nan", "param-inf", "range-lo", "range-hi", "range-overflow",
            "dim-nan", "dim-inf"])
    def test_non_finite_decimal_is_a_spec_error(self, old, new, key):
        doc = MINK2.replace(old, new)
        assert doc != MINK2
        with pytest.raises(SpecError, match=f"^{key}: .* is not a finite decimal number"):
            load_spec(doc)

    def test_non_integer_dim_is_a_spec_error(self):
        doc = MINK2.replace("dim = 2", "dim = 2.7")
        assert doc != MINK2
        with pytest.raises(SpecError, match="^dim: '2.7' is not an integer"):
            load_spec(doc)


class TestMetricAt:
    def test_inverse_accuracy(self, entry, rng):
        for name in ("torus_family", "hopf_lorentz_s3", "schwarzschild_exterior"):
            spec = entry(name).spec
            for p in spec.sample_points(10, rng):
                g, inv, _ = metric_at(spec, p)
                assert np.max(np.abs(g @ inv - np.eye(spec.dim))) < 1e-12

    def test_hopf_field_norm(self, hopf, rng):
        spec = hopf.spec
        for p in spec.sample_points(10, rng):
            g = spec.metric_eval(p)
            X = spec.field_eval("X", p)
            assert float(X @ g @ X) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_metric_reported(self):
        spec = load_spec(DEGENERATE_AT_ORIGIN, validate=False)
        with pytest.raises(DegenerateMetricError):
            metric_at(spec, [0.0, 0.0])


DEGENERATE_AT_ORIGIN = """
[manifold]
dim = 2
coords = x, y
range.x = -1, 1
range.y = -1, 1
signature = riemannian

[metric]
g.0.0 = "x"
g.1.1 = "1"
"""


def diagonal_chart(*entries):
    """A 4-D Lorentzian chart with the given constant diagonal metric."""
    rows = "\n".join(f'g.{i}.{i} = "{e}"' for i, e in enumerate(entries))
    return ("[manifold]\ndim = 4\ncoords = t, x, y, z\n"
            + "".join(f"range.{c} = -1, 1\n" for c in "txyz")
            + f"signature = lorentzian\n\n[metric]\n{rows}\n")


class TestDegeneracyRule:
    """validate_signature, metric_at and point_geometry, and through
    them the validate and curvature commands, apply one scale-free rule:
    g is degenerate when min|w| <= DEGENERACY_TOL max|w| over its
    eigenvalues w."""

    @pytest.fixture
    def samples_at_origin(self, monkeypatch):
        """validate_signature checks the metric at the origin only."""
        monkeypatch.setattr(ManifoldSpec, "sample_points",
                            lambda self, n, rng, collar=SAMPLING_COLLAR: np.zeros((n, self.dim)))

    @pytest.mark.parametrize("doc", [diagonal_chart(-1, 1, 1e-7, 1e-7),
                                     diagonal_chart(-1e-13, 1e-13, 1e-13, 1e-13)],
                             ids=["thin", "rescaled"])
    def test_accepted_at_every_site(self, doc, tmp_path, samples_at_origin):
        spec = load_spec(doc)
        validate_signature(spec)
        p = np.zeros(4)
        g, inv, signs = metric_at(spec, p)
        assert signs == (-1, 1, 1, 1)
        assert point_geometry(spec, p).inverse.tolist() == inv.tolist()
        path = tmp_path / "chart.txt"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 0
        assert main(["curvature", str(path), "--at", "0,0,0,0"]) == 0

    def test_refused_at_every_site(self, tmp_path, capsys, samples_at_origin):
        message = r"metric degenerate at \[0\.0, 0\.0\]: eigenvalue magnitudes \[0\.0, 1\.0\]"
        spec = load_spec(DEGENERATE_AT_ORIGIN, validate=False)
        with pytest.raises(DegenerateMetricError, match=message):
            validate_signature(spec)
        for site in (metric_at, point_geometry):
            with pytest.raises(DegenerateMetricError, match=message):
                site(spec, [0.0, 0.0])
        path = tmp_path / "chart.txt"
        path.write_text(DEGENERATE_AT_ORIGIN)
        for argv in (["validate", str(path)], ["curvature", str(path), "--at", "0,0"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: metric degenerate at [0.0, 0.0]")


class TestDomain:
    def test_periodic_wrap(self, torus):
        spec = torus.spec
        p = spec.wrap_point([1.25, -0.5])
        assert p[0] == pytest.approx(0.25)
        assert p[1] == pytest.approx(0.5)

    def test_boundary_collar_refused(self):
        spec = load_spec(MINK2)
        with pytest.raises(DomainError):
            spec.wrap_point([1.0, 0.0])
        with pytest.raises(DomainError):
            spec.wrap_point([0.0, -1.0 + 1e-9])

    def test_wrong_arity(self):
        spec = load_spec(MINK2)
        with pytest.raises(DomainError):
            spec.wrap_point([0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            spec.wrap_point(np.zeros((4, 3)))

    def test_batch_wraps_like_each_row(self, entry, rng):
        for name in ("schwarzschild_exterior", "hopf_lorentz_s3", "torus_family"):
            spec = entry(name).spec
            pts = spec.sample_points(50, rng)
            for a, c in enumerate(spec.coords):
                if c.periodic:
                    pts[:, a] += c.period * rng.integers(-3, 4, size=len(pts))
            batch = spec.wrap_point(pts)
            assert np.array_equal(batch, np.array([spec.wrap_point(p) for p in pts]))

    def test_batch_refused_at_first_offending_point(self):
        spec = load_spec(MINK2)
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError) as single:
            spec.wrap_point(pts[1])
        with pytest.raises(DomainError) as batch:
            spec.wrap_point(pts)
        assert str(batch.value) == str(single.value)
        assert "x=" in str(batch.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_refused(self, torus, bad):
        spec = torus.spec
        msg = f"coordinate y={float(bad)!r} is not finite"
        with pytest.raises(DomainError) as err:
            spec.wrap_point([0.5, bad])
        assert str(err.value) == msg
        with pytest.raises(DomainError, match=msg):
            spec.metric_eval([0.5, bad])

    def test_batch_refuses_non_finite_row(self, torus):
        """The energy of the torus depends on x alone, so a non-finite y
        must be refused, not evaluated to a finite number."""
        spec = torus.spec
        f = field_energy_expr(spec, "X")
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match=f"coordinate y={bad!r} is not finite"):
                spec.evaluate_points(f, [[0.5, 0.25], [0.5, bad], [0.25, 0.5]])

    def test_batch_refuses_non_finite_at_first_offending_row(self):
        spec = load_spec(MINK2)
        with pytest.raises(DomainError, match="coordinate x=nan is not finite"):
            spec.wrap_point([[0.0, 0.0], [0.0, np.nan], [-1.0, 0.0]])
        with pytest.raises(DomainError, match="coordinate t=-1.0 outside"):
            spec.wrap_point([[0.0, 0.0], [-1.0, 0.0], [0.0, np.nan]])


@pytest.mark.parametrize("name", list_examples())
def test_evaluate_points_matches_pointwise_on_catalog_charts(entry, name):
    """Energy and metric entries of every catalog chart over a grid: the
    batched walker against the scalar walker at each node."""
    M = entry(name).spec
    n = {2: 12, 3: 7, 4: 5}[M.dim]
    pts = _grid_points(_grid_axes(M, [n] * M.dim))
    trees = [M.metric[i][j] for i in range(M.dim) for j in range(i, M.dim)]
    trees += [field_energy_expr(M, f) for f in M.fields]
    for e in trees:
        want = np.array([M.evaluate(e, p) for p in pts])
        np.testing.assert_allclose(M.evaluate_points(e, pts), want, rtol=1e-15, atol=1e-15)


def test_metric_derivs_equal_each_tree_bit_for_bit(hopf, rng):
    """metric_derivs evaluates the upper triangle of g, dg and ddg and
    mirrors it; every entry equals its own freshly differentiated tree."""
    M = hopf.spec
    assert M.metric[1][2] != ex.ZERO
    names = M.coord_names()
    for p in M.sample_points(3, rng):
        g, dg, ddg = M.metric_derivs(p)
        b = M.bindings(M.wrap_point(p))
        for i in range(M.dim):
            for j in range(M.dim):
                assert g[i, j] == ex.evaluate(M.metric[i][j], b)
                for k, kn in enumerate(names):
                    d = ex.differentiate(M.metric[i][j], kn)
                    assert dg[k, i, j] == ex.evaluate(d, b)
                    for l, ln in enumerate(names):
                        assert ddg[l, k, i, j] == ex.evaluate(ex.differentiate(d, ln), b)


def test_metric_derivs_compile_on_the_first_jet(count_calls, entry):
    """Loading, exporting and rebuilding a generated-size chart
    differentiates and compiles nothing, and flipping a catalog chart
    compiles nothing and builds no ddg: the first metric_derivs call
    builds dg and ddg once and the jet's plan, and a second call
    differentiates nothing."""
    terms = " + ".join(f"0.001*sin({k}*t + x)*x^2" for k in range(1, 61))
    doc = MINK2.replace('g.1.1 = "1"', f'g.1.1 = "2 + {terms}"')
    calls = count_calls(ManifoldSpec, "metric_derivs")
    compiled = count_calls(ex, "compile_trees")
    diffs = count_calls(ex, "differentiate")
    M = load_spec(doc)
    load_spec(to_document(M))
    assert diffs == []
    flipped = lorentzianize(entry("round_s3").spec, "X")
    assert calls == [] and compiled == [] and M._jet is None
    assert "_dg" in flipped.__dict__ and "_ddg" not in flipped.__dict__
    g, dg, ddg = M.metric_derivs([0.3, 0.4])
    assert len(compiled) == 1 and M._jet is not None
    roots = [args[0] for args, _ in diffs]
    # d_t and d_x of g.1.1 once each, and d_t and d_x of d_x g.1.1 once each
    assert sum(r is M.metric[1][1] for r in roots) == 2
    assert sum(r is M._dg[1][1][1] for r in roots) == 2
    n = len(diffs)
    M.metric_derivs([0.5, -0.2])
    assert len(diffs) == n
    assert ddg[0, 1, 1, 1] == ddg[1, 0, 1, 1]
    assert M._ddg[0][1][1][1] is M._ddg[1][0][1][1]


def test_threads_racing_on_a_fresh_spec_read_the_right_jet():
    """Workers whose first reads build the derivative tables of one spec
    may each build a table, but every jet and field derivative they read
    equals that of a spec built alone."""
    doc = MINK2 + '\n[field.X]\ncomponents = "x^2*t", "sin(t*x)"\n'
    doc = doc.replace('g.1.1 = "1"', 'g.1.1 = "2 + 0.1*sin(t + x)*x^2"')
    points = [[0.1, 0.2], [0.3, -0.4], [-0.7, 0.9]]
    alone = load_spec(doc)
    want = [(alone.field_derivs("X", p).tobytes(),
             *(a.tobytes() for a in alone.metric_derivs(p))) for p in points]
    M = load_spec(doc)
    wrong = []

    def work(k):
        for n in range(50):
            i = (n + k) % len(points)
            got = (M.field_derivs("X", points[i]).tobytes(),
                   *(a.tobytes() for a in M.metric_derivs(points[i])))
            if got != want[i]:
                wrong.append((k, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


POLE_ON_GRID = """
[manifold]
dim = 2
coords = x, y
range.x = 0, 1
range.y = 0, 1
periodic = x, y
signature = lorentzian

[metric]
g.0.1 = "1"
g.1.1 = "-2 + 1/(1/(x - 0.5))"

[field.X]
components = "0", "1"
"""

# x < 0.2 is a pole (square root of a negative number); 0.2 < x < 0.5
# has two negative eigenvalues
POLE_AND_VIOLATION = """
[manifold]
dim = 2
coords = t, x
range.t = -1, 1
range.x = 0, 1
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "sqrt(x - 0.2)*(x - 0.5)"
"""


def _first_error(fn, *args):
    try:
        fn(*args)
    except ValueError as err:
        return err
    raise AssertionError("no error raised")


class TestErrorParity:
    """The batched paths raise what the point-by-point loops raised."""

    def _scalar_grid_fill(self, M, grid):
        f = field_energy_expr(M, "X")
        for p in _grid_points(_grid_axes(M, [grid] * M.dim)):
            M.evaluate(f, p)

    def test_pole_on_the_grid(self):
        M = load_spec(POLE_ON_GRID, validate=False)
        want = _first_error(self._scalar_grid_fill, M, 16)
        got = _first_error(scan_extrema, M, "X", 16)
        assert type(got) is type(want) and isinstance(got, EvalError)
        assert str(got) == str(want)
        assert "division by zero" in str(got)

    @staticmethod
    def _scalar_validate(M, samples, seed):
        """The point-by-point signature check, as a reference."""
        for p in M.sample_points(samples, np.random.default_rng(seed)):
            eigs = np.linalg.eigvalsh(M.metric_eval(p))
            if int(np.sum(eigs < 0)) != 1:
                raise SignatureError(
                    f"declared {M.signature} but metric at {p.tolist()} has eigenvalues "
                    f"{eigs.tolist()} ({int(np.sum(eigs < 0))} negative)")

    def test_signature_violation_before_the_first_pole(self):
        M = load_spec(POLE_AND_VIOLATION, validate=False)
        seen = set()
        for seed in range(40):
            xs = M.sample_points(30, np.random.default_rng(seed))[:, 1]
            first = xs[xs < 0.5][0]
            if first > 0.2 and np.any(xs < 0.2):
                case = "violation first"
            elif first < 0.2:
                case = "pole first"
            else:
                continue
            seen.add(case)
            want = _first_error(self._scalar_validate, M, 30, seed)
            got = _first_error(validate_signature, M, 30, seed)
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert isinstance(got, SignatureError if case == "violation first" else EvalError)
        assert seen == {"violation first", "pole first"}


class TestCausalCharacter:
    @pytest.mark.parametrize("v,want", [
        ((1.0, 0.0), CausalCharacter.TIMELIKE),
        ((1.0, 1.0), CausalCharacter.LIGHTLIKE),
        ((0.0, 1.0), CausalCharacter.SPACELIKE),
        ((0.0, 0.0), CausalCharacter.ZERO),
    ])
    def test_minkowski(self, v, want):
        spec = load_spec(MINK2)
        assert causal_character(spec, [0.0, 0.0], v) is want

    def test_torus_field_is_timelike(self, torus, rng):
        spec = torus.spec
        for p in spec.sample_points(10, rng):
            assert causal_character(spec, p, spec.field_eval("X", p)) \
                is CausalCharacter.TIMELIKE

    @pytest.mark.parametrize("v", [(math.nan, 0.0), (0.0, math.inf), (1e200, 0.0)])
    def test_non_finite_norm_is_refused(self, v):
        """nan compares false with every band, so it would read spacelike."""
        with pytest.raises(ValueError, match=r"has non-finite \|v\|\^2 at \[0.0, 0.0\]"):
            causal_character(load_spec(MINK2), [0.0, 0.0], v)

    @pytest.mark.parametrize("v", [[1, 0, 0], [1], [[1, 0], [0, 1]]])
    def test_wrong_length_is_refused(self, torus, v):
        """A plain ValueError naming the count, not numpy's matmul error."""
        with pytest.raises(ValueError, match=r"^vector needs 2 components, got"):
            causal_character(torus.spec, [0.1, 0.2], v)

    def test_sign_reversal_invariance(self, rng):
        spec = load_spec(MINK2)
        for _ in range(20):
            v = rng.normal(size=2)
            a = causal_character(spec, [0.0, 0.0], v)
            b = causal_character(spec, [0.0, 0.0], -v)
            assert a is b


class TestPlaneType:
    def test_minkowski_full_plane_is_timelike(self):
        spec = load_spec(MINK2)
        pi = TangentPlane([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        assert plane_type(spec, pi) is PlaneType.TIMELIKE

    def test_minkowski3_degenerate_plane(self):
        spec = load_spec(MINK3)
        pi = TangentPlane([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        assert plane_type(spec, pi) is PlaneType.DEGENERATE

    def test_hopf_plane_with_field(self, hopf):
        spec = hopf.spec
        p = np.array([np.pi / 4, 0.5, 1.0])
        u = spec.field_eval("U", p)       # unit spacelike, orthogonal to X
        X = spec.field_eval("X", p)
        pi = TangentPlane(p, u, X)
        g = spec.metric_eval(p)
        q = float(u @ g @ u) * float(X @ g @ X) - float(u @ g @ X) ** 2
        assert q == pytest.approx(-1.0, abs=1e-12)
        assert plane_type(spec, pi) is PlaneType.TIMELIKE

    def test_dependent_vectors_rejected(self):
        spec = load_spec(MINK2)
        from lorentzgeo.curvature import DependentVectorsError
        with pytest.raises(DependentVectorsError):
            plane_type(spec, TangentPlane([0.0, 0.0], [1.0, 1.0], [2.0, 2.0]))

    def test_invariant_under_respanning(self, torus, rng):
        spec = torus.spec
        p = np.array([0.3, 0.2])
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        base = plane_type(spec, TangentPlane(p, u, v))
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            uu = A[0, 0] * u + A[0, 1] * v
            vv = A[1, 0] * u + A[1, 1] * v
            assert plane_type(spec, TangentPlane(p, uu, vv)) is base
