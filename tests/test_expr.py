"""Expression trees: parsing, exact differentiation, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgeo import expr as ex
from lorentzgeo.expr import (
    BinOp,
    Const,
    EvalError,
    MissingBindingError,
    ParseError,
    UndeclaredNameError,
    Var,
    differentiate,
    evaluate,
    free_names,
    parse_expression,
    to_text,
)

XY = frozenset({"x", "y"})


def fd_derivative(e, var, point, h=1e-6):
    """Central finite difference of the evaluated expression."""
    up = dict(point)
    dn = dict(point)
    up[var] += h
    dn[var] -= h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


class TestParse:
    def test_polynomial_structure(self):
        e = parse_expression("x^2 + 2*y^2", XY)
        assert e == BinOp("+", BinOp("^", Var("x"), Const(2.0)),
                          BinOp("*", Const(2.0), BinOp("^", Var("y"), Const(2.0))))

    def test_negated_group(self):
        e = parse_expression("-(x^2 + 2*y^2)", XY)
        assert evaluate(e, {"x": 1.0, "y": 2.0}) == -9.0

    def test_undeclared_name(self):
        with pytest.raises(UndeclaredNameError) as err:
            parse_expression("z + 1", XY)
        assert err.value.name == "z"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + * y", XY)
        assert err.value.position == 4

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("2 x", XY)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_expression("sin(x", XY)

    def test_pi_is_builtin(self):
        e = parse_expression("cos(2*pi*x)", XY)
        assert evaluate(e, {"x": 0.5}) == pytest.approx(-1.0)
        assert evaluate(e, {"x": 1.0}) == pytest.approx(1.0)

    def test_reserved_names_cannot_be_declared(self):
        with pytest.raises(ex.ExprError):
            parse_expression("pi", frozenset({"pi"}))

    def test_function_call(self):
        e = parse_expression("sqrt(x)/exp(y)", XY)
        assert evaluate(e, {"x": 4.0, "y": 0.0}) == 2.0

    def test_power_right_associative(self):
        e = parse_expression("x^2^3", frozenset({"x"}))
        assert evaluate(e, {"x": 2.0}) == 2 ** 8

    def test_unary_minus_binds_below_power(self):
        e = parse_expression("-x^2", frozenset({"x"}))
        assert evaluate(e, {"x": 3.0}) == -9.0

    @pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000, "-" * 4000 + "1"],
                             ids=["parentheses", "unary-minus"])
    def test_nesting_too_deep_is_a_parse_error(self, text):
        """The recursive descent gives up as a ParseError, not a
        RecursionError."""
        with pytest.raises(ParseError, match=r"nested too deeply \(at position \d+\)"):
            parse_expression(text, XY)


class TestDifferentiate:
    def test_square(self):
        d = differentiate(parse_expression("x^2", XY), "x")
        for x in (0.0, 1.5, -2.0):
            assert evaluate(d, {"x": x, "y": 0.0}) == 2 * x

    def test_quadratic_form_partial(self):
        # the d/dy of -(x^2 + 2 y^2) feeding the conformal factor
        d = differentiate(parse_expression("-(x^2 + 2*y^2)", XY), "y")
        for y in (0.0, 0.25, -1.0):
            assert evaluate(d, {"x": 0.3, "y": y}) == -4 * y

    def test_sine_against_finite_differences(self):
        e = parse_expression("sin(2*pi*x)", frozenset({"x"}))
        d = differentiate(e, "x")
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1, 1, size=10):
            exact = evaluate(d, {"x": float(x)})
            approx = fd_derivative(e, "x", {"x": float(x)})
            assert exact == pytest.approx(approx, abs=1e-7)
            assert exact == pytest.approx(2 * math.pi * math.cos(2 * math.pi * x))

    def test_var_free_tree_differentiates_to_zero(self):
        assert differentiate(parse_expression("3*y", XY), "x") == Const(0.0)

    def test_quotient_rule(self):
        e = parse_expression("x/(1 + y^2)", XY)
        d = differentiate(e, "y")
        pt = {"x": 2.0, "y": 0.7}
        assert evaluate(d, pt) == pytest.approx(fd_derivative(e, "y", pt), rel=1e-8)

    def test_general_power(self):
        e = parse_expression("x^y", XY)
        d = differentiate(e, "y")
        pt = {"x": 2.0, "y": 1.3}
        assert evaluate(d, pt) == pytest.approx(2.0 ** 1.3 * math.log(2.0))

    def test_sqrt_and_log(self):
        for text, var in (("sqrt(1 + x^2)", "x"), ("log(2 + x)", "x"), ("tan(x)", "x")):
            e = parse_expression(text, XY)
            d = differentiate(e, var)
            pt = {"x": 0.4, "y": 0.0}
            assert evaluate(d, pt) == pytest.approx(fd_derivative(e, var, pt), rel=1e-7)


class TestEvaluate:
    def test_zero_at_origin(self):
        assert evaluate(parse_expression("x^2 + 2*y^2", XY), {"x": 0.0, "y": 0.0}) == 0.0

    def test_exponential_of_zero(self):
        e = parse_expression("exp(2*(-(x^2 + 2*y^2)))", XY)
        assert evaluate(e, {"x": 0.0, "y": 0.0}) == 1.0

    def test_pole_reported_with_subtree(self):
        e = parse_expression("1/(r - 2*m)", frozenset({"r", "m"}))
        with pytest.raises(EvalError) as err:
            evaluate(e, {"r": 2.0, "m": 1.0})
        assert "division by zero" in str(err.value)
        assert "r-2*m" in str(err.value)

    def test_missing_binding(self):
        with pytest.raises(MissingBindingError):
            evaluate(parse_expression("x + y", XY), {"x": 1.0})

    def test_log_domain(self):
        with pytest.raises(EvalError):
            evaluate(parse_expression("log(x)", XY), {"x": -1.0})

    def test_non_integer_power_needs_positive_base(self):
        e = parse_expression("x^0.5", XY)
        with pytest.raises(EvalError):
            evaluate(e, {"x": -4.0})
        # integer powers of negative bases are fine
        assert evaluate(parse_expression("x^2", XY), {"x": -4.0}) == 16.0

    def test_deterministic(self):
        e = parse_expression("sin(x)*exp(y) - x/(2 + y)", XY)
        pt = {"x": 0.7, "y": -0.3}
        assert evaluate(e, pt) == evaluate(e, pt)


class TestPrinter:
    CASES = [
        "x^2 + 2*y^2",
        "-(x^2 + 2*y^2)",
        "cos(2*pi*x)/4 - 1",
        "x/(1 + y^2)",
        "x^y",
        "-x^2",
        "(x + y)^3",
        "x - (y - x)",
        "x/(y/x)",
        "sin(x)*cos(y) - sqrt(1 + x^2)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_is_identity_on_trees(self, text):
        e = parse_expression(text, XY)
        printed = to_text(e)
        assert parse_expression(printed, XY) == e
        assert to_text(parse_expression(printed, XY)) == printed

    def test_free_names(self):
        e = parse_expression("sin(x)*m + y", frozenset({"x", "y", "m"}))
        assert free_names(e) == {"x", "y", "m"}


# ---------------------------------------------------------------------------
# Random-tree properties
# ---------------------------------------------------------------------------

def random_expr(rng, depth=3):
    """Random expression over x, y that stays finite on [-1.5, 1.5]^2."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return ex.Var("x")
        if r < 0.8:
            return ex.Var("y")
        return ex.Const(round(float(rng.uniform(-3, 3)), 3))
    pick = rng.integers(0, 6)
    a = random_expr(rng, depth - 1)
    b = random_expr(rng, depth - 1)
    if pick == 0:
        return ex.add(a, b)
    if pick == 1:
        return ex.sub(a, b)
    if pick == 2:
        return ex.mul(a, b)
    if pick == 3:
        return ex.pow_(a, ex.Const(float(rng.integers(2, 4))))
    if pick == 4:
        return ex.call("sin", a)
    return ex.call("cos", ex.mul(ex.Const(0.5), b))


def test_derivative_matches_finite_differences_on_random_trees():
    """100 random expressions, random points: exact derivative vs central
    differences to relative tolerance 1e-6."""
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        e = random_expr(rng)
        if not free_names(e):
            continue
        var = "x" if "x" in free_names(e) else "y"
        d = differentiate(e, var)
        pt = {"x": float(rng.uniform(-1.5, 1.5)), "y": float(rng.uniform(-1.5, 1.5))}
        exact = evaluate(d, pt)
        approx = fd_derivative(e, var, pt)
        assert exact == pytest.approx(approx, rel=1e-6, abs=1e-6), to_text(e)
        checked += 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(-5, 5), x=st.floats(-1, 1), y=st.floats(-1, 1),
       seed=st.integers(0, 10_000))
def test_differentiation_is_linear(a, x, y, seed):
    """D(a*e1 + e2) = a*D(e1) + D(e2) as evaluated functions."""
    rng = np.random.default_rng(seed)
    e1 = random_expr(rng, depth=2)
    e2 = random_expr(rng, depth=2)
    combo = ex.add(ex.mul(ex.Const(a), e1), e2)
    pt = {"x": x, "y": y}
    lhs = evaluate(differentiate(combo, "x"), pt)
    rhs = a * evaluate(differentiate(e1, "x"), pt) + evaluate(differentiate(e2, "x"), pt)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.floats(-1, 1), y=st.floats(-1, 1), seed=st.integers(0, 10_000))
def test_mixed_partials_commute(x, y, seed):
    rng = np.random.default_rng(seed)
    e = random_expr(rng)
    dxy = differentiate(differentiate(e, "x"), "y")
    dyx = differentiate(differentiate(e, "y"), "x")
    pt = {"x": x, "y": y}
    assert evaluate(dxy, pt) == pytest.approx(evaluate(dyx, pt), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# Non-finite constants and the batched walker
# ---------------------------------------------------------------------------

class TestNonFinite:
    @pytest.mark.parametrize("text,position", [
        ("1e400", 0), ("x + 1e400", 4), ("2^(1e400)", 3), ("x^(-1e999)", 4)])
    def test_overflowing_literal_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_expression(text, XY)
        assert err.value.position == position
        assert "overflows" in str(err.value)

    @pytest.mark.parametrize("text", [
        "1e308*10", "1e308 + 1e308", "-1e308 - 1e308", "1e308/1e-308",
        "exp(1000)", "x^(1e308*10)", "10^400"])
    def test_overflowing_fold_is_reported_at_evaluation(self, text):
        e = parse_expression(text, XY)
        assert not isinstance(e, Const)
        with pytest.raises(EvalError):
            evaluate(e, {"x": 2.0, "y": 0.0})
        with pytest.raises(EvalError):
            ex.evaluate_batch(e, {"x": np.array([2.0, 3.0]), "y": 0.0})

    def test_non_finite_exponent_is_an_eval_error(self):
        e = ex.pow_(Var("x"), Const(math.inf))
        with pytest.raises(EvalError, match="non-finite exponent"):
            evaluate(e, {"x": 2.0})
        with pytest.raises(EvalError, match="non-finite exponent"):
            ex.evaluate_batch(e, {"x": np.array([0.5])})     # numpy gives 0.5^inf = 0
        assert ex.pow_(Const(2.0), Const(math.inf)) == BinOp("^", Const(2.0), Const(math.inf))


# Partial functions put on top of random_expr trees, so that the batches
# meet poles, domain errors and overflow as well as finite values.  Each
# comes with whether its values are compared: near a pole (also of a
# negative power), for tan, and for exp of a large argument the condition number has no bound, so a
# last-place difference at an inner node may grow without limit there,
# and only the error behaviour of those wrappers is compared.
WRAPPERS = [
    (lambda e: e, True),
    (lambda e: ex.call("log", e), True),
    (lambda e: ex.call("sqrt", e), True),
    (lambda e: ex.call("abs", e), True),
    (lambda e: ex.pow_(e, Const(0.5)), True),
    (lambda e: ex.div(ex.ONE, e), False),
    (lambda e: ex.div(e, ex.sub(Var("x"), Var("y"))), False),
    (lambda e: ex.pow_(e, Const(-2.0)), False),
    (lambda e: ex.pow_(ex.call("abs", e), Var("y")), False),
    (lambda e: ex.call("exp", ex.mul(Const(400.0), e)), False),
    (lambda e: ex.call("tan", e), False),
]


def _scalar_loop(e, xs, ys):
    """Reference: the scalar walker point by point, or the first error."""
    try:
        return [evaluate(e, {"x": float(x), "y": float(y)}) for x, y in zip(xs, ys)]
    except EvalError as err:
        return err


def assert_batch_matches_scalar(batch, scalar):
    """Equal within 4 ulp, or within 1e-14 relative to max(1, |v|) where
    an inner ulp difference is amplified by cancellation."""
    scalar = np.asarray(scalar)
    diff = np.abs(batch - scalar)
    ok = (diff <= 4 * np.spacing(np.abs(scalar))) | (diff <= 1e-14 * np.maximum(1.0, np.abs(scalar)))
    assert ok.all(), (batch[~ok], scalar[~ok])


coordinate = st.floats(-1.5, 1.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), wrap=st.integers(0, len(WRAPPERS) - 1),
       points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12))
def test_batch_matches_scalar_walker(seed, wrap, points):
    """evaluate_batch agrees with evaluate at every point, or raises the
    error a point-by-point loop raises first, with the same message."""
    wrapper, compare_values = WRAPPERS[wrap]
    e = wrapper(random_expr(np.random.default_rng(seed)))
    xs, ys = np.array(points).T
    want = _scalar_loop(e, xs, ys)
    if isinstance(want, EvalError):
        with pytest.raises(type(want)) as err:
            ex.evaluate_batch(e, {"x": xs, "y": ys})
        assert str(err.value) == str(want)
        return
    got = ex.evaluate_batch(e, {"x": xs, "y": ys})
    if compare_values:
        assert_batch_matches_scalar(got, want)
    else:
        assert np.isfinite(got).all()


class TestEvaluateBatch:
    def test_shape_follows_the_columns(self):
        e = parse_expression("x*y + 1", XY)
        out = ex.evaluate_batch(e, {"x": np.arange(6.0).reshape(2, 3), "y": 2.0})
        assert out.shape == (2, 3)
        assert out[1, 2] == 11.0
        assert ex.evaluate_batch(parse_expression("3", XY), {"x": np.zeros(4)}).tolist() == [3.0] * 4

    def test_pole_inside_a_finite_result_is_reported(self):
        # numpy gives 1/(1/0) = 0 with no error; the scalar walker raises
        e = parse_expression("1/(1/(x - 0.5))", XY)
        with pytest.raises(EvalError, match="division by zero") as err:
            ex.evaluate_batch(e, {"x": np.array([0.25, 0.5, 0.75])})
        assert "1/(x-0.5)" in str(err.value)

    def test_first_offending_point_in_c_order(self):
        e = parse_expression("sqrt(x) + log(y)", XY)
        xs = np.array([[1.0, 1.0], [-1.0, 1.0]])
        ys = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(EvalError, match="logarithm"):
            ex.evaluate_batch(e, {"x": xs, "y": ys})
        with pytest.raises(EvalError, match="square root"):
            ex.evaluate_batch(e, {"x": xs.T, "y": ys.T})

    def test_fractional_power_of_zero(self):
        # numpy gives 0^0.5 = 0; the scalar walker refuses a non-positive base
        e = parse_expression("x^0.5", XY)
        with pytest.raises(EvalError, match="non-positive base"):
            ex.evaluate_batch(e, {"x": np.array([1.0, 0.0])})

    def test_missing_binding(self):
        with pytest.raises(MissingBindingError):
            ex.evaluate_batch(parse_expression("x + y", XY), {"x": np.zeros(3)})


# ---------------------------------------------------------------------------
# Compiled tree lists
# ---------------------------------------------------------------------------

def _walked(trees, bindings):
    """Reference: the scalar walker over the list, or its first error."""
    try:
        return [evaluate(t, bindings) for t in trees]
    except EvalError as err:
        return err


# WRAPPERS, plus a product that overflows without raising: the
# straight-line code computes inf there, and only the walker reports it
COMPILED_WRAPPERS = [w for w, _ in WRAPPERS] + [
    lambda e: ex.mul(Const(1e300), ex.call("exp", ex.mul(Const(20.0), e)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       wraps=st.lists(st.integers(0, len(COMPILED_WRAPPERS) - 1), min_size=1, max_size=4),
       x=coordinate, y=coordinate)
def test_compiled_trees_equal_the_walker(seed, wraps, x, y):
    """compile_trees returns the walker's values bit for bit, or raises
    its first error with the same message.  The trees share subtrees (and
    derivatives of one another), so the hash-consing is exercised."""
    rng = np.random.default_rng(seed)
    base = random_expr(rng)
    trees = [COMPILED_WRAPPERS[w](base if k % 2 else random_expr(rng))
             for k, w in enumerate(wraps)]
    trees += [differentiate(t, "x") for t in trees] + [Const(1.5), base]
    b = {"x": x, "y": y}
    want = _walked(trees, b)
    run = ex.compile_trees(trees)
    if isinstance(want, EvalError):
        with pytest.raises(type(want)) as err:
            run(b)
        assert str(err.value) == str(want)
        return
    got = run(b)
    assert [v.hex() for v in got] == [v.hex() for v in want]


class TestCompileTrees:
    def test_missing_binding(self):
        run = ex.compile_trees([parse_expression("x + y", XY)])
        with pytest.raises(MissingBindingError, match="no binding for 'y'"):
            run({"x": 1.0})

    def test_single_tree_and_empty_list(self):
        e = parse_expression("sin(x)*y - y^3/2", XY)
        b = {"x": 0.7, "y": -1.3}
        assert ex.compile_trees([e])(b) == [evaluate(e, b)]
        assert ex.compile_trees([])(b) == []

    def test_pole_names_the_walkers_subtree(self):
        trees = [parse_expression(t, XY) for t in ("x*y", "1/(x - y)", "log(x - y)")]
        with pytest.raises(EvalError) as err:
            ex.compile_trees(trees)({"x": 0.5, "y": 0.5})
        assert str(err.value) == "division by zero in '1/(x-y)'"

    def test_non_finite_value_without_an_exception(self):
        # 1e200*x overflows to inf silently in the straight-line code;
        # only the walker's check reports it
        e = parse_expression("1e200*x*y", XY)
        with pytest.raises(EvalError, match="non-finite value"):
            ex.compile_trees([e])({"x": 1e200, "y": 1.0})

    def test_shared_subtrees_are_computed_once(self, monkeypatch):
        # equal subtrees hash-cons into one temporary even when they are
        # distinct objects; a negative zero stays apart from a positive one
        calls = []
        monkeypatch.setitem(ex._MATH_FN, "sin", lambda v: calls.append(v) or math.sin(v))
        a = parse_expression("sin(x + y)", XY)
        b = parse_expression("sin(x + y)", XY)
        assert a is not b
        trees = [BinOp("*", a, Const(-0.0)), BinOp("*", b, Const(0.0)), ex.add(a, b)]
        point = {"x": 0.1, "y": 0.2}
        got = ex.compile_trees(trees)(point)
        assert len(calls) == 1
        assert [v.hex() for v in got] == [evaluate(t, point).hex() for t in trees]
        assert math.copysign(1.0, got[0]) == -1.0 and math.copysign(1.0, got[1]) == 1.0
