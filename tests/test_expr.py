"""Expression trees: parsing, exact differentiation, evaluation."""

import copy
import gc
import math
import pickle
import re
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgeo import expr as ex
from lorentzgeo.expr import (
    BinOp,
    Call,
    Const,
    EvalError,
    Expr,
    ExprError,
    MissingBindingError,
    Neg,
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

    def test_parsing_leaves_nothing_for_the_cyclic_collector(self):
        """The descent's three levels refer to one another; they are
        freed on return, with the tokens, after an error as well."""
        gc.collect()
        gc.disable()
        try:
            parse_expression("1 + 2*sin(x)^2 - y/3", XY)
            for text in ("x + $", "(x", "(" * 3000):
                try:
                    parse_expression(text, XY)
                except ParseError:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_nesting_the_descent_can_follow_parses(self):
        """Three frames a parenthesis and one a chained power: 200
        parentheses take 600 frames and 480 powers 480."""
        assert parse_expression("(" * 200 + "x" + ")" * 200, XY) == Var("x")
        chain = parse_expression("x" + "^x" * 480, XY)
        for _ in range(480):
            assert chain.op == "^" and chain.left == Var("x")
            chain = chain.right
        assert chain == Var("x")


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


class TestNodes:
    TEXT = "x^2*sin(y)+1"

    def test_equal_trees_are_equal_and_hash_equal(self):
        a, b = parse_expression(self.TEXT, XY), parse_expression(self.TEXT, XY)
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != parse_expression("x^2*sin(y)+2", XY)

    def test_nodes_of_different_classes_are_never_equal(self):
        assert Const(1.0) != Var("x") and Const(1.0) != BinOp("+", Var("x"), Const(1.0))
        assert (parse_expression(self.TEXT, XY) == ex.ZERO) is False
        assert Const(0.0) == ex.ZERO and Const(-0.0) == ex.ZERO

    def test_repr(self):
        assert repr(parse_expression(self.TEXT, XY)) == (
            "BinOp(op='+', left=BinOp(op='*', left=BinOp(op='^', left=Var(name='x'), "
            "right=Const(value=2.0)), right=Call(fn='sin', arg=Var(name='y'))), "
            "right=Const(value=1.0))")

    def test_fields_cannot_be_assigned_or_deleted(self):
        e = parse_expression(self.TEXT, XY)
        with pytest.raises(FrozenInstanceError):
            e.op = "-"
        with pytest.raises(FrozenInstanceError):
            del e.left
        with pytest.raises(FrozenInstanceError):
            ex.ONE.value = 2.0
        assert e == parse_expression(self.TEXT, XY) and ex.ONE.value == 1.0

    def test_pickle_and_copies_give_equal_trees(self):
        e = parse_expression("-x^2*sin(y)/(1 - y) + pi - abs(x)", XY)
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert twin == e and to_text(twin) == to_text(e)
        assert pickle.loads(pickle.dumps(Expr())) == Expr()

    def test_keyword_and_bare_construction(self):
        assert Const(value=1.0) == ex.ONE
        assert BinOp(op="+", left=Var(name="x"), right=Const(value=2.0)) == \
            parse_expression("x + 2", XY)
        assert Call(fn="sin", arg=Neg(arg=Var(name="y"))) == parse_expression("sin(-y)", XY)
        assert Expr() == Expr() and repr(Expr()) == "Expr()"

    def test_nodes_have_no_dict(self):
        for node in (Expr(), Const(1.0), Var("x"), BinOp("+", Var("x"), Const(1.0)),
                     Neg(Var("x")), Call("sin", Var("x"))):
            assert not hasattr(node, "__dict__"), type(node).__name__


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

    def test_finite_nodes_whose_sum_overflows_are_not_rewalked(self, monkeypatch):
        # every node of x*1e308 - x*1e308 is finite at x = 1, though their
        # sum is not: no operation is flagged, so no point is handed to
        # the scalar walker
        e = parse_expression("x*1e308 - x*1e308", XY)
        walked = []
        monkeypatch.setattr(ex, "evaluate",
                            lambda t, b: (t is e and walked.append(b)) or evaluate(t, b))
        assert ex.evaluate_batch(e, {"x": np.array([1.0, 0.5])}).tolist() == [0.0, 0.0]
        assert walked == []

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

    # Each batch fails first at the point marked by ``first``, after a
    # finite one.  Numpy flags the division by zero, log(0), the negative
    # arguments, 0^-2 and the overflow; the fractional powers of zero and
    # the non-finite leaves it does not flag, and the walker checks those.
    @pytest.mark.parametrize("e,columns,first", [
        (parse_expression("1/(x - 0.5)", XY), {"x": [0.25, 0.5, 0.75, 0.5]}, 1),
        (parse_expression("log(x)", XY), {"x": [1.0, 0.0, -1.0]}, 1),
        (parse_expression("log(-x)", XY), {"x": [-1.0, 2.0]}, 1),
        (parse_expression("sqrt(-x)", XY), {"x": [-1.0, -0.0, 0.5]}, 2),
        (parse_expression("x^-2", XY), {"x": [1.0, 0.0]}, 1),
        (parse_expression("exp(1000*x)", XY), {"x": [0.5, 1.0]}, 1),
        (parse_expression("x^0.5", XY), {"x": [1.0, 0.0]}, 1),
        (parse_expression("x^y", XY), {"x": [2.0, -1.0, 0.0], "y": [0.5, 2.0, 0.5]}, 2),
        (ex.div(ex.ONE, BinOp("+", Var("x"), Const(math.inf))), {"x": [1.0, 2.0]}, 0),
        (ex.div(ex.ONE, BinOp("+", Var("x"), Const(math.nan))), {"x": [1.0, 2.0]}, 0),
        (parse_expression("1/(x + y)", XY), {"x": [1.0, 2.0], "y": [0.0, math.inf]}, 1),
    ], ids=["division", "log_zero", "log_negative", "sqrt_negative", "negative_power",
            "exp_overflow", "half_power", "varying_power", "inf_constant", "nan_constant",
            "inf_column"])
    def test_poles_match_the_point_loop(self, monkeypatch, e, columns, first):
        """Up to the first failing point the batch gives the point loop's
        values; with it, the point loop's error at that point, and numpy's
        error state is as it was."""
        columns = {k: np.array(v) for k, v in columns.items()}
        points = [dict(zip(columns, map(float, p))) for p in zip(*columns.values())]
        with pytest.raises(EvalError) as want:
            [evaluate(e, b) for b in points]
        head = {k: v[:first] for k, v in columns.items()}
        assert_batch_matches_scalar(ex.evaluate_batch(e, head),
                                    [evaluate(e, b) for b in points[:first]])

        walked, state = [], np.geterr()
        monkeypatch.setattr(ex, "evaluate",
                            lambda t, b: (t is e and walked.append(b)) or evaluate(t, b))
        with pytest.raises(EvalError) as got:
            ex.evaluate_batch(e, columns)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert walked == points[:first + 1]
        assert np.geterr() == state


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


# ---------------------------------------------------------------------------
# The scalar walker against the previous one
# ---------------------------------------------------------------------------
# Oracle: the walker as it was before it dispatched on exact types, read
# Const operands in place and tested finiteness inline.  Only names are
# renamed; the power rule is the module's own.

def old_check_finite(value: float, node: Expr) -> float:
    if not math.isfinite(value):
        raise EvalError("non-finite value", node)
    return value


def old_evaluate(e: Expr, bindings: dict[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise MissingBindingError(e.name, e)
    if isinstance(e, Neg):
        return -old_evaluate(e.arg, bindings)
    if isinstance(e, BinOp):
        a = old_evaluate(e.left, bindings)
        b = old_evaluate(e.right, bindings)
        if e.op == "+":
            return old_check_finite(a + b, e)
        if e.op == "-":
            return old_check_finite(a - b, e)
        if e.op == "*":
            return old_check_finite(a * b, e)
        if e.op == "/":
            if b == 0.0:
                raise EvalError("division by zero", e)
            return old_check_finite(a / b, e)
        if e.op == "^":
            return ex._eval_pow(a, b, e)
        raise ExprError(f"unknown operator '{e.op}'")
    if isinstance(e, Call):
        a = old_evaluate(e.arg, bindings)
        if e.fn == "log" and a <= 0.0:
            raise EvalError("logarithm of a non-positive number", e)
        if e.fn == "sqrt" and a < 0.0:
            raise EvalError("square root of a negative number", e)
        try:
            return old_check_finite(ex._MATH_FN[e.fn](a), e)
        except (ValueError, OverflowError):
            raise EvalError("domain error", e)
    raise ExprError(f"cannot evaluate node {e!r}")


def _outcome(walker, e, bindings):
    """The value's bytes, or the class and message of what was raised."""
    try:
        return np.float64(walker(e, bindings)).tobytes()
    except Exception as err:        # every class is compared, KeyError included
        return type(err), str(err)


# COMPILED_WRAPPERS, plus nodes the walker refuses: an unknown operator,
# an unknown function and a bare base node, each after a valid operand
WALKER_WRAPPERS = COMPILED_WRAPPERS + [
    lambda e: BinOp("%", e, Var("x")),
    lambda e: Call("cosh", e),
    lambda e: BinOp("+", e, Expr()),
    lambda e: ex.neg(ex.mul(e, ex.call("exp", Var("y")))),
]
# finite coordinates, and the bindings that reach the non-finite paths
walker_coordinate = st.one_of(coordinate, st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), wrap=st.integers(0, len(WALKER_WRAPPERS) - 1),
       x=walker_coordinate, y=walker_coordinate, bind_y=st.booleans())
def test_walker_matches_the_previous_walker(seed, wrap, x, y, bind_y):
    """evaluate gives the previous walker's value bit for bit, or raises
    the same class with the same message: at poles, on overflow, with an
    unbound name, a non-finite binding or a node it refuses."""
    rng = np.random.default_rng(seed)
    e = WALKER_WRAPPERS[wrap](random_expr(rng))
    for tree in (e, differentiate(e, "x")) if wrap < len(COMPILED_WRAPPERS) else (e,):
        b = {"x": x, "y": y} if bind_y else {"x": x}
        assert _outcome(evaluate, tree, b) == _outcome(old_evaluate, tree, b)


# ---------------------------------------------------------------------------
# The parser and smart constructors against the previous ones
# ---------------------------------------------------------------------------
# Oracles: the smart constructors as they were before each tested an
# operand's type once, and the parser as it was before the one-regex
# tokenizer: a character loop, and a descent of five levels
# (expression, term, factor, power, atom).  Only names are renamed.

def old_is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def old_add(a: Expr, b: Expr) -> Expr:
    if old_is_const(a) and old_is_const(b) and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    if old_is_const(a, 0.0):
        return b
    if old_is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def old_sub(a: Expr, b: Expr) -> Expr:
    if old_is_const(a) and old_is_const(b) and math.isfinite(a.value - b.value):
        return Const(a.value - b.value)
    if old_is_const(b, 0.0):
        return a
    if old_is_const(a, 0.0):
        return old_neg(b)
    return BinOp("-", a, b)


def old_mul(a: Expr, b: Expr) -> Expr:
    if old_is_const(a) and old_is_const(b) and math.isfinite(a.value * b.value):
        return Const(a.value * b.value)
    if old_is_const(a, 0.0) or old_is_const(b, 0.0):
        return ex.ZERO
    if old_is_const(a, 1.0):
        return b
    if old_is_const(b, 1.0):
        return a
    if old_is_const(a, -1.0):
        return old_neg(b)
    if old_is_const(b, -1.0):
        return old_neg(a)
    return BinOp("*", a, b)


def old_div(a: Expr, b: Expr) -> Expr:
    if old_is_const(a, 0.0) and not old_is_const(b, 0.0):
        return ex.ZERO
    if old_is_const(b, 1.0):
        return a
    if old_is_const(a) and old_is_const(b) and b.value != 0.0 and math.isfinite(a.value / b.value):
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def old_pow_(a: Expr, b: Expr) -> Expr:
    if old_is_const(b, 1.0):
        return a
    if old_is_const(b, 0.0):
        return ex.ONE
    if old_is_const(a) and old_is_const(b):
        try:
            return Const(ex._eval_pow(a.value, b.value, BinOp("^", a, b)))
        except EvalError:
            pass
    return BinOp("^", a, b)


def old_neg(a: Expr) -> Expr:
    if old_is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def old_call(fn: str, a: Expr) -> Expr:
    if fn not in ex._MATH_FN:
        raise ExprError(f"unknown function '{fn}'")
    if old_is_const(a):
        try:
            value = ex._MATH_FN[fn](a.value)
        except (ValueError, OverflowError):
            return Call(fn, a)
        if math.isfinite(value):
            return Const(value)
    return Call(fn, a)


class OldToken:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def old_tokenize(text: str) -> list[OldToken]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(OldToken(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"malformed number '{text[i:j]}'", i)
            if not math.isfinite(value):
                raise ParseError(f"number '{text[i:j]}' overflows", i)
            tokens.append(OldToken("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(OldToken("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(OldToken("end", "", n))
    return tokens


class OldParser:
    def __init__(self, tokens: list[OldToken], declared: frozenset[str]):
        self.tokens = tokens
        self.declared = declared
        self.i = 0

    def peek(self) -> OldToken:
        return self.tokens[self.i]

    def advance(self) -> OldToken:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> OldToken:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected '{kind}', found '{tok.text or 'end of input'}'", tok.pos)
        return self.advance()

    def expression(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = old_add(node, rhs) if op == "+" else old_sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            node = old_mul(node, rhs) if op == "*" else old_div(node, rhs)
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return old_neg(self.factor())
        if tok.kind == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return old_pow_(base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "(":
            node = self.expression()
            self.expect(")")
            return node
        if tok.kind == "name":
            if tok.text in ex.FUNCTIONS:
                self.expect("(")
                arg = self.expression()
                self.expect(")")
                return old_call(tok.text, arg)
            if tok.text == "pi":
                return Const(math.pi)
            if tok.text not in self.declared:
                raise UndeclaredNameError(tok.text, tok.pos)
            if self.peek().kind == "(":
                raise ParseError(f"'{tok.text}' is not a function", tok.pos)
            return Var(tok.text)
        raise ParseError(f"unexpected '{tok.text or 'end of input'}'", tok.pos)


def old_parse_expression(text: str, declared) -> Expr:
    declared = frozenset(declared)
    clash = declared & set(ex.RESERVED)
    if clash:
        raise ExprError(f"declared names shadow reserved words: {sorted(clash)}")
    parser = OldParser(old_tokenize(text), declared)
    try:
        node = parser.expression()
    except RecursionError:
        raise ParseError("expression is nested too deeply",
                         parser.tokens[min(parser.i, len(parser.tokens) - 1)].pos) from None
    parser.expect("end")
    return node


def shape(e):
    """``e`` as nested tuples, constants by their hex form (which keeps
    the sign of a zero)."""
    if isinstance(e, Const):
        return ("C", e.value.hex())
    if isinstance(e, Var):
        return ("V", e.name)
    if isinstance(e, (Neg, Call)):
        return (type(e).__name__, getattr(e, "fn", ""), shape(e.arg))
    return ("B", e.op, shape(e.left), shape(e.right))


def _parsed(parse, text):
    """The tree's shape, or the error's class, message and position."""
    try:
        return shape(parse(text, SOUP_DECLARED))
    except ParseError as err:
        return type(err), str(err), err.position


# declared names that are not single name tokens ('1', '²x', 'Ⅻ') never
# match one; 'α' and 'x²' do
SOUP_DECLARED = frozenset({"x", "y", "x1", "_a", "α", "x²", "1", "²x", "Ⅻ"})
SOUP = ["0", "1", "7", "400", ".", "e", "E", "+", "-", "*", "/", "^", "(", ")",
        "x", "y", "x1", "_a", "α", "z", "w", "sin", "exp", "abs", "pi",
        " ", "\t", "\u00a0", "\u2003", "²", "٣", "Ⅻ", "$", ","]
_atoms = st.sampled_from(["x", "y", "x1", "_a", "α", "x²", "pi", "2", "0.5", ".25", "1e3",
                          "3E-2", "0", "1", "٣", "1e400"])
_sep = st.sampled_from(["", " ", "\u2003"])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, _sep, st.sampled_from("+-*/^"), _sep, inner).map("".join),
        st.tuples(st.sampled_from("-+"), inner).map("".join),
        st.tuples(st.sampled_from(["(", "sin(", "exp(", "abs("]), inner, st.just(")"))
        .map("".join))


# grammatical texts, token soup, and grammatical texts with one soup
# piece put in; at most a few dozen levels deep, so that no recursion
# limit decides an outcome
_grammatical = st.recursive(_atoms, _compound, max_leaves=16)
TEXTS = st.one_of(
    _grammatical,
    st.lists(st.sampled_from(SOUP), max_size=30).map("".join),
    st.tuples(_grammatical, st.integers(0, 200), st.sampled_from(SOUP)).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=TEXTS)
def test_parser_matches_the_previous_parser(text):
    """Equal trees, constants to the sign of a zero, or the same error
    class, message and position."""
    assert _parsed(parse_expression, text) == _parsed(old_parse_expression, text)


CONSTRUCTOR_OPERANDS = [Const(v) for v in (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e308, -1e308,
                                           1e-308, 5e-324, math.inf)] + [
    Var("x"), Neg(Var("x")), BinOp("+", Var("x"), Const(1.0))]


@pytest.mark.parametrize("new,old", [(ex.add, old_add), (ex.sub, old_sub), (ex.mul, old_mul),
                                     (ex.div, old_div), (ex.pow_, old_pow_)],
                         ids=["add", "sub", "mul", "div", "pow_"])
def test_smart_constructors_match_the_previous_ones(new, old):
    """On every pair of operands, folds that overflow (1e308 + 1e308,
    1e308 * 2, 2 ^ 1e308) and signed zeros included."""
    for a in CONSTRUCTOR_OPERANDS:
        for b in CONSTRUCTOR_OPERANDS:
            got, want = new(a, b), old(a, b)
            assert got == want and shape(got) == shape(want), (a, b)


def test_unary_constructors_match_the_previous_ones():
    for a in CONSTRUCTOR_OPERANDS:
        assert shape(ex.neg(a)) == shape(old_neg(a))
        for fn in ex.FUNCTIONS:
            assert shape(ex.call(fn, a)) == shape(old_call(fn, a)), (fn, a)


# ---------------------------------------------------------------------------
# The printer against the previous one
# ---------------------------------------------------------------------------
# Oracle: the printer as it was before it made one call per node, which
# returns the node's text and precedence; it asked _prec for each
# operand's precedence instead, and formatted constants in _fmt_const.
# Only names are renamed.

OLD_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def old_prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return OLD_PREC[e.op]
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Const) and e.value < 0:
        return 3
    return 9


def old_fmt_const(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def old_to_text(e: Expr) -> str:
    if isinstance(e, Const):
        return old_fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({old_to_text(e.arg)})"
    if isinstance(e, Neg):
        inner = old_to_text(e.arg)
        if old_prec(e.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        p = OLD_PREC[e.op]
        left, right = old_to_text(e.left), old_to_text(e.right)
        if e.op == "^":
            if old_prec(e.left) <= 4:
                left = f"({left})"
            if old_prec(e.right) < 3:
                right = f"({right})"
        else:
            if old_prec(e.left) < p:
                left = f"({left})"
            if old_prec(e.right) <= p:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise ExprError(f"cannot print node {e!r}")


def _printed(printer, e):
    """The text, or the class and message of what was raised."""
    try:
        return printer(e)
    except Exception as err:        # every class is compared, KeyError included
        return type(err), str(err)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), wrap=st.integers(0, len(WALKER_WRAPPERS) - 1),
       negate=st.booleans())
def test_printer_matches_the_previous_printer(seed, wrap, negate):
    """Equal text for random trees under every wrapper, their derivatives
    and their negations (kept as Neg nodes), or the same error for the
    nodes neither prints."""
    e = WALKER_WRAPPERS[wrap](random_expr(np.random.default_rng(seed)))
    if negate:
        e = Neg(e)
    for tree in (e, differentiate(e, "x")) if wrap < len(COMPILED_WRAPPERS) else (e,):
        assert _printed(to_text, tree) == _printed(old_to_text, tree)


X, Y, Z = Var("x"), Var("y"), Var("z")
PRINTER_CASES = {
    "negative power base": BinOp("^", Const(-2.0), X),
    "negative exponent": BinOp("^", X, Const(-2.0)),
    "double negation": Neg(Neg(X)),
    "negated negative constant": Neg(Const(-3.0)),
    "right difference": BinOp("-", X, BinOp("-", Y, Z)),
    "left difference": BinOp("-", BinOp("-", X, Y), Z),
    "quotient of a product": BinOp("/", X, BinOp("*", Y, Z)),
    "power tower": BinOp("^", Const(2.0), BinOp("^", Const(3.0), Const(2.0))),
    "power of a power": BinOp("^", BinOp("^", Const(2.0), Const(3.0)), Const(2.0)),
    "negated power": Neg(BinOp("^", X, Const(2.0))),
    "power of a negation": BinOp("^", Neg(X), Const(2.0)),
    "negated sum": Neg(BinOp("+", X, Y)),
    "negative zero": Const(-0.0),
    "negative zero base": BinOp("^", Const(-0.0), X),
    "below 1e16": Const(9999999999999998.0),
    "at 1e16": Const(1e16),
    "above 1e16": Const(1.0000000000000002e16),
    "at -1e16": BinOp("*", X, Const(-1e16)),
    "fraction": BinOp("+", Const(0.1), Const(-2.5)),
    "non-finite constants": BinOp("+", Const(math.inf), Const(math.nan)),
    "call of a negation": Call("sqrt", Neg(BinOp("*", X, Y))),
}


@pytest.mark.parametrize("tree", PRINTER_CASES.values(), ids=PRINTER_CASES.keys())
def test_printer_matches_the_previous_printer_on_hand_cases(tree):
    assert to_text(tree) == old_to_text(tree)


def _chain(n, bottom, step):
    for _ in range(n):
        bottom = step(bottom)
    return bottom


_FACTOR = BinOp("+", Const(1.0), BinOp("*", Const(0.001), Call("sin", X)))
DEEP_SHAPES = {
    "product ending in a constant": lambda n: _chain(n, Const(2.0), lambda e: BinOp("*", e, _FACTOR)),
    "product ending in a variable": lambda n: _chain(n, X, lambda e: BinOp("*", e, _FACTOR)),
    "product of sines": lambda n: _chain(n, _FACTOR, lambda e: BinOp("*", e, _FACTOR)),
    "right-nested differences": lambda n: _chain(n, Const(-3.5), lambda e: BinOp("-", Y, e)),
    "power tower": lambda n: _chain(n, X, lambda e: BinOp("^", Const(2.0), e)),
    "sums of variables": lambda n: _chain(n, X, lambda e: BinOp("+", e, Y)),
    "negations": lambda n: _chain(n, X, Neg),
    "calls of a variable": lambda n: _chain(n, X, lambda e: Call("cos", e)),
    "calls of a constant": lambda n: _chain(n, Const(-1.0), lambda e: Call("cos", e)),
}


def _deepest(accepts, limit):
    """The largest n in [0, limit] for which ``accepts(n)`` holds, if it
    holds for every smaller n."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if accepts(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("build", DEEP_SHAPES.values(), ids=DEEP_SHAPES.keys())
def test_printer_gives_up_at_the_previous_printers_depth(build):
    """The deepest tree of each shape that prints is as deep for both
    printers, so the too-deep guards around the printer fire where they did."""
    def deepest(printer):
        def accepts(n):
            try:
                printer(build(n))
            except RecursionError:
                return False
            return True
        return _deepest(accepts, 2 * sys.getrecursionlimit())

    assert deepest(to_text) == deepest(old_to_text) < sys.getrecursionlimit()


def test_documents_match_the_previous_printer(monkeypatch):
    """to_document of every catalog entry, and of the flip of round_s3,
    prints the same under both printers."""
    from lorentzgeo.catalog import build_example, list_examples
    from lorentzgeo.manifold import to_document
    from lorentzgeo.obstruction import lorentzianize

    specs = [build_example(name).spec for name in list_examples()]
    specs.append(lorentzianize(build_example("round_s3").spec, "X"))
    new = [to_document(M) for M in specs]
    monkeypatch.setattr(ex, "to_text", old_to_text)
    assert [to_document(M) for M in specs] == new


# ---------------------------------------------------------------------------
# The parser and the batch walker against the previous ones
# ---------------------------------------------------------------------------
# Oracles: the descent as it was before it kept a table of its leaves and
# split ASCII texts with _ASCII_TOKEN, and the batch walk as it was before
# it read each operand's type once.  Only names are renamed.

def ref_parse_expression(text: str, declared) -> Expr:
    declared = frozenset(declared)
    clash = declared & set(ex.RESERVED)
    if clash:
        raise ExprError(f"declared names shadow reserved words: {sorted(clash)}")
    names = frozenset(n for n in declared if n[:1].isalpha() or n[:1] == "_")
    odd = "" if text.isascii() else \
        "".join(c for c in set(text) if c.isalnum() and not (c.isalpha() or c.isdecimal()))
    pattern = ex._TOKEN if not odd else \
        re.compile(ex._TOKEN_FORM.format("".join(filter(str.isdigit, odd)), odd))
    tokens = pattern.findall(text)
    tokens.append("")
    i = 0

    def at(k):
        return ([m.start() for m in pattern.finditer(text)] + [len(text)])[k]

    def expect(tok):
        nonlocal i
        if tokens[i] != tok:
            found = tokens[i] or "end of input"
            raise ParseError(f"expected '{tok or 'end'}', found '{found}'", at(i))
        i += 1

    def expression():
        nonlocal i
        node = term()
        while tokens[i] in ex._ADDITIVE:
            i += 1
            node = ex._ADDITIVE[tokens[i - 1]](node, term())
        return node

    def term():
        nonlocal i
        node = factor()
        while tokens[i] in ex._MULTIPLICATIVE:
            i += 1
            node = ex._MULTIPLICATIVE[tokens[i - 1]](node, factor())
        return node

    def factor():
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok in names:
            if tokens[i] == "(":
                raise ParseError(f"'{tok}' is not a function", at(i - 1))
            node = Var(tok)
        elif tok in ex._MATH_FN:
            expect("(")
            node = expression()
            expect(")")
            node = ex.call(tok, node)
        elif tok == "(":
            node = expression()
            expect(")")
        elif tok == "-":
            return ex.neg(factor())
        elif tok == "pi":
            node = Const(math.pi)
        elif tok == "+":
            return factor()
        else:
            try:
                value = float(tok)
            except ValueError:
                value = math.inf
            if not math.isfinite(value):
                if tok[:1].isalpha() or tok[:1] == "_":
                    raise UndeclaredNameError(tok, at(i - 1))
                raise ParseError(f"unexpected '{tok or 'end of input'}'", at(i - 1))
            node = Const(value)
        if tokens[i] == "^":
            i += 1
            return ex.pow_(node, factor())
        return node

    try:
        node = expression()
        expect("")
    except (ParseError, RecursionError) as err:
        for k, tok in enumerate(tokens):
            if tok[:1].isdigit() or tok[:1] == "." and len(tok) > 1:
                try:
                    value = float(tok)
                except ValueError:
                    raise ParseError(f"malformed number '{tok}'", at(k)) from None
                if not math.isfinite(value):
                    raise ParseError(f"number '{tok}' overflows", at(k)) from None
            elif len(tok) == 1 and tok not in "+-*/^()_" and not tok.isalpha():
                raise ParseError(f"unexpected character '{tok}'", at(k)) from None
        if isinstance(err, RecursionError):
            raise ParseError("expression is nested too deeply",
                             at(min(i, len(tokens) - 1))) from None
        raise
    finally:
        del expression, term, factor
    return node


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=TEXTS)
def test_parser_matches_the_previous_descent(text):
    """Equal trees, or the same error class, message and position, as the
    descent before the leaf table and the ASCII pattern."""
    assert _parsed(parse_expression, text) == _parsed(ref_parse_expression, text)


def ref_evaluate_batch(e: Expr, columns: dict) -> np.ndarray:
    shape = np.broadcast_shapes(*(np.shape(v) for v in columns.values()))
    try:
        if not all(np.isfinite(v).all() for v in columns.values()):
            raise FloatingPointError
        with np.errstate(all="raise", under="ignore"):
            return np.array(np.broadcast_to(ref_walk_batch(e, columns), shape), dtype=float)
    except FloatingPointError:
        full = {k: np.broadcast_to(v, shape) for k, v in columns.items()}
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        out[idx] = evaluate(e, {k: float(v[idx]) for k, v in full.items()})
    return out


def ref_walk_batch(e: Expr, columns: dict):
    t = type(e)
    if t is BinOp:
        left, right = e.left, e.right
        a = left.value if type(left) is Const else ref_walk_batch(left, columns)
        b = right.value if type(right) is Const else ref_walk_batch(right, columns)
        if type(left) is Const and not ex._isfinite(a) or type(right) is Const and not ex._isfinite(b):
            raise FloatingPointError
        op = ex._NP_OP.get(e.op)
        if op is None:
            raise ExprError(f"unknown operator '{e.op}'")
        if op is np.power and not (type(right) is Const and b == int(b)) \
                and np.any((a <= 0.0) & (b != np.trunc(b))):
            raise FloatingPointError
        return op(a, b)
    if t is Var:
        try:
            return columns[e.name]
        except KeyError:
            raise MissingBindingError(e.name, e)
    if t is Const:
        if ex._isfinite(e.value):
            return e.value
        raise FloatingPointError
    if t is Call:
        return ex._NP_FN[e.fn](ref_walk_batch(e.arg, columns))
    if t is Neg:
        return -ref_walk_batch(e.arg, columns)
    raise ExprError(f"cannot evaluate node {e!r}")


NESTINGS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "unary minus": lambda n: "-" * n + "x",
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
    "chained powers": lambda n: "x" + "^x" * n,
}


@pytest.mark.parametrize("nest", NESTINGS.values(), ids=NESTINGS.keys())
def test_parser_gives_up_at_the_previous_parsers_depth(nest):
    """The deepest nesting of each kind that parses is as deep for both
    descents, and the first refused is a ParseError at the same position
    for both."""
    def deepest(parse):
        def accepts(n):
            try:
                parse(nest(n), XY)
            except ParseError as err:
                assert "nested too deeply" in str(err)
                return False
            return True
        return _deepest(accepts, 2 * sys.getrecursionlimit())

    n = deepest(parse_expression)
    assert n == deepest(ref_parse_expression) < 2 * sys.getrecursionlimit()
    assert _parsed(parse_expression, nest(n + 1)) == _parsed(ref_parse_expression, nest(n + 1))


@pytest.mark.parametrize("build", DEEP_SHAPES.values(), ids=DEEP_SHAPES.keys())
def test_batch_walk_gives_up_at_the_previous_walks_depth(build):
    """The deepest tree of each shape that evaluate_batch walks without a
    RecursionError is as deep as for the previous batch walk (a value or
    an EvalError counts as walked)."""
    columns = {"x": np.array([0.25, 0.5]), "y": np.array([0.75, -0.5])}

    def deepest(evaluate_batch):
        def accepts(n):
            try:
                evaluate_batch(build(n), columns)
            except RecursionError:
                return False
            except EvalError:
                pass
            return True
        return _deepest(accepts, 2 * sys.getrecursionlimit())

    assert deepest(ex.evaluate_batch) == deepest(ref_evaluate_batch) < sys.getrecursionlimit()


_TOKEN_CONTEXTS = {
    "alone": lambda c: c,
    "between a name and a digit": lambda c: "x" + c + "1",
    "in a number": lambda c: "2" + c + "e3",
    "before a name": lambda c: c + "y",
}


@pytest.mark.parametrize("context", _TOKEN_CONTEXTS.values(), ids=_TOKEN_CONTEXTS.keys())
def test_ascii_pattern_splits_as_the_general_one(context):
    """On each of the 128 ASCII characters, in four contexts, the ASCII
    pattern gives exactly the general pattern's tokens; the separators
    \\x1c-\\x1f are spaces for both."""
    for code in range(128):
        text = context(chr(code))
        assert ex._ASCII_TOKEN.findall(text) == ex._TOKEN.findall(text), repr(text)
    for sep in "\x1c\x1d\x1e\x1f":
        assert ex._ASCII_TOKEN.findall(f"2 +{sep}0.5*x") == ["2", "+", "0.5", "*", "x"]


def _leaves(e):
    """The Var and Const nodes of ``e``, each as often as it occurs."""
    if isinstance(e, (Var, Const)):
        return [e]
    if isinstance(e, (Neg, Call)):
        return _leaves(e.arg)
    return _leaves(e.left) + _leaves(e.right)


def test_a_repeated_leaf_is_one_node_per_parse():
    """A name or a literal written twice in one text is one node; two
    parses of a text share no leaf."""
    text = "x*x + 2*2^x + pi*y/pi"
    first, second = (_leaves(parse_expression(text, XY)) for _ in range(2))
    assert len(first) == 8
    for name in ("x", "y"):
        assert len({id(v) for v in first if v == Var(name)}) == 1
    for value in (2.0, math.pi):
        assert len({id(v) for v in first if v == Const(value)}) == 1
    assert not {id(v) for v in first} & {id(v) for v in second}
    assert shape(parse_expression(text, XY)) == shape(ref_parse_expression(text, XY))
