"""Closed-form scalar expressions over chart coordinates.

Expressions are immutable trees of constants, named symbols, the binary
operations ``+ - * / ^``, and the unary functions ``sin cos tan exp log
sqrt abs``.  They support exact tree-level differentiation (no numeric
approximation anywhere) and deterministic pointwise evaluation, which is
what makes second metric derivatives clean enough for curvature work.
A node is an instance of a small class with ``__slots__`` and no
``__dict__``, whose fields are set once, when it is built; equality and
the hash are structural, as for frozen dataclasses.  :func:`to_text`
prints a tree in one call per node.

The text grammar is plain infix arithmetic with ``^`` for powers and
function-call syntax like ``sin(2*pi*x)``.  Implicit multiplication is
not accepted.  ``pi`` is a built-in constant.  One regular expression
splits a text into tokens (with plain character classes for an ASCII
text, the common case), and a recursive descent of three levels folds
them into a tree.  Each call keeps a table of the leaves it has built,
so a name or a number written twice in a text is one shared node.

No tree ever yields a silently non-finite number.  A literal that
overflows is a :class:`ParseError`, constant folding never produces a
non-finite constant, and evaluation reports a pole or a non-finite
intermediate as an :class:`EvalError` naming the offending subtree.

:func:`evaluate` walks a tree once per point.  :func:`evaluate_batch`
walks it once for a whole batch, one numpy ufunc per node on columns of
coordinate values, with the same contract.  The walk runs under an
``errstate`` that raises on division by zero, overflow and invalid
values, so with finite leaves the first pole or non-finite value stops
it; the two cases IEEE leaves unflagged, a non-finite leaf and a
non-integer power of a non-positive base (``0^0.5`` is a silent 0), are
checked for.  On a flag or a check the scalar walker is re-run, point by
point in C order, so a batch raises exactly the error a point-by-point
loop would raise first.  The two walkers agree bit for bit on ``+ - *
/``, ``sin``, ``cos``, ``sqrt`` and ``abs``; numpy's ``exp``, ``tan``,
``log`` and ``power`` may differ from :mod:`math` in the last unit or so.

:func:`compile_trees` turns a fixed list of trees into one generated
straight-line function for repeated evaluation at single points, each
distinct subtree computed once.  It uses the scalar walker's own
operations, so its values equal ``[evaluate(t, b) for t in trees]`` bit
for bit; where the generated code raises or meets a non-finite number it
re-runs the walker, so it raises exactly what the walker raises.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
RESERVED = FUNCTIONS + ("pi",)

_MATH_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_NP_OP = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

_NP_FN = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredNameError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"undeclared name '{name}'", position)
        self.name = name


class EvalError(ExprError):
    """Evaluation failure, carrying the offending subtree in printed form."""

    def __init__(self, message: str, subtree: "Expr"):
        super().__init__(f"{message} in '{to_text(subtree)}'")
        self.subtree = subtree


class MissingBindingError(EvalError):
    def __init__(self, name: str, subtree: "Expr"):
        super().__init__(f"no binding for '{name}'", subtree)
        self.name = name


class Expr:
    """Base node.  Nodes are immutable: each concrete class names its
    fields in ``__slots__`` and sets each once, in ``__init__``, through
    the slot's descriptor, so a node has no ``__dict__`` and assigning or
    deleting a field raises :class:`dataclasses.FrozenInstanceError`.
    Equality and the hash are structural: two nodes are equal when they
    are of the same class and their field tuples are equal, and a node
    hashes as its field tuple.  A node pickles and copies as its class
    and field tuple."""

    __slots__ = ()

    def _fields(self) -> tuple:
        """The values of the fields named in ``__slots__``, in order."""
        return ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields())
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __str__(self) -> str:
        return to_text(self)


class Const(Expr):
    __slots__ = ("value",)
    value: float

    def __init__(self, value: float):
        _set_value(self, value)

    def _fields(self) -> tuple:
        return (self.value,)


class Var(Expr):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        _set_name(self, name)

    def _fields(self) -> tuple:
        return (self.name,)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __init__(self, op: str, left: Expr, right: Expr):
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)

    def _fields(self) -> tuple:
        return self.op, self.left, self.right


class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def __init__(self, arg: Expr):
        _set_neg_arg(self, arg)

    def _fields(self) -> tuple:
        return (self.arg,)


class Call(Expr):
    __slots__ = ("fn", "arg")
    fn: str
    arg: Expr

    def __init__(self, fn: str, arg: Expr):
        _set_fn(self, fn)
        _set_call_arg(self, arg)

    def _fields(self) -> tuple:
        return self.fn, self.arg


# the slots' own setters: __setattr__ refuses every assignment
_set_value, _set_name = Const.value.__set__, Var.name.__set__
_set_op, _set_left, _set_right = BinOp.op.__set__, BinOp.left.__set__, BinOp.right.__set__
_set_neg_arg, _set_fn, _set_call_arg = Neg.arg.__set__, Call.fn.__set__, Call.arg.__set__

ZERO = Const(0.0)
ONE = Const(1.0)


# Smart constructors.  Only light simplification happens here: constant
# folding and 0/1 identities.  Correctness is defined by evaluation, not
# by tree shape, so nothing fancier is attempted.  A fold that would
# overflow is left as a tree, so that evaluation reports it.

def add(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    if ca and a.value == 0.0:
        return b
    if cb and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and math.isfinite(a.value - b.value):
        return Const(a.value - b.value)
    if cb and b.value == 0.0:
        return a
    if ca and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and math.isfinite(a.value * b.value):
        return Const(a.value * b.value)
    if (ca and a.value == 0.0) or (cb and b.value == 0.0):
        return ZERO
    if ca and a.value == 1.0:
        return b
    if cb and b.value == 1.0:
        return a
    if ca and a.value == -1.0:
        return neg(b)
    if cb and b.value == -1.0:
        return neg(a)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and a.value == 0.0 and not (cb and b.value == 0.0):
        return ZERO
    if cb and b.value == 1.0:
        return a
    if ca and cb and b.value != 0.0 and math.isfinite(a.value / b.value):
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return ONE
        if type(a) is Const:
            try:
                return Const(_eval_pow(a.value, b.value, BinOp("^", a, b)))
            except EvalError:
                pass
    return BinOp("^", a, b)


def neg(a: Expr) -> Expr:
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Neg:
        return a.arg
    return Neg(a)


def call(fn: str, a: Expr) -> Expr:
    if fn not in _MATH_FN:
        raise ExprError(f"unknown function '{fn}'")
    if type(a) is Const:
        try:
            value = _MATH_FN[fn](a.value)
        except (ValueError, OverflowError):
            return Call(fn, a)
        if math.isfinite(value):
            return Const(value)
    return Call(fn, a)


# ---------------------------------------------------------------------------
# Parsing
#
#   expression := term (('+' | '-') term)*
#   term       := factor (('*' | '/') factor)*
#   factor     := ('-' | '+') factor | atom ('^' factor)?
#   atom       := NUMBER | NAME '(' expression ')' | NAME | '(' expression ')'
#
# NAME: a letter or '_', then letters, digits and '_'.  NUMBER: a digit or
# '.' and a digit, then digits and dots, then maybe an exponent.  Else any
# one non-space character.  Digits are str.isdigit's ('2²' is one, malformed,
# number); \d is str.isdecimal and \w str.isalnum or '_', so a text's other
# alphanumerics ('²', 'Ⅻ') go into the pattern: digits join NUMBER, none starts a NAME.
# An ASCII text has none of them: _ASCII_TOKEN is the same pattern in plain
# classes, which match faster (parse_expression says why it lacks re.ASCII).
# ---------------------------------------------------------------------------

_TOKEN_FORM = r"[^\W\d{0}{1}]\w*|[-+*/^()]|\.?[\d{0}][\d{0}.]*(?:[eE][+-]?[\d{0}]+)?|\S"
_TOKEN = re.compile(_TOKEN_FORM.format("", ""))
_ASCII_TOKEN = re.compile(r"[A-Za-z_]\w*|[-+*/^()]|\.?\d[\d.]*(?:[eE][+-]?\d+)?|\S")
_ADDITIVE = {"+": add, "-": sub}
_MULTIPLICATIVE = {"*": mul, "/": div}


def parse_expression(text: str, declared) -> Expr:
    """Parse ``text`` into an expression tree.

    Every free name must appear in ``declared`` (coordinates plus
    parameters of the owning chart); anything else raises
    :class:`UndeclaredNameError` with its position.  A bad number or
    character anywhere, else the first misplaced token, raises
    :class:`ParseError` with its position, found only then.  Nesting
    deeper than the descent can follow (about 330 parentheses or 990
    chained powers at the default recursion limit) raises
    :class:`ParseError` at the token where it gave up.

    A leaf (a declared name, a number literal or ``pi``) is built once
    per call, on its first occurrence, and every later occurrence of its
    token is the same node: nodes are immutable, so a tree may share
    them.  An ASCII text is split by ``_ASCII_TOKEN``, which gives the
    tokens ``_TOKEN`` gives on ASCII.  It has no ``re.ASCII`` flag: that
    would narrow ``\\s`` too, and the separators ``\\x1c``-``\\x1f``, spaces
    to :meth:`str.isspace`, would become tokens.
    """
    declared = frozenset(declared)
    clash = declared & set(RESERVED)
    if clash:
        raise ExprError(f"declared names shadow reserved words: {sorted(clash)}")
    # a declared string like '1' or '+' would match a number or operator
    names = frozenset(n for n in declared if n[:1].isalpha() or n[:1] == "_")
    if text.isascii():
        pattern = _ASCII_TOKEN
    else:
        odd = "".join(c for c in set(text) if c.isalnum() and not (c.isalpha() or c.isdecimal()))
        pattern = _TOKEN if not odd else \
            re.compile(_TOKEN_FORM.format("".join(filter(str.isdigit, odd)), odd))
    tokens = pattern.findall(text)
    tokens.append("")
    i = 0
    leaves = {}     # a leaf's token -> the node built on its first occurrence

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
        while tokens[i] in _ADDITIVE:
            i += 1
            node = _ADDITIVE[tokens[i - 1]](node, term())
        return node

    def term():
        nonlocal i
        node = factor()
        while tokens[i] in _MULTIPLICATIVE:
            i += 1
            node = _MULTIPLICATIVE[tokens[i - 1]](node, factor())
        return node

    def factor():
        nonlocal i
        tok = tokens[i]
        i += 1
        node = leaves.get(tok)
        if node is not None:
            if tokens[i] == "(" and tok in names:
                raise ParseError(f"'{tok}' is not a function", at(i - 1))
        elif tok in names:
            if tokens[i] == "(":
                raise ParseError(f"'{tok}' is not a function", at(i - 1))
            node = leaves[tok] = Var(tok)
        elif tok in _MATH_FN:
            expect("(")
            node = expression()
            expect(")")
            node = call(tok, node)
        elif tok == "(":
            node = expression()
            expect(")")
        elif tok == "-":
            return neg(factor())
        elif tok == "pi":
            node = leaves[tok] = Const(math.pi)
        elif tok == "+":
            return factor()
        else:
            try:
                value = float(tok)
            except ValueError:
                value = math.inf
            # a bad number is the lexical check's; else a name or an operator
            if not math.isfinite(value):
                if tok[:1].isalpha() or tok[:1] == "_":
                    raise UndeclaredNameError(tok, at(i - 1))
                raise ParseError(f"unexpected '{tok or 'end of input'}'", at(i - 1))
            node = leaves[tok] = Const(value)
        if tokens[i] == "^":
            i += 1
            return pow_(node, factor())
        return node

    try:
        node = expression()
        expect("")
    except (ParseError, RecursionError) as err:
        # the lexical check: bad numbers and stray characters come first
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
        # the levels refer to one another: free them (and the tokens and leaves) now
        del expression, term, factor, leaves
    return node


# ---------------------------------------------------------------------------
# Differentiation: exact at the tree level.
# ---------------------------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``var``."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, BinOp):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            return div(sub(mul(da, e.right), mul(e.left, db)), pow_(e.right, Const(2.0)))
        if e.op == "^":
            u, v = e.left, e.right
            if type(v) is Const:
                # power rule; exponent is constant
                return mul(mul(v, pow_(u, Const(v.value - 1.0))), da)
            # general u^v = exp(v*log u)
            return mul(e, add(mul(db, call("log", u)), div(mul(v, da), u)))
        raise ExprError(f"unknown operator '{e.op}'")
    if isinstance(e, Call):
        da = differentiate(e.arg, var)
        u = e.arg
        if e.fn == "sin":
            return mul(call("cos", u), da)
        if e.fn == "cos":
            return neg(mul(call("sin", u), da))
        if e.fn == "tan":
            return div(da, pow_(call("cos", u), Const(2.0)))
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "log":
            return div(da, u)
        if e.fn == "sqrt":
            return div(da, mul(Const(2.0), e))
        if e.fn == "abs":
            # d|u| = u/|u| * du; evaluation at u = 0 reports division by zero
            return div(mul(u, da), e)
        raise ExprError(f"unknown function '{e.fn}'")
    raise ExprError(f"cannot differentiate node {e!r}")


# ---------------------------------------------------------------------------
# Evaluation: ordinary real arithmetic with non-finite results reported,
# never silently propagated.
# ---------------------------------------------------------------------------

_isfinite = math.isfinite


def _check_finite(value: float, node: Expr) -> float:
    if not _isfinite(value):
        raise EvalError("non-finite value", node)
    return value


def _eval_pow(base: float, exponent: float, node: Expr) -> float:
    if not math.isfinite(exponent):
        raise EvalError("non-finite exponent", node)
    if exponent == int(exponent):
        if base == 0.0 and exponent < 0:
            raise EvalError("zero raised to a negative power", node)
        try:
            return _check_finite(float(base ** int(exponent)), node)
        except OverflowError:
            raise EvalError("overflow", node)
    if base <= 0.0:
        # non-integer exponents are defined only for positive bases
        raise EvalError("non-integer power of a non-positive base", node)
    try:
        return _check_finite(base ** exponent, node)
    except OverflowError:
        raise EvalError("overflow", node)


def evaluate(e: Expr, bindings: dict[str, float]) -> float:
    """Evaluate ``e`` with the given name bindings.

    Raises :class:`MissingBindingError` for unbound names and
    :class:`EvalError` naming the offending subtree for division by
    zero, logarithms of non-positive numbers, and similar poles.

    One node is dispatched on its exact type (no node class has
    subclasses), a :class:`Const` operand of a binary node is read in
    place rather than walked, and a binary result is tested for
    finiteness inline.  Operands are evaluated left before right, and
    the recursion goes through this module's ``evaluate``, so a wrapper
    put in its place sees every node walked.
    """
    t = type(e)
    if t is BinOp:
        left, right = e.left, e.right
        a = left.value if type(left) is Const else evaluate(left, bindings)
        b = right.value if type(right) is Const else evaluate(right, bindings)
        op = e.op
        if op == "+":
            v = a + b
        elif op == "-":
            v = a - b
        elif op == "*":
            v = a * b
        elif op == "/":
            if b == 0.0:
                raise EvalError("division by zero", e)
            v = a / b
        elif op == "^":
            return _eval_pow(a, b, e)
        else:
            raise ExprError(f"unknown operator '{op}'")
        if _isfinite(v):
            return v
        raise EvalError("non-finite value", e)
    if t is Var:
        try:
            return bindings[e.name]
        except KeyError:
            raise MissingBindingError(e.name, e)
    if t is Const:
        return e.value
    if t is Call:
        a = evaluate(e.arg, bindings)
        fn = e.fn
        if fn == "log" and a <= 0.0:
            raise EvalError("logarithm of a non-positive number", e)
        if fn == "sqrt" and a < 0.0:
            raise EvalError("square root of a negative number", e)
        try:
            v = _MATH_FN[fn](a)
        except (ValueError, OverflowError):
            raise EvalError("domain error", e)
        if _isfinite(v):
            return v
        raise EvalError("domain error", e)     # a non-finite result, from a nan argument
    if t is Neg:
        return -evaluate(e.arg, bindings)
    raise ExprError(f"cannot evaluate node {e!r}")


def compile_trees(trees):
    """One straight-line function for a fixed list of trees.

    Returns ``run(bindings)``, which equals ``[evaluate(t, bindings) for
    t in trees]`` bit for bit, errors and messages included.  Each
    distinct subtree becomes one assignment, hash-consed on its operator
    and the temporaries of its children, so a subtree shared by several
    trees is computed once.  The generated code makes no finiteness
    checks of its own: it returns the values with the sum of every
    temporary, and if it raises or that sum is not finite (a non-finite
    temporary makes it so), ``run`` re-runs the walker, which returns
    the same values or raises what it raises.
    """
    trees = list(trees)
    env = dict(_MATH_FN, _pow=_eval_pow, _evaluate=evaluate)
    lines = []
    text = {}   # id(node) -> the node's operand text
    temp = {}   # (operator, operand texts) -> temporary

    def emit(key, rhs):
        name = temp.get(key)
        if name is None:
            name = temp[key] = f"t{len(lines)}"
            lines.append(f"    {name} = {rhs}")
        return name

    def bind(value):
        name = f"k{len(env)}"
        env[name] = value
        return name

    for root in trees:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in text:
                stack.pop()
                continue
            if isinstance(node, Const):
                v = node.value
                text[id(node)] = repr(v) if type(v) is float and math.isfinite(v) else bind(v)
                stack.pop()
                continue
            if isinstance(node, Var):
                text[id(node)] = emit(("var", node.name), f"b[{node.name!r}]")
                stack.pop()
                continue
            kids = ((node.arg,) if isinstance(node, (Neg, Call)) else
                    (node.left, node.right) if isinstance(node, BinOp) else ())
            todo = [k for k in kids if id(k) not in text]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            args = [text[id(k)] for k in kids]
            if isinstance(node, Neg):
                out = emit(("neg", *args), f"-{args[0]}")
            elif isinstance(node, BinOp) and node.op in "+-*/":
                out = emit((node.op, *args), f"{args[0]} {node.op} {args[1]}")
            elif isinstance(node, BinOp) and node.op == "^":
                # the node is passed for _eval_pow's messages; the walker
                # re-raises whatever it raises anyway
                out = emit(("^", *args), f"_pow({args[0]}, {args[1]}, {bind(node)})")
            elif isinstance(node, Call) and node.fn in _MATH_FN:
                out = emit((node.fn, *args), f"{node.fn}({args[0]})")
            else:
                # a node the walker itself refuses: it stays the walker's
                out = emit(("node", id(node)), f"_evaluate({bind(node)}, b)")
            text[id(node)] = out
    temps = ", ".join(f"t{k}" for k in range(len(lines)))
    source = "\n".join(["def _trees(b):", *lines,
                        f"    return [{', '.join(text[id(t)] for t in trees)}], "
                        f"sum(({temps}{',' if lines else ''}))"])
    exec(compile(source, "<compile_trees>", "exec"), env)
    straight = env["_trees"]

    def run(bindings):
        # a missing name is a KeyError, a pole a ZeroDivisionError or a
        # math domain error; the walker turns each into its EvalError
        try:
            values, total = straight(bindings)
            if math.isfinite(total):
                return values
        except (ArithmeticError, LookupError, TypeError, ValueError):
            pass
        return [evaluate(t, bindings) for t in trees]

    return run


def evaluate_batch(e: Expr, columns: dict) -> np.ndarray:
    """Evaluate ``e`` at a batch of points in one walk of the tree.

    ``columns`` maps each name to a float or to an array; the arrays
    broadcast to the batch shape, which is also the shape of the result.
    The walk makes one numpy operation per node, under an ``errstate``
    that raises on division by zero, overflow and invalid values; what
    IEEE leaves unflagged (a non-finite leaf, a fractional power of zero)
    is checked for.  On a flag or a check the scalar walker is run point
    by point in C order, so the batch raises what :func:`evaluate` raises
    first, or returns the walker's values.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in columns.values()))
    try:
        if not all(np.isfinite(v).all() for v in columns.values()):
            raise FloatingPointError
        with np.errstate(all="raise", under="ignore"):
            return np.array(np.broadcast_to(_walk_batch(e, columns), shape), dtype=float)
    except FloatingPointError:
        full = {k: np.broadcast_to(v, shape) for k, v in columns.items()}
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        out[idx] = evaluate(e, {k: float(v[idx]) for k, v in full.items()})
    return out


def _walk_batch(e: Expr, columns: dict):
    """Body of :func:`evaluate_batch`.  A non-finite constant, or a power
    the scalar walker refuses unflagged (a constant integer exponent needs
    no check: IEEE flags 0^-n), raises ``FloatingPointError``."""
    t = type(e)
    if t is BinOp:
        left, right = e.left, e.right
        ca, cb = type(left) is Const, type(right) is Const
        a = left.value if ca else _walk_batch(left, columns)
        b = right.value if cb else _walk_batch(right, columns)
        if ca and not _isfinite(a) or cb and not _isfinite(b):
            raise FloatingPointError
        op = _NP_OP.get(e.op)
        if op is None:
            raise ExprError(f"unknown operator '{e.op}'")
        if op is np.power and not (cb and b == int(b)) \
                and np.any((a <= 0.0) & (b != np.trunc(b))):
            raise FloatingPointError
        return op(a, b)
    if t is Var:
        try:
            return columns[e.name]
        except KeyError:
            raise MissingBindingError(e.name, e)
    if t is Const:
        if _isfinite(e.value):
            return e.value
        raise FloatingPointError
    if t is Call:
        return _NP_FN[e.fn](_walk_batch(e.arg, columns))
    if t is Neg:
        return -_walk_batch(e.arg, columns)
    raise ExprError(f"cannot evaluate node {e!r}")


def free_names(e: Expr) -> set[str]:
    """The names of the :class:`Var` nodes of ``e``, collected into one
    set by a walk with an explicit stack."""
    names, stack = set(), [e]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is BinOp:
            stack += (node.left, node.right)
        elif t is Var:
            names.add(node.name)
        elif t is Call or t is Neg:
            stack.append(node.arg)
    return names


# ---------------------------------------------------------------------------
# Canonical printer.  parse_expression(to_text(e)) reproduces a tree with
# identical evaluation, and printing is a fixpoint.
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_text(e: Expr) -> str:
    """Render ``e`` in the canonical text grammar."""
    return _text(e)[0]


def _text(e: Expr) -> tuple[str, int]:
    """``e``'s text and its precedence, by which the caller parenthesizes
    it: an operator's for a binary node, 3 for a negation or a negative
    constant, 9 for an atom.  One call per node, except that a
    :class:`Var` operand is read in place and a constant is formatted
    without a helper call.  So with :func:`to_text` on top, the deepest
    tree that prints is the one a printer recursing through itself and a
    formatting helper could print, and the too-deep guards around the
    printer fire at the same depths.  Some interpreters also count a
    builtin call or a comparison toward the recursion limit: the binary
    and negation branches compare after the operand is read, and the
    call branch reads its operand through ``isinstance`` for that count."""
    t = type(e)
    if t is BinOp:
        op, a, b = e.op, e.left, e.right
        p = _PREC[op]
        left, lp = (a.name, 9) if type(a) is Var else _text(a)
        right, rp = (b.name, 9) if type(b) is Var else _text(b)
        if op == "^":
            # power bases must be atoms; exponents re-enter at factor level
            if lp <= 4:
                left = f"({left})"
            if rp < 3:
                right = f"({right})"
        else:
            if lp < p:
                left = f"({left})"
            # the grammar is left-associative, so a right operand at the
            # same precedence must keep its parentheses to round-trip
            if rp <= p:
                right = f"({right})"
        return f"{left}{op}{right}", p
    if t is Const:
        v = e.value
        text = str(int(v)) if abs(v) < 1e16 and v == int(v) else repr(v)
        return text, 3 if v < 0 else 9
    if t is Var:
        return e.name, 9
    if t is Call:
        a = e.arg
        return f"{e.fn}({a.name if isinstance(a, Var) else _text(a)[0]})", 9
    if t is Neg:
        a = e.arg
        inner, ip = (a.name, 9) if type(a) is Var else _text(a)
        return (f"-({inner})" if ip < 3 else f"-{inner}"), 3
    raise ExprError(f"cannot print node {e!r}")
