import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordeslab.expr import (FUNCTIONS, MAX_DEPTH, Bin, Call, ExprEvalError,
                            ExprSyntaxError, Neg, Num, Var, parse_expression)


def ev(text, **env):
    return parse_expression(text).evaluate(env)


def test_constant_identity():
    assert ev("1 + 0*x1", x1=3.7, t=0.0) == 1.0


def test_step_convention():
    e = parse_expression("step(x1 - 0.5)")
    assert e.evaluate({"x1": 0.7}) == 1.0
    assert e.evaluate({"x1": 0.3}) == 0.0
    # right-continuous: step(0) = 1
    assert e.evaluate({"x1": 0.5}) == 1.0


def test_sin_against_high_precision_oracle():
    x = 0.5
    expected = float(mpmath.sin(mpmath.pi * mpmath.mpf("0.5")))
    got = ev("sin(3.141592653589793*x1)", x1=x)
    assert abs(got - expected) <= 1e-12
    assert abs(got - 1.0) <= 1e-12


def test_precedence_and_power_associativity():
    # ^ binds tightest and associates to the right
    assert ev("2^3^2") == 512.0
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2*3^2") == 18.0
    assert ev("1 - 2 - 3") == -4.0
    assert ev("12 / 2 / 3") == 2.0
    assert ev("2^-1") == 0.5


def test_functions():
    assert ev("min(3, 1, 2)") == 1.0
    assert ev("max(3, 1, 2)") == 3.0
    assert ev("abs(-2.5)") == 2.5
    assert ev("sign(-3)") == -1.0
    assert ev("sign(0)") == 0.0
    assert math.isclose(ev("exp(1)"), math.e)
    assert math.isclose(ev("sqrt(2)"), math.sqrt(2))


def test_vectorized_evaluation():
    x = np.linspace(0, 1, 11)
    vals = ev("x1^2 + t", x1=x, t=0.5)
    assert np.allclose(vals, x ** 2 + 0.5)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_expression("")
    with pytest.raises(ExprSyntaxError):
        parse_expression("(1 + 2")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse_expression("foo + 1")
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse_expression("x0 + 1")
    with pytest.raises(ExprSyntaxError, match="unknown function"):
        parse_expression("tan(x1)")


def test_non_decimal_digit_is_a_syntax_error():
    # "²" is a digit to str.isdigit but not to float
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("²")
    assert err.value.offset == 0


@pytest.mark.parametrize("text, want", [
    ("1.e5", Num(1e5)), (".5e-3", Num(5e-4)), ("007", Num(7.0)),
    ("1.2.3", 3),       # "1.2", then a trailing ".3"
    ("1e", 1),          # no exponent digits: "1", then the name "e"
    ("x1e5", 0),        # one name, not a variable
    ("sin(x1,)", 7),    # no empty argument
    ("a$b", 1),         # the first bad character, before any parsing
])
def test_token_edge_cases(text, want):
    if isinstance(want, int):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text)
        assert err.value.offset == want
    else:
        assert parse_expression(text) == want


@pytest.mark.parametrize("text, at", [
    ("(" * 200 + "x1" + ")" * 200, 100),    # x1 sits at depth 101
    ("-" * 500 + "x1", 100),                # so does the 101st sign
    (" + ".join(["x1"] * 600), 498),        # its 100th "+" sinks x1 to 101
], ids=["brackets", "minus_signs", "flat_sum"])
def test_too_deep_a_tree_is_a_syntax_error(text, at):
    # each one overflowed the recursion of the parser, of Program.compile
    # or of str before the depth bound
    with pytest.raises(ExprSyntaxError, match="deeper than 100") as err:
        parse_expression(text)
    assert err.value.offset == at


def _deepest(leaf):
    """Trees of depth 100 with ``leaf`` at their deepest level."""
    return ["(" * 99 + leaf + ")" * 99, "-" * 99 + leaf, "+" * 99 + leaf,
            " + ".join([leaf] + ["x1"] * 99), " * ".join([leaf] + ["x1"] * 99),
            "^".join(["x1"] * 99 + [leaf]), "sin(" * 99 + leaf + ")" * 99]


@pytest.mark.parametrize("deepest, deeper",
                         list(zip(_deepest("x1"), _deepest("(x1)"))),
                         ids=["brackets", "minus_signs", "plus_signs", "sum",
                              "product", "powers", "calls"])
def test_a_tree_at_the_depth_bound_is_read_and_walked(deepest, deeper):
    assert MAX_DEPTH == 100
    tree = parse_expression(deepest)
    assert parse_expression(str(tree)) == tree and repr(tree)
    assert tree.variables() == {"x1"}
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse_expression(deeper)


def test_variables_are_read_from_the_program():
    tree = parse_expression("sin(x3) * t + x1 - x3")
    assert tree.variables() == {"x1", "x3", "t"}
    assert tree.uses_t() and tree.max_x_index() == 3
    const = parse_expression("2 ^ -1")
    assert const.variables() == set()
    assert not const.uses_t() and const.max_x_index() == 0


def test_arity_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expression("min(1)")
    with pytest.raises(ExprSyntaxError):
        parse_expression("sin(1, 2)")


def test_evaluation_errors_are_not_parse_errors():
    e = parse_expression("1 / x1")
    assert e.evaluate({"x1": 2.0}) == 0.5
    with pytest.raises(ExprEvalError):
        e.evaluate({"x1": 0.0})
    with pytest.raises(ExprEvalError):
        ev("sqrt(x1)", x1=-1.0)
    with pytest.raises(ExprEvalError):
        ev("x1 / (x1 - 1)", x1=np.array([0.5, 1.0]))
    with pytest.raises(ExprEvalError):
        ev("0 ^ -1")


def test_undefined_variable_at_eval_time():
    e = parse_expression("x5 + 1")
    with pytest.raises(ExprEvalError):
        e.evaluate({"x1": 1.0, "t": 0.0})


HAND_CORPUS = [
    "1", "x1", "t", "-x1", "x1 + x2*t", "(x1 + x2)*t", "x1^2^3",
    "(x1^2)^3", "-x1^2", "(-x1)^2", "step(x1) - step(-x1)",
    "min(x1, x2, 0.5)", "max(x1, -x2)", "sin(x1)*cos(x2) - exp(-t)",
    "sqrt(abs(x1))", "1/(1 + x1^2)", "x1 - (x2 - x3)", "x1 - x2 - x3",
    "2.5e-3*x1 + 1e2", "sign(x1 - 0.25)*step(t - 0.5)",
]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Num(float(np.round(rng.uniform(0, 10), 3)))
        if kind == 1:
            return Var(f"x{rng.integers(1, 4)}")
        return Var("t")
    kind = rng.integers(0, 3)
    if kind == 0:
        op = ["+", "-", "*", "/", "^"][rng.integers(0, 5)]
        return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 1:
        return Neg(_random_tree(rng, depth - 1))
    fn = ["sin", "cos", "exp", "sqrt", "abs", "sign", "step", "min", "max"][
        rng.integers(0, 9)]
    nargs = 2 if fn in ("min", "max") else 1
    return Call(fn, tuple(_random_tree(rng, depth - 1) for _ in range(nargs)))


def test_parse_print_parse_idempotence():
    rng = np.random.default_rng(42)
    corpus = list(HAND_CORPUS)
    while len(corpus) < 60:
        corpus.append(str(_random_tree(rng, 4)))
    assert len(corpus) >= 50
    for text in corpus:
        tree = parse_expression(text)
        printed = str(tree)
        again = parse_expression(printed)
        assert again == tree, f"round-trip changed {text!r} -> {printed!r}"
        assert str(again) == printed


def _call(children):
    # any function of the language, at any arity it accepts (up to two more
    # than the least where the arity is unbounded)
    return st.sampled_from(sorted(FUNCTIONS.items())).flatmap(
        lambda item: st.lists(children, min_size=item[1][0],
                              max_size=item[1][1] or item[1][0] + 2)
        .map(lambda args: Call(item[0], tuple(args))))


TREES = st.recursive(
    st.one_of(st.floats(0.0, allow_nan=False, allow_infinity=False)
              .map(abs).map(Num),   # literals are nonnegative
              st.integers(1, 12).map(lambda i: Var(f"x{i}")),
              st.just(Var("t"))),
    lambda children: st.one_of(
        [st.builds(Bin, st.just(op), children, children)
         for op in ("+", "-", "*", "/", "^")]
        + [_call(children), children.map(Neg)]),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_printed_trees_parse_back_to_themselves(tree):
    # operators of every precedence, right-associative ^, unary minus in
    # operands and exponents, and every function
    text = str(tree)
    again = parse_expression(text)
    assert again == tree, text
    assert str(again) == text


def _walk(node, env):
    """Reference tree walk, the oracle of the compiled program."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprEvalError(
                f"variable {node.name!r} is not defined in this evaluation "
                f"context (dimension too small?)")
        return env[node.name]
    if isinstance(node, Neg):
        return -_walk(node.arg, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.fn][2](*[_walk(a, env) for a in node.args])
    a, b = _walk(node.lhs, env), _walk(node.rhs, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if np.any(b == 0):
            raise ExprEvalError("division by zero")
        return a / b
    with np.errstate(all="ignore"):
        r = np.power(np.asarray(a, dtype=float), b)
    if not np.all(np.isfinite(r)):
        raise ExprEvalError("power evaluation left the real domain")
    return r


def _outcome(fn):
    """``fn()`` as ``(dtype, shape, bytes)`` of its value, or its fault."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.asarray(fn())
    except ExprEvalError as err:
        return str(err)
    return value.dtype, value.shape, value.tobytes()


# nine of the twelve variables of TREES, so undefined ones fault too
_POINTS = np.random.default_rng(7).uniform(-2.0, 2.0, size=(16, 9))
_POINTS[3] = 0.0
_ENV = {f"x{i + 1}": _POINTS[:, i] for i in range(9)}
_ENV["t"] = np.broadcast_to(0.7, (16,))


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_program_gives_the_bits_or_the_fault_of_the_tree_walk(tree):
    assert _outcome(lambda: tree.evaluate(_ENV)) == \
        _outcome(lambda: _walk(tree, _ENV))


def test_program_evaluates_shared_subtrees_once(monkeypatch):
    calls = []
    sin = FUNCTIONS["sin"]
    monkeypatch.setitem(FUNCTIONS, "sin", (1, 1, lambda u: calls.append(u)
                                           or sin[2](u)))
    tree = Bin("-", parse_expression("sin(x1)*sin(x1) + sin(x1)^2"),
               Bin("*", Call("sin", (Num(0.0),)), Call("sin", (Num(-0.0),))))
    assert tree.evaluate({"x1": np.linspace(0, 1, 5)}).shape == (5,)
    # sin(x1) once; sin(0.0) and sin(-0.0) apart, literals compare by bits
    assert len(calls) == 3
    program = tree.program
    assert program.timed == () and program.frontier == (len(program.ops) - 1,)


@settings(max_examples=150, deadline=None)
@given(tree=TREES)
def test_held_field_gives_the_bits_of_a_fresh_evaluation(tree):
    from cordeslab.fields import ExprField
    nodes = np.random.default_rng(8).uniform(-2.0, 2.0, size=(32, 12))
    nodes[3] = 0.0
    nodes.setflags(write=False)    # read-only and owning: held
    field = ExprField(tree)
    for t in (0.0, 0.3, 0.3, 1.7):
        want = _outcome(lambda: ExprField(tree).eval_raw(nodes.copy(), t))
        assert _outcome(lambda: field.eval_raw(nodes, t)) == want
        if not isinstance(want, str):
            assert field._hold[0] is nodes
