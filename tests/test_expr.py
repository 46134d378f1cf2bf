"""Expression language: lexing, parsing, generic evaluation, printing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import expr
from finslerlab.errors import (
    ArityError,
    DomainError,
    LexError,
    ParseError,
    UnboundVariable,
)
from finslerlab.expr import Bin, Call, EvalEnv, Neg, Num, Pow, Var, VecRef, evaluate, parse, pretty, tokenize
from finslerlab.jets import JetConfig, seed_variables

from oracles import funk_value, jet_partial


FUNK_EXPR = (
    "(sqrt(abs2(y) - (abs2(x)*abs2(y) - dot(x,y)^2)) + dot(x,y) + dot(a,y))"
    " / (1 - abs2(x))"
)


# --- tokenizer ---

def test_tokenize_kinds_and_positions():
    toks = tokenize("y1 + 2.5*sqrt(x2)")
    kinds = [(t.kind, t.text, t.pos) for t in toks]
    assert kinds == [
        ("ident", "y1", 0),
        ("op", "+", 3),
        ("number", "2.5", 5),
        ("op", "*", 8),
        ("ident", "sqrt", 9),
        ("lparen", "(", 13),
        ("ident", "x2", 14),
        ("rparen", ")", 16),
    ]


def test_tokenize_exponent_numbers():
    toks = tokenize("1e-3 + 2E+4")
    assert [t.text for t in toks if t.kind == "number"] == ["1e-3", "2E+4"]


def test_tokenize_maximal_munch_identifiers():
    toks = tokenize("abs2x12")
    assert len(toks) == 1 and toks[0].text == "abs2x12"


def test_lex_error_position():
    with pytest.raises(LexError) as e:
        tokenize("y1 + @")
    assert e.value.pos == 5


def test_lex_error_uppercase():
    with pytest.raises(LexError):
        tokenize("Y1 + 2")


# --- parser ---

def test_precedence_shape():
    ast = parse("y1 + 2*x1^2")
    assert ast == Bin("+", Var("y", 1), Bin("*", Num(2.0), Pow(Var("x", 1), 2.0)))


def test_unary_minus_binds_looser_than_power():
    ast = parse("-y1^2")
    assert ast == Neg(Pow(Var("y", 1), 2.0))


def test_power_right_associative_constant_folding():
    ast = parse("2^3^2")
    assert isinstance(ast, Pow) and ast.exponent == 9.0
    assert evaluate(ast, EvalEnv(1, (0.0,), (1.0,))) == 512.0


def test_power_requires_constant_exponent():
    with pytest.raises(ParseError):
        parse("y1^x1")


def test_arity_error():
    with pytest.raises(ArityError):
        parse("dot(x)")
    with pytest.raises(ArityError):
        parse("sqrt(y1, y2)")


def test_vector_argument_must_be_a_name():
    with pytest.raises(ParseError):
        parse("abs2(y1 + 1)")
    with pytest.raises(ParseError):
        parse("dot(x1, y)")


def test_unknown_function():
    with pytest.raises(ParseError):
        parse("tan(y1)")


def test_parse_error_position_for_missing_paren():
    with pytest.raises(ParseError) as e:
        parse("sqrt(y1")
    assert e.value.pos == 7


# --- evaluation ---

def env2(x, y, **consts):
    return EvalEnv(2, tuple(x), tuple(y), dict(consts))


def test_eval_norm():
    got = evaluate(parse("sqrt(y1^2 + y2^2)"), env2((0, 0), (3.0, 4.0)))
    assert got == pytest.approx(5.0, abs=1e-14)


def test_eval_vector_builtins():
    e = env2((0.5, -0.5), (1.0, 2.0), a=np.array([0.1, 0.2]))
    assert evaluate(parse("abs2(x)"), e) == pytest.approx(0.5)
    assert evaluate(parse("dot(x,y)"), e) == pytest.approx(-0.5)
    assert evaluate(parse("dot(a,y)"), e) == pytest.approx(0.5)


def test_funk_expression_at_center_is_euclidean_norm():
    e = env2((0.0, 0.0), (1.0, 0.0), a=np.zeros(2))
    assert evaluate(parse(FUNK_EXPR), e) == pytest.approx(1.0, abs=1e-14)


def test_funk_expression_matches_closed_form_oracle():
    rng = np.random.default_rng(7)
    ast = parse(FUNK_EXPR)
    for _ in range(100):
        x = rng.uniform(-0.4, 0.4, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(y) < 0.1:
            continue
        a = rng.uniform(-0.2, 0.2, 2)
        got = evaluate(ast, EvalEnv(2, tuple(x), tuple(y), {"a": a}))
        assert got == pytest.approx(funk_value(a, x, y), rel=1e-12)


def test_eval_scalar_constant():
    got = evaluate(parse("k*y1"), EvalEnv(1, (0.0,), (2.0,), {"k": 3.5}))
    assert got == 7.0


def test_unbound_variable_cases():
    with pytest.raises(UnboundVariable):
        evaluate(parse("y3"), env2((0, 0), (1, 1)))
    with pytest.raises(UnboundVariable):
        evaluate(parse("q + y1"), env2((0, 0), (1, 1)))
    with pytest.raises(UnboundVariable):
        evaluate(parse("dot(b, y)"), env2((0, 0), (1, 1)))


def test_domain_error_bubbles():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(y1 - 10)"), env2((0, 0), (1.0, 1.0)))


def test_jet_scalar_consistency():
    """Same expression through floats and through jets agrees at order 0."""
    ast = parse("exp(0.1*dot(x,y)) + log(1 + abs2(y)) - y2^3 / (2 + y1)")
    xs, ys = (0.3, -0.7), (1.2, 0.8)
    scalar = evaluate(ast, env2(xs, ys))
    xj, yj = seed_variables(xs, ys, JetConfig(n=2, order=4))
    jet = evaluate(ast, EvalEnv(2, tuple(xj), tuple(yj)))
    assert scalar == pytest.approx(jet.value, rel=1e-14)


def test_jet_evaluation_gradient():
    ast = parse(FUNK_EXPR)
    x, y = (0.2, 0.1), (0.7, -0.4)
    a = np.array([0.0, 0.0])
    xj, yj = seed_variables(x, y, JetConfig(n=2, order=3))
    jet = evaluate(ast, EvalEnv(2, tuple(xj), tuple(yj), {"a": a}))
    h = 1e-6
    for k in range(2):
        yp = list(y)
        ym = list(y)
        yp[k] += h
        ym[k] -= h
        fd = (funk_value(a, x, yp) - funk_value(a, x, ym)) / (2 * h)
        alpha = [0, 0, 0, 0]
        alpha[2 + k] = 1
        assert jet_partial(jet, tuple(alpha)) == pytest.approx(fd, rel=1e-8)


def test_positive_homogeneity_harness():
    """F(x, s*y) = s*F(x, y) for the 1-homogeneous formulas we ship."""
    candidates = [
        "sqrt(abs2(y))",
        "(y1^4 + y2^4)^(1/4)",
        FUNK_EXPR,
    ]
    rng = np.random.default_rng(3)
    for text in candidates:
        ast = parse(text)
        for s in (0.5, 2.0, 3.0):
            x = rng.uniform(-0.3, 0.3, 2)
            y = rng.uniform(0.2, 1.0, 2)
            e1 = EvalEnv(2, tuple(x), tuple(y), {"a": np.zeros(2)})
            e2 = EvalEnv(2, tuple(x), tuple(s * y), {"a": np.zeros(2)})
            f1 = evaluate(ast, e1)
            f2 = evaluate(ast, e2)
            assert f2 == pytest.approx(s * f1, rel=1e-10)


# --- printing ---

ROUND_TRIP_CORPUS = [
    "y1 + 2*x1^2",
    "-y1^2 + (y2 - 1)*(y2 + 1)",
    "sqrt(abs2(y)) + dot(a, y)/(1 - abs2(x))",
    "(y1^4 + y2^4)^(1/4)",
    "1 - x1/(2 - y1/(3 - y2))",
    "2^3^2 + y1^(-2)",
    FUNK_EXPR,
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_round_trip(text):
    ast = parse(text)
    assert parse(pretty(ast)) == ast


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 24))
def test_pretty_round_trip_random(bits):
    """Random small ASTs survive print -> parse."""
    rng = np.random.default_rng(bits)

    def build(depth):
        pick = rng.integers(0, 6 if depth < 3 else 2)
        if pick == 0:
            return Num(float(rng.integers(0, 9)))
        if pick == 1:
            return Var("y" if rng.integers(0, 2) else "x", int(rng.integers(1, 3)))
        if pick == 2:
            return Neg(build(depth + 1))
        if pick == 3:
            return Bin("+-*/"[rng.integers(0, 4)], build(depth + 1), build(depth + 1))
        if pick == 4:
            return Pow(build(depth + 1), float(rng.integers(1, 4)))
        return Call("sqrt", (build(depth + 1),))

    ast = build(0)
    assert parse(pretty(ast)) == ast
