"""Expression language: lexing, parsing, folding, tape evaluation, printing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import expr, jets
from finslerlab.analysis import sample_states
from finslerlab.curvature import SEED_CAP, _plan
from finslerlab.errors import (
    ArityError,
    DivisionByZero,
    DomainError,
    LexError,
    ParseError,
    UnboundVariable,
)
from finslerlab.expr import Bin, Call, Name, Neg, Num, Pow, Var, VecRef, parse, tokenize
from finslerlab.jets import Jet, _algebra, seed_block
from finslerlab.metrics import BUILTIN_NAMES, MetricSpec, build_metric, builtin

from oracles import funk_value, jet_partial, pretty, seed_jets, tape_walk, walk


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
    assert run(ast, (0.0,), (1.0,)) == 512.0


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

def run(source, x, y, **consts):
    """Fold and compile ``source`` (text or AST) over len(x) dimensions, then
    run the tape once."""
    n = len(x)
    ast = parse(source) if isinstance(source, str) else source
    return expr.evaluate(expr.compile_tape(ast, n, consts), x, y)


def program_jet(tape, alg, rows):
    """The seed program of ``tape`` in ``alg`` run on ``rows``, coefficient
    rows of degree 1 (x then y), as a Jet; the formula's float where it is
    a constant."""
    program = expr.seed_program(tape, alg)
    out = expr.run(tape, program, rows)
    return out if program.deg is None else Jet(alg, out, program.deg)


def seeded(source, alg, x, y, **consts):
    """F's jet at the seeds of (x, y) in ``alg``: the seed program on the
    point's seed block."""
    ast = parse(source) if isinstance(source, str) else source
    return program_jet(expr.compile_tape(ast, len(x), consts), alg, seed_block(alg, x, y))


def test_eval_norm():
    got = run("sqrt(y1^2 + y2^2)", (0, 0), (3.0, 4.0))
    assert got == pytest.approx(5.0, abs=1e-14)


def test_eval_vector_builtins():
    x, y, a = (0.5, -0.5), (1.0, 2.0), np.array([0.1, 0.2])
    assert run("abs2(x)", x, y, a=a) == pytest.approx(0.5)
    assert run("dot(x,y)", x, y, a=a) == pytest.approx(-0.5)
    assert run("dot(a,y)", x, y, a=a) == pytest.approx(0.5)


def test_funk_expression_at_center_is_euclidean_norm():
    got = run(FUNK_EXPR, (0.0, 0.0), (1.0, 0.0), a=np.zeros(2))
    assert got == pytest.approx(1.0, abs=1e-14)


def test_funk_expression_matches_closed_form_oracle():
    rng = np.random.default_rng(7)
    ast = parse(FUNK_EXPR)
    for _ in range(100):
        x = rng.uniform(-0.4, 0.4, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(y) < 0.1:
            continue
        a = rng.uniform(-0.2, 0.2, 2)
        got = run(ast, tuple(x), tuple(y), a=a)
        assert got == pytest.approx(funk_value(a, x, y), rel=1e-12)


def test_eval_scalar_constant():
    assert run("k*y1", (0.0,), (2.0,), k=3.5) == 7.0


def test_unbound_variable_cases():
    with pytest.raises(UnboundVariable):
        run("y3", (0, 0), (1, 1))
    with pytest.raises(UnboundVariable):
        run("q + y1", (0, 0), (1, 1))
    with pytest.raises(UnboundVariable):
        run("dot(b, y)", (0, 0), (1, 1))


def test_domain_error_bubbles():
    with pytest.raises(DomainError):
        run("sqrt(y1 - 10)", (0, 0), (1.0, 1.0))


def test_jet_scalar_consistency():
    """Same expression through floats and through jets agrees at order 0."""
    ast = parse("exp(0.1*dot(x,y)) + log(1 + abs2(y)) - y2^3 / (2 + y1)")
    xs, ys = (0.3, -0.7), (1.2, 0.8)
    scalar = run(ast, xs, ys)
    jet = seeded(ast, _algebra(4, 4), xs, ys)
    assert scalar == pytest.approx(jet.value, rel=1e-14)


def test_jet_evaluation_gradient():
    ast = parse(FUNK_EXPR)
    x, y = (0.2, 0.1), (0.7, -0.4)
    a = np.array([0.0, 0.0])
    jet = seeded(ast, _algebra(4, 3), x, y, a=a)
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
            f1 = run(ast, tuple(x), tuple(y), a=np.zeros(2))
            f2 = run(ast, tuple(x), tuple(s * y), a=np.zeros(2))
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


def random_ast(rng, depth=0, n=2):
    """A random small AST over x1..xn, y1..yn, the scalar constant k and the
    vectors x, y and a; leaves only from depth 3 on."""
    pick = rng.integers(0, 10 if depth < 3 else 5)
    vector = lambda: VecRef(("x", "y", "a")[rng.integers(0, 3)])  # noqa: E731
    if pick == 0:
        return Num(float(rng.integers(0, 9)))
    if pick == 1:
        return Var("y" if rng.integers(0, 2) else "x", int(rng.integers(1, n + 1)))
    if pick == 2:
        return Name("k")
    if pick == 3:
        return Call("abs2", (vector(),))
    if pick == 4:
        return Call("dot", (vector(), vector()))
    if pick == 5:
        return Neg(random_ast(rng, depth + 1, n))
    if pick == 6:
        return Bin("+-*/"[rng.integers(0, 4)], random_ast(rng, depth + 1, n), random_ast(rng, depth + 1, n))
    if pick == 7:
        return Pow(random_ast(rng, depth + 1, n), (1.0, 2.0, 3.0, 0.5, -1.0)[rng.integers(0, 5)])
    fn = ("sqrt", "exp", "log", "sin", "cos")[rng.integers(0, 5)]
    return Call(fn, (random_ast(rng, depth + 1, n),))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 24))
def test_pretty_round_trip_random(bits):
    """Random small ASTs survive print -> parse."""
    ast = random_ast(np.random.default_rng(bits))
    assert parse(pretty(ast)) == ast


# --- the tape against the recursive walk ---

def same_bits(u, v):
    """Equal type and value, sign of zero included; jets also in algebra and deg."""
    if isinstance(u, Jet):
        return (isinstance(v, Jet) and u.alg is v.alg and u.deg == v.deg
                and np.array_equal(u.coef, v.coef, equal_nan=True)
                and np.array_equal(np.signbit(u.coef), np.signbit(v.coef)))
    return (type(u) is type(v) and (u == v or (u != u and v != v))
            and math.copysign(1.0, u) == math.copysign(1.0, v))


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - the error type is the outcome
        return type(e)


def assert_tape_matches_walk(ast, points, consts, alg):
    """On every float point (x, y) the tape gives the walk's value bit for
    bit or raises the walk's error type, and so does the seed program of
    ``alg`` against the walk on the point's seed ``Jet``s; a tree that fails
    to fold fails the walk at every point, since a constant subtree is
    evaluated on every call."""
    legs = [((x, y), (x, y)) for x, y in points] + [(seed_jets(alg, x, y), (x, y)) for x, y in points]
    try:
        tape = expr.compile_tape(ast, len(points[0][0]), consts)
    except Exception:  # noqa: BLE001
        for inputs, _ in legs:
            assert isinstance(outcome(walk, ast, *inputs, consts), type), pretty(ast)
        return
    for inputs, (x, y) in legs:
        want = outcome(walk, ast, *inputs, consts)
        if isinstance(inputs[0][0], Jet):
            got = outcome(program_jet, tape, alg, seed_block(alg, x, y))
        else:
            got = outcome(expr.evaluate, tape, x, y)
        if isinstance(want, type):
            assert got is want, (pretty(ast), x, y)
        else:
            assert same_bits(got, want), (pretty(ast), x, y)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 24), st.sampled_from((2, 3)), st.integers(2, 7),
       st.sampled_from((0, 1, 3, None)))
def test_tape_matches_recursive_walk(bits, n, order, cap):
    """Random trees over n dimensions, on floats and on the seeds of one
    (order, cap) algebra: the seed program gives the walk's jet, algebra
    and degree included, or raises its error."""
    rng = np.random.default_rng(bits)
    ast = random_ast(rng, n=n)
    consts = {"k": (0.75, -0.0, 2.0)[rng.integers(0, 3)],
              "a": np.array([(0.0, -0.0, 0.3, -1.5)[i] for i in rng.integers(0, 4, n)])}
    points = [(tuple(rng.uniform(-0.9, 0.9, n)), tuple(rng.uniform(-1.5, 1.5, n))) for _ in range(2)]
    assert_tape_matches_walk(ast, points, consts, _algebra(2 * n, order, cap))


@pytest.mark.parametrize("text", [
    "sqrt(abs2(y)) + y1*0 + y2*(-0)",
    "y1*(-0) + y2*0",
])
def test_tape_keeps_signed_zero_constants_apart(text):
    """0 and -0 compare equal, so a constant slot keyed by value alone would
    merge them and flip the sign of zero coefficients."""
    assert_tape_matches_walk(parse(text), [((0.3, -0.2), (0.8, 0.6))], {}, _algebra(4, 3, 1))


@pytest.mark.parametrize("text,error", [
    ("y1/0", DivisionByZero),
    ("y1/(y2 - y2)", DivisionByZero),
    ("2/(y2 - y2)", DivisionByZero),
    ("(y2 - y2)^(-2)", DivisionByZero),
    ("sqrt(y1 - y1)", DomainError),
    ("log(-y1*y1)", DomainError),
    ("(x1 - 1)^0.5", DomainError),
    ("exp(1000*y1)", OverflowError),
])
def test_jet_program_raises_the_walks_errors(text, error):
    alg, x, y = _algebra(4, 3, 1), (0.3, -0.2), (0.8, 0.6)
    with pytest.raises(error):
        walk(parse(text), *seed_jets(alg, x, y))
    with pytest.raises(error):
        seeded(text, alg, x, y)


@pytest.mark.parametrize("text", [
    "x1*y1 + x2*y2 - y1*x2",
    "(1e308*10*y1)*y2 + y1",
    "sqrt(abs2(y)) - dot(x, y)",
    "(x1 - y1)*(x2 - y2)/(y1*y1 + 1)",
])
def test_jet_program_keeps_nan_signs_and_infinities(text):
    """Seeds with infinite and NaN slopes of both signs and a -0.0 value: the
    program matches the walk bit for bit, NaN signs included, so it keeps
    the order of every operand and each scalar's effect on the degree."""
    alg = _algebra(4, 3, 1)
    x, y = seed_jets(alg, (0.3, -0.0), (0.8, 0.6))
    for var, (v, slope) in enumerate(zip(x + y, (-np.nan, np.inf, np.nan, -np.inf))):
        v.coef[1 + var] = slope  # the first-order coefficients follow the value
    with np.errstate(all="ignore"):
        want = walk(parse(text), x, y)
        got = program_jet(expr.compile_tape(parse(text), 2), alg, [v.coef for v in x + y])
    assert same_bits(got, want), text


def test_jet_overflow_is_a_domain_error():
    m = build_metric(MetricSpec.custom(2, "sqrt(abs2(y)) + exp(1000*y1)"))
    with pytest.raises(DomainError, match="^F overflows"):
        m.F_seeded(expr.seed_program(m.tape, _algebra(4, 3, 1)), (0.3, -0.2), (0.8, 0.6))


def test_shared_subtree_is_evaluated_once():
    """sphere3's three diagonal entries are one conformal factor
    4/(1 + abs2(x))^2: the F program compiled from its tape holds one power."""
    m = build_metric(builtin("sphere3"))
    program = expr.seed_program(m.tape, _algebra(6, 3, 1))
    assert list(m.tape.programs) == [program.alg]
    powers = [f for f, *_ in program.steps if getattr(f, "func", None) is jets._int_power]
    assert len(powers) == 1


#: every (order, cap) a scope seeds F in (its planned and its full cap) and
#: every one spray_values seeds it in
ALGEBRAS_IN_USE = sorted(
    {_plan(k)["F"] for k in range(2, 8)} | {(k, SEED_CAP) for k in range(2, 8)}
    | {(2 + depth, 1) for depth in range(3)}
)


@pytest.mark.parametrize("order,cap", ALGEBRAS_IN_USE)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_programs_match_tape_walk(name, order, cap):
    """Each built-in's F jet through its seed program equals its tape run op
    by op on seed ``Jet`` objects, at two sample states."""
    m = build_metric(builtin(name))
    alg = _algebra(2 * m.n, order, cap)
    for point in sample_states(m, 2, seed=5):
        got = program_jet(m.tape, alg, seed_block(alg, point.x, point.y))
        assert same_bits(got, tape_walk(m.tape, *seed_jets(alg, point.x, point.y))), (name, point)
