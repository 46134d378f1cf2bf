"""Support-aware seed programs against the degree-aware lowering they replaced.

Each slot of a seed program carries its support, and a product sums only the
table pairs whose factors are both in support.  On finite data that drops
only +-0 terms from sums that start at +0.0, so the program must equal the
degree-aware lowering kept in ``oracles.dense_program`` bit for bit, sign of
zero included, or raise its error type.  Where a coefficient on the way is
inf or NaN, the dense table can put 0 * inf = NaN where the support rule
keeps the exact polynomial product; there the two must still agree wherever
the dense result is not NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import expr
from finslerlab.jets import _algebra, seed_block
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin

from oracles import dense_program, pretty
from test_expr import random_ast

ORDERS = st.integers(2, 7)
CAPS = st.sampled_from((0, 1, 3, None))


def _with_zeros(rng, values, keep_one):
    """``values`` with some components set to 0.0 or -0.0; with ``keep_one``
    at least one stays as it was, so a y stays nonzero."""
    out = list(values)
    spared = rng.integers(0, len(out)) if keep_one else -1
    for i in range(len(out)):
        if i != spared and rng.random() < 0.5:
            out[i] = (0.0, -0.0)[rng.integers(0, 2)]
    return tuple(out)


def _dense_outcome(tape, alg, rows):
    """The dense lowering's result or error type, and whether every slot it
    wrote stayed finite up to there."""
    vals, finite = [*rows, *tape.init], True
    try:
        for f, i, j, k in dense_program(tape, alg).steps:
            vals[k] = f(vals[i], vals[j])
            finite = finite and bool(np.all(np.isfinite(vals[k])))
    except Exception as e:  # noqa: BLE001 - the error type is the outcome
        return type(e), finite
    return vals[tape.out], finite


def _same_bytes(u, v):
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and u.dtype == v.dtype and u.tobytes() == v.tobytes()


def assert_matches_dense(tape, alg, x, y, label):
    rows = seed_block(alg, x, y)
    program = expr.seed_program(tape, alg)
    with np.errstate(all="ignore"):
        want, finite = _dense_outcome(tape, alg, rows)
        try:
            got = expr.run(tape, program, rows)
        except Exception as e:  # noqa: BLE001
            got = type(e)
    assert program.pairs <= dense_program(tape, alg).pairs, label
    if not isinstance(got, type) and program.support is not None:
        assert np.all(got[~program.support] == 0.0), label  # +-0 off the support
    if finite:
        if isinstance(want, type):
            assert got is want, label
        else:
            assert not isinstance(got, type) and _same_bytes(got, want), label
    elif not isinstance(want, type) and not isinstance(got, type):
        keep = ~np.isnan(want)
        assert _same_bytes(got[keep], want[keep]), label


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**24), ORDERS, CAPS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_programs_match_dense_lowering(name, bits, order, cap):
    """Every built-in's F program at points with signed zeros in x and y."""
    m = build_metric(builtin(name))
    rng = np.random.default_rng(bits)
    x = _with_zeros(rng, rng.uniform(-0.5, 0.5, m.n), keep_one=False)
    y = _with_zeros(rng, rng.uniform(-1.5, 1.5, m.n), keep_one=True)
    assert_matches_dense(m.tape, _algebra(2 * m.n, order, cap), x, y, (name, order, cap, x, y))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**24), st.sampled_from((2, 3)), ORDERS, CAPS)
def test_random_programs_match_dense_lowering(bits, n, order, cap):
    """Random trees over n dimensions at points with signed zeros."""
    rng = np.random.default_rng(bits)
    ast = random_ast(rng, n=n)
    consts = {"k": (0.75, -0.0, 2.0)[rng.integers(0, 3)],
              "a": np.array([(0.0, -0.0, 0.3, -1.5)[i] for i in rng.integers(0, 4, n)])}
    try:
        tape = expr.compile_tape(ast, n, consts)
    except Exception:  # noqa: BLE001 - a tree that fails to fold has no program
        return
    x = _with_zeros(rng, rng.uniform(-0.9, 0.9, n), keep_one=False)
    y = _with_zeros(rng, rng.uniform(-1.5, 1.5, n), keep_one=True)
    assert_matches_dense(tape, _algebra(2 * n, order, cap), x, y, (pretty(ast), order, cap, x, y))


@pytest.mark.parametrize("name,dense,bound", [
    ("funk3", 81_077, 18_008),
    ("sphere3", 164_039, 13_987),
    ("randers3x", 35_722, 12_480),
])
def test_program_pairs_at_the_tower_algebra(name, dense, bound):
    """``JetProgram.pairs`` of F in the order-7, x-degree-cap-2 algebra a
    tower scope seeds, against the dense lowering's count."""
    m = build_metric(builtin(name))
    alg = _algebra(6, 7, 2)
    assert dense_program(m.tape, alg).pairs == dense
    assert expr.seed_program(m.tape, alg).pairs <= bound
