"""Truncated and batched kernel steps against their full-order references.

Horner composition, the Neumann inverse of g and the horizontal derivative
run in growing-order or row-batched form inside the library.  Each product
is summed like ``Jet.__mul__`` and each sum runs in the reference order, so
the coefficients must match the jet-by-jet forms in ``oracles`` exactly:
``np.array_equal``, not a tolerance, and the same truncation order.

The algebra tables are built with array operations; they must equal the
pair-by-pair build in ``oracles``.  Products of jets of known low degree run
in the small algebra the degree needs, block by block for large tables; they
must equal one bincount over the loop-built table, sign bits included.
"""

import functools
import math

import numpy as np
import pytest

from finslerlab import analysis
from finslerlab.curvature import point_scope
from finslerlab.jets import Jet, _algebra, mul_rows
from finslerlab.metrics import build_metric, builtin

from oracles import (
    compose_full,
    deriv_tables_loop,
    g_inv_full,
    hderiv_loop,
    mul_table_loop,
)

HDERIV_METRICS = (
    "funk2", "funk2-drift", "quartic2", "funk3", "randers3x", "abq3",
    "sphere3", "mink-randers3",
)
#: field of the order-7 scope whose horizontal derivative is checked, by valence
HDERIV_FIELDS = {
    (): "F",
    ("lo",): "I",
    ("lo", "lo"): "g",
    ("lo",) * 3: "C",
    ("up", "lo", "lo", "lo"): "B",
    ("lo",) * 4: "Sigma",
}


def assert_same_jets(got, ref):
    """Equal shape, equal truncation order and equal coefficients per entry."""
    if isinstance(ref, Jet):
        got, ref = np.array(got, dtype=object), np.array(ref, dtype=object)
    assert got.shape == ref.shape
    for idx in np.ndindex(ref.shape):
        assert got[idx].order == ref[idx].order, idx
        assert np.array_equal(got[idx].coef, ref[idx].coef), idx


@pytest.fixture(scope="module")
def order7_scopes():
    scopes = {}

    def get(name):
        if name not in scopes:
            m = build_metric(builtin(name))
            scopes[name] = point_scope(m, analysis.sample_states(m, 1, seed=5)[0], 7)
        return scopes[name]

    return get


@pytest.mark.parametrize("name", HDERIV_METRICS)
@pytest.mark.parametrize("valence", list(HDERIV_FIELDS), ids=lambda v: ",".join(v) or "scalar")
def test_hderiv_matches_entry_loop(order7_scopes, name, valence):
    sc = order7_scopes(name)
    T = sc.field(HDERIV_FIELDS[valence])
    assert_same_jets(sc.hderiv(T, valence), hderiv_loop(sc, T, valence))


def _random_jet(rng, n_vars, order):
    alg = _algebra(n_vars, order)
    coef = 0.5 * rng.standard_normal(alg.size)
    coef[0] = 0.7 + rng.random()
    return Jet(alg, coef)


COMPOSITIONS = {
    "sqrt": Jet.sqrt,
    "reciprocal": Jet.reciprocal,
    "pow 1.5": lambda j: j**1.5,
    "pow -0.5": lambda j: j**-0.5,
    "pow -2.5": lambda j: j**-2.5,
    "pow -3": lambda j: j**-3,
    "exp": Jet.exp,
    "log": Jet.log,
    "sin": Jet.sin,
    "cos": Jet.cos,
}


@pytest.mark.parametrize("n_vars", (2, 4, 6))
@pytest.mark.parametrize("order", range(8))
def test_growing_order_horner_matches_full_order(monkeypatch, n_vars, order):
    rng = np.random.default_rng(100 * n_vars + order)
    jets = [_random_jet(rng, n_vars, order) for _ in range(2)]
    got = {name: [f(j) for j in jets] for name, f in COMPOSITIONS.items()}
    monkeypatch.setattr(Jet, "_compose", compose_full)
    for name, f in COMPOSITIONS.items():
        for j, out in zip(jets, got[name]):
            assert_same_jets(out, f(j))


@pytest.mark.parametrize("name", ("funk2", "funk2-drift", "quartic2", "funk3", "randers3x", "abq3"))
@pytest.mark.parametrize("order", range(2, 8))
def test_growing_order_neumann_matches_full_order(name, order):
    m = build_metric(builtin(name))
    sc = point_scope(m, analysis.sample_states(m, 1, seed=9)[0], order)
    assert_same_jets(sc.field("g_inv"), g_inv_full(sc))


def test_mul_rows_matches_jet_products():
    rng = np.random.default_rng(3)
    alg = _algebra(6, 3)
    a = rng.standard_normal((3, 1, alg.size))
    b = rng.standard_normal((1, 4, alg.size))
    out = mul_rows(alg, a, b)
    assert out.shape == (3, 4, alg.size)
    for i in range(3):
        for j in range(4):
            ref = Jet(alg, a[i, 0]) * Jet(alg, b[0, j])
            assert np.array_equal(out[i, j], ref.coef)


def test_mul_rows_in_row_blocks_matches_jet_products():
    # 81 rows of 455 pairs: more than one row block
    rng = np.random.default_rng(4)
    alg = _algebra(6, 3)
    a = rng.standard_normal((3, 1, 1, 3, alg.size + 5))
    b = rng.standard_normal((1, 3, 3, 1, alg.size))
    b[0, 1, 2, 0, 7:20] = -0.0
    out = mul_rows(alg, a, b)
    assert out.shape == (3, 3, 3, 3, alg.size)
    for idx in np.ndindex(out.shape[:-1]):
        ai = tuple(i if n > 1 else 0 for i, n in zip(idx, a.shape[:-1]))
        bi = tuple(i if n > 1 else 0 for i, n in zip(idx, b.shape[:-1]))
        ref = Jet(alg, a[ai][: alg.size]) * Jet(alg, b[bi])
        assert_bitwise(out[idx], ref.coef)


# --- array-built tables and degree-aware products ---

TABLE_SPACES = [(nv, k) for nv in range(1, 7) for k in range(8)] + [(8, k) for k in range(6)]


@pytest.mark.parametrize("n_vars,order", TABLE_SPACES)
def test_tables_match_loop_build(n_vars, order):
    alg = _algebra(n_vars, order)
    for got, ref in zip(alg.mul_table, mul_table_loop(alg)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert len(alg.deriv_tables) == n_vars
    for got_v, ref_v in zip(alg.deriv_tables, deriv_tables_loop(alg)):
        for got, ref in zip(got_v, ref_v):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


@functools.cache
def _loop_table(n_vars, order):
    return mul_table_loop(_algebra(n_vars, order))


def full_product(alg, a, b):
    """One bincount over the loop-built table of the full algebra."""
    mi, mj, mo = _loop_table(alg.n_vars, alg.order)
    return np.bincount(mo, weights=a[mi] * b[mj], minlength=alg.size)


def assert_bitwise(got, ref):
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _poly(rng, alg, deg):
    """Coefficients of a random polynomial of degree <= deg: +-0 above deg,
    and some -0.0 entries below it."""
    coef = rng.standard_normal(alg.size)
    coef[rng.random(alg.size) < 0.15] = -0.0
    high = alg.count_through_order[deg]
    coef[high:] = np.where(rng.random(alg.size - high) < 0.5, 0.0, -0.0)
    return coef


@pytest.mark.parametrize("n_vars", (2, 4, 6))
@pytest.mark.parametrize("order", range(8))
def test_degree_aware_products_match_full_table(n_vars, order):
    rng = np.random.default_rng(10 * n_vars + order)
    alg = _algebra(n_vars, order)
    for p in range(order + 1):
        for q in range(order + 1):
            a, b = _poly(rng, alg, p), _poly(rng, alg, q)
            prod = Jet(alg, a, p) * Jet(alg, b, q)
            assert prod.deg == min(p + q, order)
            assert_bitwise(prod.coef, full_product(alg, a, b))


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_degree_aware_product_with_non_finite_coefficients(bad):
    # through order p + q as in full; above it the exact polynomial product
    # keeps +0.0 where the full table would form 0 * inf = NaN
    rng = np.random.default_rng(2)
    alg = _algebra(4, 6)
    a, b = _poly(rng, alg, 1), _poly(rng, alg, 2)
    a[2] = bad
    with np.errstate(invalid="ignore"):
        prod = Jet(alg, a, 1) * Jet(alg, b, 2)
        ref = full_product(alg, a, b)
    low = alg.count_through_order[3]
    assert prod.deg == 3
    assert_bitwise(prod.coef[:low], ref[:low])
    assert not np.all(np.isfinite(prod.coef[:low]))
    assert_bitwise(prod.coef[low:], np.zeros(alg.size - low))


def _assert_degree_bound(jet):
    assert 0 <= jet.deg <= jet.order
    high = jet.coef[jet.alg.count_through_order[jet.deg]:]
    assert np.all(high == 0.0), jet.deg


def test_degree_invariant_after_every_operation():
    alg = _algebra(4, 6)
    x = [Jet.variable(alg, v, 0.3 - 0.2 * v) for v in range(4)]
    c = Jet.constant(alg, 1.7)
    assert (x[0].deg, c.deg) == (1, 0)
    xx = x[0] * x[1]
    quad = xx + x[2] * x[2]
    results = {
        "product": (xx, 2),
        "sum": (quad, 2),
        "sum with a constant": (c + x[3], 1),
        "scalar sum": (quad + 2.5, 2),
        "scalar difference": (3.0 - quad, 2),
        "difference": (quad - x[1], 2),
        "negation": (-quad, 2),
        "scalar product": (0.5 * quad, 2),
        "scalar division": (quad / 4.0, 2),
        "integer power": (quad**3, 6),
        "power to zero": (quad**0, 0),
        "product above K": (quad * quad * quad * x[0], 6),
        "derivative": (quad.deriv(2), 1),
        "derivative of a constant": (c.deriv(0), 0),
        "truncation": ((quad * quad).truncated(3), 3),
        "pruned": ((quad * quad).pruned(1e-3), 4),
        "padded": (quad.truncated(3)._padded(alg), 2),
        "composition": (quad.sqrt(), 6),
        "reciprocal": ((quad + 1.0).reciprocal(), 6),
        "built without a degree": (Jet(alg, quad.coef.copy()), 6),
    }
    for name, (jet, deg) in results.items():
        assert jet.deg == deg, name
        _assert_degree_bound(jet)


@pytest.mark.parametrize("scale", (np.inf, -np.inf, np.nan, 1e308))
def test_scalar_product_resets_degree_unless_finite(scale):
    alg = _algebra(4, 5)
    quad = Jet.variable(alg, 0, 0.5) * Jet.variable(alg, 1, -0.25)
    with np.errstate(invalid="ignore"):
        out = quad * scale
        ref = quad.coef * scale
    assert out.deg == (2 if math.isfinite(scale) else alg.order)
    assert_bitwise(out.coef, ref)
    _assert_degree_bound(out)


def test_mixed_order_product_keeps_degree():
    lo, hi = _algebra(4, 3), _algebra(4, 6)
    a = Jet.variable(hi, 0, 0.2) * Jet.variable(hi, 1, 0.1)
    b = Jet.variable(lo, 2, -0.3)
    prod = a * b
    assert prod.order == 3 and prod.deg == 3
    assert_bitwise(prod.coef, full_product(lo, a.coef[: lo.size], b.coef))
