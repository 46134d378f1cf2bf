"""Jets with a capped x-degree against the kept coefficients of uncapped jets.

An algebra keyed (n_vars, K, p) holds the monomials of total order <= K
whose degree in the first n_vars / 2 variables (the x variables) is <= p.
Those of higher x-degree form an ideal, so every operation on capped jets
must give the kept coefficients of the same operation on uncapped jets:
``np.array_equal`` with equal sign bits, not a tolerance.  The product table
must be the uncapped table with the pairs that leave the basis masked out,
in its own order.

A product with a y seed runs as a shift (``mul_seeds``); it must
equal ``mul_rows`` with the seed's coefficient rows, -0.0 entries included.
"""

import numpy as np
import pytest

from finslerlab.errors import OrderExceeded
from finslerlab.jets import Jet, _algebra, deriv_rows, mul_rows, mul_seeds

from oracles import count_through_order, mul_table_loop, truncated

SPACES = [(nv, k, p) for nv in (2, 4, 6) for k in range(8) for p in range(4)]
ids = lambda v: str(v)  # noqa: E731


def assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def kept(full, cap):
    """Indices, in the uncapped basis, of the monomials of x-degree <= cap."""
    nx = full.n_vars // 2
    return np.array([i for i, e in enumerate(full.exponents) if sum(e[:nx]) <= cap], dtype=np.int64)


def coefs(rng, alg, shape=()):
    """Random coefficients with some -0.0 entries and a positive value part."""
    c = rng.standard_normal(shape + (alg.size,))
    c[rng.random(c.shape) < 0.15] = -0.0
    c[..., 0] = 0.6 + rng.random(shape)
    return c


def _poly(rng, alg, deg):
    """Coefficients of a polynomial of degree <= deg: +-0 above it."""
    c = coefs(rng, alg)
    high = count_through_order(alg)[deg]
    c[high:] = np.where(rng.random(alg.size - high) < 0.5, 0.0, -0.0)
    return c


@pytest.mark.parametrize("n_vars,order,cap", SPACES, ids=ids)
def test_capped_basis_and_table_mask_the_uncapped_ones(n_vars, order, cap):
    full, alg = _algebra(n_vars, order), _algebra(n_vars, order, cap)
    keep = kept(full, cap)
    assert alg.cap == min(cap, order)
    assert alg.exponents == [full.exponents[i] for i in keep]
    pos = np.full(full.size, -1)
    pos[keep] = np.arange(keep.size)
    mi, mj, mo = mul_table_loop(full)
    mask = pos[mo] >= 0
    for got, ref in zip(alg.mul_table, (pos[mi[mask]], pos[mj[mask]], pos[mo[mask]])):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert np.all(alg.mul_table[0] >= 0) and np.all(alg.mul_table[1] >= 0)
    assert count_through_order(alg) == [int(np.sum(full.orders[keep] <= d)) for d in range(order + 1)]


@pytest.mark.parametrize("n_vars,order,cap", SPACES, ids=ids)
def test_capped_operations_keep_the_uncapped_coefficients(n_vars, order, cap):
    rng = np.random.default_rng(1000 * n_vars + 10 * order + cap)
    full, alg = _algebra(n_vars, order), _algebra(n_vars, order, cap)
    keep = kept(full, cap)
    a, b = coefs(rng, full), coefs(rng, full)
    A, B = Jet(full, a), Jet(full, b)
    Ac, Bc = Jet(alg, a[keep]), Jet(alg, b[keep])
    checks = {
        "product": (A * B, Ac * Bc),
        "sum": (A + B, Ac + Bc),
        "scalar": (A * -0.75 + 2.0, Ac * -0.75 + 2.0),
        "power 3": (A**3, Ac**3),
        "sqrt": (A.sqrt(), Ac.sqrt()),
        "reciprocal": (A.reciprocal(), Ac.reciprocal()),
        "pow -0.5": (A**-0.5, Ac**-0.5),
        "pow 1.5": (A**1.5, Ac**1.5),
        "exp": (A.exp(), Ac.exp()),
        "log": (A.log(), Ac.log()),
        "sin": (A.sin(), Ac.sin()),
        "cos": (A.cos(), Ac.cos()),
    }
    for p in range(order + 1):
        for q in range(order + 1 - p):
            a_p, b_q = _poly(rng, full, p), _poly(rng, full, q)
            checks[f"degrees {p}, {q}"] = (
                Jet(full, a_p, p) * Jet(full, b_q, q),
                Jet(alg, a_p[keep], p) * Jet(alg, b_q[keep], q),
            )
    for name, (ref, got) in checks.items():
        assert got.alg is alg, name
        assert_bitwise(got.coef, ref.coef[keep])
    for v in range(n_vars):
        if order == 0 or (v < n_vars // 2 and alg.cap == 0):
            with pytest.raises(OrderExceeded):
                Ac.deriv(v)
            continue
        got, ref = Ac.deriv(v), A.deriv(v)
        assert got.alg is _algebra(n_vars, order - 1, alg.cap - (v < n_vars // 2))
        assert_bitwise(got.coef, ref.coef[kept(ref.alg, got.alg.cap)])
    seed = Jet.variable(alg, n_vars - 1, 0.3)
    assert_bitwise(seed.coef, Jet.variable(full, n_vars - 1, 0.3).coef[keep])
    for k in range(order + 1):
        low = truncated(A, k)
        assert_bitwise(truncated(Ac, k).coef, low.coef[kept(low.alg, cap)])


@pytest.mark.parametrize("n_vars,order,cap", SPACES, ids=ids)
def test_capped_row_kernels_keep_the_uncapped_coefficients(n_vars, order, cap):
    rng = np.random.default_rng(7 + 1000 * n_vars + 10 * order + cap)
    full, alg = _algebra(n_vars, order), _algebra(n_vars, order, cap)
    keep = kept(full, cap)
    a, b = coefs(rng, full, (3, 1)), coefs(rng, full, (1, 4))
    assert_bitwise(mul_rows(alg, a[..., keep], b[..., keep]), mul_rows(full, a, b)[..., keep])
    many = coefs(rng, full, (40, 3))  # row blocks
    assert_bitwise(mul_rows(alg, many[..., keep], a[0, :1][..., keep]),
                   mul_rows(full, many, a[0, :1])[..., keep])
    if order == 0:
        return
    nx = n_vars // 2
    ranges = [range(nx, n_vars)] + ([range(nx)] if alg.cap and nx else [])
    for variables in ranges:
        got = deriv_rows(alg, a[..., keep], variables)
        ref = deriv_rows(full, a, variables)
        lower = alg.lowered(variables[0])
        assert got.shape[-1] == lower.size
        assert_bitwise(got, ref[..., kept(full.lowered(variables[0]), lower.cap)])


def test_capped_cuts_and_mixed_operands():
    rng = np.random.default_rng(5)
    big, small = _algebra(6, 7, 2), _algebra(6, 4, 1)
    full = _algebra(6, 7)
    a = coefs(rng, full)
    A, Ab = Jet(full, a), Jet(big, a[kept(full, 2)])
    Asmall = Jet(small, a[kept(full, 1)][: small.size])
    assert_bitwise(big.cut(Ab.coef, small), Asmall.coef)
    assert_bitwise(full.cut(a, small), Asmall.coef)
    assert isinstance(big.cut(Ab.coef, _algebra(6, 3, 2)), np.ndarray)
    prod = Ab * Jet(small, coefs(rng, small))
    assert prod.alg is small
    with pytest.raises(OrderExceeded):
        small.cut(Asmall.coef, big)
    with pytest.raises(OrderExceeded):
        Ab.coefficient((3, 0, 0, 1, 0, 0))
    assert Ab.coefficient((2, 0, 0, 1, 0, 0)) == A.coefficient((2, 0, 0, 1, 0, 0))
    assert _algebra(6, 3, 5) is _algebra(6, 3) and _algebra(2, 4, 9) is _algebra(2, 4)


def test_sizes_collide_across_caps():
    # why a scope records each field's (order, cap) instead of reading its size
    assert _algebra(6, 3, 3).size == _algebra(6, 6, 0).size == 84


@pytest.mark.parametrize("n_vars,order,cap", SPACES, ids=ids)
def test_seed_products_as_shifts_match_the_table(n_vars, order, cap):
    rng = np.random.default_rng(3 + 100 * n_vars + 10 * order + cap)
    alg = _algebra(n_vars, order, cap)
    nx = n_vars // 2
    ys = range(nx, n_vars)
    y0 = np.array([0.7, -0.0, -1.3][: len(ys)])
    seeds = np.array([Jet.variable(alg, v, y0[k]).coef for k, v in enumerate(ys)])
    a = rng.standard_normal((2, len(ys), 3, alg.size + 2))
    a[rng.random(a.shape) < 0.3] = -0.0
    a[1, 0, 0] = -0.0
    ref = mul_rows(alg, a, seeds[None, :, None])
    assert_bitwise(mul_seeds(alg, a, y0, axis=1), ref)
    b = np.moveaxis(a, 1, -2)  # seed index in the last slot
    assert_bitwise(mul_seeds(alg, b, y0), mul_rows(alg, b, seeds))
    r = a[0, :, 0]  # seed first, as in y / F
    assert_bitwise(mul_seeds(alg, r, y0, axis=0), mul_rows(alg, seeds, r))
