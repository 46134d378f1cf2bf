"""Jet kernel: seeding, arithmetic, compositions, coefficient extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.errors import (
    BadConfig,
    DivisionByZero,
    DomainError,
    OrderExceeded,
    ShapeMismatch,
    ZeroVector,
)
from finslerlab.jets import Jet, JetConfig, seed_variables

from oracles import fd_partial, jet_partial, rel_err, smooth, truncated


def seed(x0, y0, order=5):
    return seed_variables(x0, y0, JetConfig(n=len(x0), order=order))


# --- seeding ---

def test_seed_identity_coefficients():
    xj, yj = seed([1.0, 2.0], [3.0, 4.0], order=3)
    assert xj[0].value == 1.0
    assert yj[1].value == 4.0
    # each seed is the identity in its own slot, flat in the others
    assert xj[0].coefficient((1, 0, 0, 0)) == 1.0
    assert xj[0].coefficient((0, 1, 0, 0)) == 0.0
    assert yj[0].coefficient((0, 0, 1, 0)) == 1.0
    assert yj[0].coefficient((2, 0, 0, 0)) == 0.0


def test_seed_rejects_zero_direction():
    with pytest.raises(ZeroVector):
        seed([0.0, 0.0], [0.0, 0.0])


def test_config_validation():
    with pytest.raises(BadConfig):
        JetConfig(n=2, order=0)
    with pytest.raises(BadConfig):
        JetConfig(n=0, order=5)


# --- arithmetic ---

def test_product_of_coordinates_has_unit_mixed_partial():
    _, yj = seed([0.0, 0.0], [3.0, 4.0], order=4)
    prod = yj[0] * yj[1]
    assert prod.value == 12.0
    assert jet_partial(prod, (0, 0, 1, 1)) == 1.0
    assert jet_partial(prod, (0, 0, 2, 0)) == 0.0


def test_square_matches_polynomial_expansion():
    _, yj = seed([0.0], [3.0], order=4)
    sq = yj[0] * yj[0]
    assert sq.value == 9.0
    assert jet_partial(sq, (0, 1)) == 6.0
    assert jet_partial(sq, (0, 2)) == 2.0
    assert jet_partial(sq, (0, 3)) == 0.0


def test_cubic_third_partial():
    _, yj = seed([0.0], [2.0], order=5)
    cub = yj[0] * yj[0] * yj[0]
    assert jet_partial(cub, (0, 3)) == pytest.approx(6.0, abs=1e-12)


def test_euclidean_energy_hessian():
    # F^2 = sum y_i^2 has y-Hessian 2*I at any point
    _, yj = seed([0.5, -0.3], [3.0, 4.0], order=3)
    f2 = yj[0] * yj[0] + yj[1] * yj[1]
    hess = np.array(
        [
            [jet_partial(f2, (0, 0, 2, 0)), jet_partial(f2, (0, 0, 1, 1))],
            [jet_partial(f2, (0, 0, 1, 1)), jet_partial(f2, (0, 0, 0, 2))],
        ]
    )
    assert np.allclose(hess, 2.0 * np.eye(2), atol=1e-12)


def test_strict_arith_rejects_mixed_configs():
    # operands of one variable count but different orders meet at the lower
    # order; a different variable count is refused
    xa, _ = seed([1.0], [1.0], order=3)
    xb, _ = seed([1.0], [1.0], order=4)
    assert (xa[0] + xb[0]).order == 3
    assert (xb[0] * xa[0]).order == 3
    xc, _ = seed([1.0, 0.0], [1.0, 0.0], order=3)
    with pytest.raises(ShapeMismatch):
        xa[0] + xc[0]
    with pytest.raises(ShapeMismatch):
        xa[0] * xc[0]


def test_division_by_zero_value():
    xj, yj = seed([0.0, 0.0], [1.0, 1.0], order=3)
    with pytest.raises(DivisionByZero):
        _ = yj[0] / xj[0]


# --- closed-form functions ---

def test_sqrt_norm_gradient():
    _, yj = seed([0.0, 0.0], [3.0, 4.0], order=4)
    F = (yj[0] * yj[0] + yj[1] * yj[1]).sqrt()
    assert F.value == pytest.approx(5.0, abs=1e-14)
    assert jet_partial(F, (0, 0, 1, 0)) == pytest.approx(3.0 / 5.0, abs=1e-14)
    assert jet_partial(F, (0, 0, 0, 1)) == pytest.approx(4.0 / 5.0, abs=1e-14)


def test_sqrt_domain_guard():
    xj, _ = seed([-2.0], [1.0], order=3)
    with pytest.raises(DomainError):
        xj[0].sqrt()
    with pytest.raises(DomainError):
        xj[0].log()


def test_pow_const_quartic_root():
    _, yj = seed([0.0, 0.0], [1.0, 1.0], order=4)
    F = (yj[0] ** 4 + yj[1] ** 4) ** 0.25
    assert F.value == pytest.approx(2.0**0.25, rel=1e-14)

    def raw(pt):
        return (pt[2] ** 4 + pt[3] ** 4) ** 0.25

    got = jet_partial(F, (0, 0, 1, 0))
    want = fd_partial(raw, [0, 0, 1, 1], (0, 0, 1, 0))
    assert got == pytest.approx(want, rel=1e-7)


def test_integer_power_negative_base():
    xj, _ = seed([-1.5], [1.0], order=4)
    p = xj[0] ** 3
    assert p.value == pytest.approx((-1.5) ** 3, rel=1e-14)
    assert jet_partial(p, (1, 0)) == pytest.approx(3 * (-1.5) ** 2, rel=1e-14)


# --- oracle equivalence on a corpus of smooth functions ---

def _corpus(rng):
    """Random closed-form smooth functions with their generic evaluators."""
    c = rng.uniform(-1.0, 1.0, size=8)

    def poly(v):
        return c[0] + c[1] * v[0] + c[2] * v[1] * v[2] + c[3] * v[3] ** 2 + c[4] * v[0] * v[1] * v[3]

    def wave(v):
        s = c[0] * v[0] + c[1] * v[1] + c[2] * v[2] + c[3] * v[3]
        return smooth(s, "sin") + 0.5 * smooth(0.3 * s, "cos")

    def bump(v):
        q = 1.0 + (c[0] * v[2] + c[1] * v[3]) ** 2 + 0.1 * v[0] ** 2
        return smooth(q, "sqrt") + smooth(1.0 + 0.2 * q, "log")

    def blend(v):
        q = 0.2 * (v[0] * v[3] - v[1] * v[2])
        return smooth(q, "exp") / (2.0 + smooth(q, "sin"))

    return [poly, wave, bump, blend]


@pytest.mark.parametrize("fn_idx", range(4))
def test_partials_match_finite_differences(fn_idx):
    rng = np.random.default_rng(42 + fn_idx)
    fns = _corpus(rng)
    f = fns[fn_idx]
    pt = [0.3, -0.4, 0.7, 1.1]
    xj, yj = seed(pt[:2], pt[2:], order=5)
    jf = f(xj + yj)
    alphas = [
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 2, 0),
        (1, 0, 1, 1),
        (0, 0, 2, 1),
        (2, 1, 0, 0),
    ]
    step = {1: 1e-6, 2: 1e-4, 3: 1e-3}
    for alpha in alphas:
        got = jet_partial(jf, alpha)
        want = fd_partial(lambda v: float(f(v)), pt, alpha, h=step[sum(alpha)])
        assert rel_err([got], [want], floor=1.0) < 1e-5, (alpha, got, want)


# --- structural properties ---

@st.composite
def poly_jets(draw, n=2, order=4):
    """Random polynomial jets built through the public seeding path."""
    x0 = [draw(st.floats(-2, 2)), draw(st.floats(-2, 2))]
    y0 = [draw(st.floats(0.5, 2)), draw(st.floats(-2, -0.5))]
    xj, yj = seed(x0, y0, order=order)
    coefs = [draw(st.floats(-3, 3)) for _ in range(5)]
    v = xj + yj
    jet = (
        coefs[0]
        + coefs[1] * v[0]
        + coefs[2] * v[1] * v[3]
        + coefs[3] * v[2] * v[2]
        + coefs[4] * v[0] * v[1] * v[2]
    )
    return jet


@settings(max_examples=30, deadline=None)
@given(a=poly_jets(), b=poly_jets(), s=st.floats(-3, 3))
def test_extraction_is_linear(a, b, s):
    combo = a + s * b
    for alpha in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 2)]:
        lhs = jet_partial(combo, alpha)
        rhs = jet_partial(a, alpha) + s * jet_partial(b, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@settings(max_examples=30, deadline=None)
@given(a=poly_jets(), b=poly_jets())
def test_leibniz_rule_exact(a, b):
    prod = a * b
    for var in range(4):
        lhs = prod.deriv(var)
        rhs = a.deriv(var) * truncated(b, b.order - 1) + truncated(a, a.order - 1) * b.deriv(var)
        assert np.allclose(lhs.coef, rhs.coef, rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(a=poly_jets(order=6), b=poly_jets(order=6))
def test_truncation_consistency(a, b):
    # computing at higher order then truncating == computing at lower order
    full = truncated(a * b, 5)
    low = truncated(a, 5) * truncated(b, 5)
    assert np.allclose(full.coef, low.coef, rtol=1e-12, atol=1e-12)


def test_composition_truncation_consistency():
    xj, yj = seed([0.4, -0.2], [1.0, 2.0], order=6)
    f = (1.0 + yj[0] * yj[0] + 0.5 * xj[1] * yj[1]).sqrt().exp()
    g_low = (
        (1.0 + truncated(yj[0] * yj[0], 5) + truncated(0.5 * xj[1] * yj[1], 5))
        .sqrt()
        .exp()
    )
    assert np.allclose(truncated(f, 5).coef, g_low.coef, rtol=1e-11, atol=1e-13)


# --- order bookkeeping ---

def test_extract_beyond_order_raises():
    _, yj = seed([0.0], [1.0], order=3)
    with pytest.raises(OrderExceeded):
        jet_partial(yj[0], (0, 4))


def test_deriv_drops_order_until_exhausted():
    _, yj = seed([0.0], [2.0], order=2)
    d1 = yj[0].deriv(1)
    d2 = d1.deriv(1)
    assert d2.order == 0
    with pytest.raises(OrderExceeded):
        d2.deriv(1)


def test_reciprocal_of_reciprocal_roundtrip():
    xj, yj = seed([0.3, 0.1], [1.5, -0.7], order=5)
    f = 2.0 + xj[0] * yj[1] + yj[0] ** 2
    r = f.reciprocal().reciprocal()
    assert np.allclose(r.coef, f.coef, rtol=1e-12, atol=1e-12)

