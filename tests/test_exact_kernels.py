"""Truncated and batched kernel steps against their full-order references.

Horner composition, the Neumann inverse of g and the horizontal derivative
run in growing-order or row-batched form inside the library.  Each product
is summed like ``Jet.__mul__`` and each sum runs in the reference order, so
the coefficients must match the jet-by-jet forms in ``oracles`` exactly:
``np.array_equal``, not a tolerance, and the same truncation order.
"""

import numpy as np
import pytest

from finslerlab import analysis
from finslerlab.curvature import point_scope
from finslerlab.jets import Jet, _algebra, mul_rows
from finslerlab.metrics import build_metric, builtin

from oracles import compose_full, g_inv_full, hderiv_loop

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
