"""Truncated and batched kernel steps against their full-order references.

Horner composition, the Neumann inverse of g and the horizontal derivative
run in growing-order or row-batched form inside the library, and every
field builder works on coefficient arrays.  Each product
is summed like ``Jet.__mul__`` and each sum runs in the reference order, so
the coefficients must match the jet-by-jet forms in ``oracles`` exactly:
``np.array_equal`` with equal sign bits, not a tolerance, and the same
truncation order.

The vertical derivative is one row-wise gather over all y slots; it must
equal one ``Jet.deriv`` per entry and slot.  A scope builds each field only to the
order its readers in the ledger need: every such field must be the prefix
of the same field at the full order, sign bits included.

The algebra tables are built with array operations; they must equal the
pair-by-pair build in ``oracles``.  Products of jets of known low degree run
in the small algebra the degree needs, block by block for large tables; they
must equal one bincount over the loop-built table, sign bits included.
"""

import functools
import inspect
import math

import numpy as np
import pytest

from finslerlab import analysis
from finslerlab.curvature import (
    BLOCKS, DEPTH, HDERIVS, LEDGER, MIN_ORDER, SEED_CAP, XDEPTH, FieldScope, _plan,
    point_scope,
)
from finslerlab.errors import DimensionError, RiemannianPoint, UndefinedFit
from finslerlab.jets import Jet, _algebra, mul_rows
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin

from oracles import (
    BUILD_LOOPS,
    as_coefs,
    as_jets,
    count_through_order,
    deriv_tables_loop,
    g_inv_full,
    hderiv_loop,
    mul_table_loop,
    series_full,
    truncated,
    vderiv_loop,
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


def assert_same_coefs(got, ref):
    """Equal shape, so equal truncation order, and equal coefficients with
    equal sign bits; jets and object arrays of jets compare by coefficients."""
    got, ref = as_coefs(got), as_coefs(ref)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


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
    # the kernel on the field, N and Gamma at full order, in the algebra the
    # entry loop lands in
    sc = order7_scopes(name)
    names = (HDERIV_FIELDS[valence], "N", "Gamma")[: 2 + bool(valence)]
    T, *conn = (sc.field(f) for f in names)
    talg, *calgs = (sc._at(*sc._built[f]) for f in names)
    lo = sc._at(min(talg.order - 1, *(a.order for a in calgs)),
                min(talg.cap - 1, *(a.cap for a in calgs)))
    got = sc._hderiv(lo, talg.cut(T, sc._deeper(lo, 1, 1)),
                     *(a.cut(C, lo) for C, a in zip(conn, calgs)), valence=valence)
    assert_same_coefs(got, hderiv_loop(sc, as_jets(T, talg), valence))


@pytest.mark.parametrize("name", HDERIV_METRICS)
@pytest.mark.parametrize("field", ("F", "I", "g", "C", "B", "Rhh"))
def test_vderiv_matches_entry_loop(order7_scopes, name, field):
    sc = order7_scopes(name)
    T = sc.field(field)
    alg = sc._at(*sc._built[field])
    assert_same_coefs(sc._vd(T, alg), vderiv_loop(sc, as_jets(T, alg)))


# --- the executable truncation ledger and planned scopes ---

#: what the bundle, classify, the fits, the constant-flag chain and the
#: bianchi and landsberg-routes suites read, and the Landsberg norm phi
PLANNED_READS = tuple(dict.fromkeys(
    tuple(BLOCKS.values())
    + ("Fh", "ylow", "RhhV", "D", "g_inv", "g", "Bh", "gh", "gv", "phi")
))


def test_min_order_follows_from_the_ledger():
    assert MIN_ORDER == {"flag": 4, "bundle": 6}
    assert DEPTH["g0"] == 2 and DEPTH["Gamma"] == 4 and DEPTH["B"] == 5 and DEPTH["Rhh"] == 6
    assert DEPTH["RhhV"] == 7 and DEPTH["Sigma"] == 5 and DEPTH["F"] == 0
    assert SEED_CAP == 3 and max(XDEPTH.values()) == 2
    assert XDEPTH["G"] == 1 and XDEPTH["R1"] == XDEPTH["Sigma"] == XDEPTH["Bh"] == 2
    assert XDEPTH["F2"] == XDEPTH["C"] == XDEPTH["g_inv"] == 0


def test_builders_take_their_ledger_inputs():
    builders = {name[len("_build_"):] for name in vars(FieldScope) if name.startswith("_build_")}
    assert builders == set(LEDGER) - set(HDERIVS)
    for name in builders:
        inputs = LEDGER[name]
        params = list(inspect.signature(getattr(FieldScope, "_build_" + name)).parameters)
        assert params[1:] == ["alg"] + [src for src, _, _ in inputs], name


def test_ledger_plan_at_seed_order_7():
    plan = _plan(7)
    assert set(plan) == set(LEDGER)
    orders = {name: q for name, (q, _) in plan.items()}
    full = {name: 7 - DEPTH[name] for name in plan}
    lowered = {name: (full[name], orders[name]) for name in plan if orders[name] != full[name]}
    assert lowered == {
        "C": (4, 2), "I": (4, 1), "Ch": (3, 1), "L_C": (3, 1), "Lh": (2, 0),
        "Sigma": (2, 0), "Ih": (3, 0), "J_I": (3, 0), "B": (2, 1), "E": (2, 0),
        "L_B": (2, 0), "J_L": (2, 0), "ylow": (5, 0), "h": (5, 0), "recF2": (7, 0),
        "Fh": (4, 0), "recF": (7, 1), "gv": (4, 0), "gh": (3, 0), "Bh": (1, 0),
        "D": (3, 0), "phi": (3, 0), "frame2": (5, 1), "I2": (4, 1), "mu2": (3, 0),
        "cratio": (2, 0),
    }
    for name in ("F", "F2", "g", "g_inv", "G", "N", "Gamma", "R1", "Rhh", "RhhV"):
        assert orders[name] == full[name], name
    # x-degree caps: the values need none; R1 <- G <- F2 and Lh <- L_C <- Ch <- C
    # each take two x-derivatives, and Bh and mu2 one
    caps = {name: c for name, (_, c) in plan.items() if c}
    assert caps == {
        "F": 2, "F2": 2, "C": 2, "g": 1, "g0": 1, "ginv0": 1, "g_inv": 1, "G": 1,
        "N": 1, "Gamma": 1, "B": 1, "I": 1, "Ch": 1, "L_C": 1, "recF": 1,
        "frame2": 1, "I2": 1,
    }
    assert all(c <= SEED_CAP - XDEPTH[name] for name, (_, c) in plan.items())


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("order", range(2, 8))
def test_planned_fields_are_prefixes_of_full_order_fields(name, order):
    m = build_metric(builtin(name))
    st = analysis.sample_states(m, 1, seed=11)[0]
    planned = point_scope(m, st, order)
    full = point_scope(m, st, order)
    for f in PLANNED_READS:
        if DEPTH[f] <= order:
            planned.values(f)
    for f, built in planned._built.items():
        if f in ("g0", "ginv0"):
            assert built == (math.inf, math.inf)
            assert_same_coefs(planned.field(f), full.field(f))
            continue
        assert built == planned._plan[f], f
        ref = full.field(f)
        kept = full._at(*full._built[f]).cut(ref, planned._at(*built))
        assert_same_coefs(planned.field(f, *built), kept)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_values_do_not_depend_on_the_seed_order(name):
    # every field read from a scope seeded at its DEPTH (at least 2) through
    # 6 has the order-7 values bit for bit, or raises the same error: a
    # derivative read at order 1 is therefore exact at any seed order
    m = build_metric(builtin(name))
    for st in analysis.sample_states(m, 2, seed=17):
        scopes = {K: point_scope(m, st, K) for K in range(2, 8)}
        for f in LEDGER:
            try:
                want = scopes[7].values(f)
            except Exception as err:  # noqa: BLE001 - compared by type
                want = type(err)
            for K in range(max(2, DEPTH[f]), 7):
                try:
                    got = scopes[K].values(f)
                except Exception as err:  # noqa: BLE001
                    assert type(err) is want, (f, K)
                    continue
                assert not isinstance(want, type), (f, K)
                assert_same_coefs(np.asarray(got), np.asarray(want))


def test_full_order_read_promotes_a_planned_field():
    m = build_metric(builtin("funk3"))
    st = analysis.sample_states(m, 1, seed=2)[0]
    sc = point_scope(m, st, 7)
    assert sc.values("Sigma").shape == (3,) * 4
    assert sc._built["Lh"] == (0, 0)
    ref = point_scope(m, st, 7)
    assert_same_coefs(sc.field("Lh"), ref.field("Lh"))
    assert_same_coefs(sc.hderiv("L_C"), ref.values("Lh"))
    assert np.array_equal(sc.values("Sigma"), ref.values("Sigma"))


def test_every_builder_has_an_entry_loop():
    builders = {name[len("_build_"):] for name in vars(FieldScope) if name.startswith("_build_")}
    assert set(BUILD_LOOPS) == builders - {"F", "g0", "ginv0"}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("mode", ("planned", "full"))
def test_array_builders_match_entry_loops(name, mode):
    # each builder, on the inputs its scope read, against the jet loop it
    # replaced; fields the point does not define raise in both
    m = build_metric(builtin(name))
    for st in analysis.sample_states(m, 2, seed=13):
        sc = point_scope(m, st, 7)
        for f in BUILD_LOOPS:
            try:
                sc.values(f) if mode == "planned" else sc.field(f)
            except (DimensionError, RiemannianPoint, UndefinedFit):
                continue
            p, c = sc._built[f]
            inputs = [sc._cut(src, p + d, c + x) for src, d, x in LEDGER[f]]
            jets = [x[..., 0] if src in ("g0", "ginv0") else as_jets(x, sc._at(p + d, c + xd))
                    for x, (src, d, xd) in zip(inputs, LEDGER[f])]
            got = getattr(sc, "_build_" + f)(sc._at(p, c), *inputs)
            assert_same_coefs(got, sc.field(f, p, c))
            assert_same_coefs(got, BUILD_LOOPS[f](sc, *jets))


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
    monkeypatch.setattr("finslerlab.jets._series", series_full)
    for name, f in COMPOSITIONS.items():
        for j, out in zip(jets, got[name]):
            assert_same_coefs(out, f(j))


@pytest.mark.parametrize("name", ("funk2", "funk2-drift", "quartic2", "funk3", "randers3x", "abq3"))
@pytest.mark.parametrize("order", range(2, 8))
def test_growing_order_neumann_matches_full_order(name, order):
    m = build_metric(builtin(name))
    sc = point_scope(m, analysis.sample_states(m, 1, seed=9)[0], order)
    assert_same_coefs(sc.field("g_inv"), g_inv_full(sc))


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


@pytest.mark.parametrize("order", (5, 7))
def test_mul_rows_one_row_per_block_matches_jet_products(order):
    # 6x5 and 6x7 tables hold more than _BLOCK / 2 pairs: one row at a time
    rng = np.random.default_rng(order)
    alg = _algebra(6, order)
    a = rng.standard_normal((2, 1, alg.size + 3))
    b = rng.standard_normal((3, alg.size))
    b[1, 10:40] = -0.0
    out = mul_rows(alg, a, b)
    assert out.shape == (2, 3, alg.size)
    for i in range(2):
        for j in range(3):
            assert_bitwise(out[i, j], (Jet(alg, a[i, 0, : alg.size]) * Jet(alg, b[j])).coef)


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
    high = count_through_order(alg)[deg]
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
    low = count_through_order(alg)[3]
    assert prod.deg == 3
    assert_bitwise(prod.coef[:low], ref[:low])
    assert not np.all(np.isfinite(prod.coef[:low]))
    assert_bitwise(prod.coef[low:], np.zeros(alg.size - low))


def _assert_degree_bound(jet):
    assert 0 <= jet.deg <= jet.order
    high = jet.coef[count_through_order(jet.alg)[jet.deg]:]
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
        "truncation": (truncated(quad * quad, 3), 3),
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
