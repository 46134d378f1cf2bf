"""Curvature tower: oracle comparisons, closed forms, and route checks.

Oracles used here:

* finite-difference Levi-Civita symbols for Riemannian sprays;
* closed forms for the unit-ball metric (projective factor F/2 makes
  G = (F/2) y, L = -(F/2) C, J = -(F/2) I, E = (n+1) h / (4F), and the
  flag curvature the constant -1/4);
* the round-sphere chart with constant flag curvature +1;
* homogeneity degrees under y -> s y, which every block must satisfy.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import analysis, metrics
from finslerlab.curvature import (
    BLOCKS,
    DEPTH,
    VALENCE,
    PointState,
    _direct_spray,
    curvature_bundle,
    flag_curvature,
    point_scope,
    rel_residual,
    spray_values,
)
from finslerlab.errors import (
    BadConfig,
    DegenerateFlag,
    DomainError,
    OrderExceeded,
    OutOfChart,
    ShapeMismatch,
    SingularMetric,
    ZeroVector,
)

from oracles import christoffel_fd, rel_err, sphere_chart_matrix

#: fields whose horizontal and vertical derivatives are checked below
DERIV_FIELDS = ("F", "F2", "g", "C", "I", "L_C", "J_I", "E", "Sigma")


@pytest.fixture(scope="module")
def funk2():
    return metrics.build_metric(metrics.builtin("funk2"))


@pytest.fixture(scope="module")
def funk2_bundle(funk2):
    return curvature_bundle(funk2, PointState((0.3, -0.1), (0.8, 0.5)), order=7)


# --- trivial baseline ---

def test_euclidean_everything_flat():
    m = metrics.build_metric(metrics.builtin("euclidean3"))
    b = curvature_bundle(m, PointState((0.5, -1.0, 2.0), (1.0, 0.2, -0.4)), order=6)
    assert rel_err(b.block("g").values, np.eye(3)) < 1e-14
    for name in ("C", "I", "B", "E", "R1", "Rhh", "L", "J", "Sigma"):
        assert b.block(name).norm < 1e-13, name
    assert np.max(np.abs(b.spray.G)) == 0.0
    assert flag_curvature(m, b.point, (0.0, 1.0, 0.0), scope=b.scope) == pytest.approx(0.0, abs=1e-14)


def test_point_state_guards():
    with pytest.raises(ZeroVector):
        PointState((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ShapeMismatch):
        PointState((0.0, 0.0), (1.0, 0.0, 0.0))


# --- Riemannian spray against finite-difference Christoffels ---

def test_sphere_spray_matches_fd_christoffels():
    m = metrics.build_metric(metrics.builtin("sphere2"))
    x = (0.3, -0.2)
    y = np.array([0.7, 0.4])
    gamma = christoffel_fd(sphere_chart_matrix, x)
    sc = point_scope(m, PointState(x, tuple(y)), 4)
    assert rel_err(sc.values("G"), 0.5 * np.einsum("ijk,j,k->i", gamma, y, y)) < 1e-8
    assert rel_err(sc.values("N"), np.einsum("ijk,k->ij", gamma, y)) < 1e-8
    # Berwald connection of a Riemannian metric is its Levi-Civita connection
    assert rel_err(sc.values("Gamma"), gamma) < 1e-8


def test_riemannian_berwald_curvature_vanishes():
    m = metrics.build_metric(metrics.builtin("sphere3"))
    sc = point_scope(m, PointState((0.2, 0.1, -0.3), (0.5, -0.4, 0.7)), 5)
    assert np.max(np.abs(sc.values("B"))) < 1e-12
    assert np.max(np.abs(sc.values("E"))) < 1e-12


def test_sphere_constant_flag_curvature():
    m = metrics.build_metric(metrics.builtin("sphere2"))
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = 0.5 * rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        p = PointState(tuple(x), tuple(y))
        if abs(y[0] * u[1] - y[1] * u[0]) < 1e-2 * np.linalg.norm(y) * np.linalg.norm(u):
            continue
        assert flag_curvature(m, p, tuple(u)) == pytest.approx(1.0, rel=1e-9)


def test_sphere_riemann_closed_form():
    """Constant curvature: R^i_k = F^2 d^i_k - y^i y_k and the hh-form."""
    m = metrics.build_metric(metrics.builtin("sphere2"))
    p = PointState((0.4, 0.1), (0.3, -0.9))
    sc = point_scope(m, p, 7)
    g, F = sc.values("g0"), sc.values("F")
    y = np.asarray(p.y)
    ylow = g @ y
    pred = F * F * np.eye(2) - np.outer(y, ylow)
    assert rel_err(sc.values("R1"), pred) < 1e-10
    pred4 = np.einsum("jl,ik->ijkl", g, np.eye(2)) - np.einsum(
        "jk,il->ijkl", g, np.eye(2)
    )
    assert rel_err(sc.values("Rhh"), pred4) < 1e-9


# --- unit-ball closed forms ---

def test_funk_spray_closed_form(funk2_bundle):
    b = funk2_bundle
    y = np.asarray(b.point.y)
    assert rel_err(b.spray.G, 0.5 * b.F * y) < 1e-13


def test_funk_landsberg_closed_form(funk2_bundle):
    b = funk2_bundle
    L, J = b.block("L"), b.block("J")
    assert L.norm > 0.01  # genuinely non-Landsberg
    assert rel_err(L.values, -0.5 * b.F * b.block("C").values) < 1e-12
    assert rel_err(J.values, -0.5 * b.F * b.block("I").values) < 1e-12


def test_funk_mean_berwald_closed_form(funk2_bundle):
    b = funk2_bundle
    assert rel_err(b.block("E").values, 3.0 / (4.0 * b.F) * b.block("h").values) < 1e-12


def test_funk_flag_curvature_constant(funk2):
    rng = np.random.default_rng(9)
    for _ in range(4):
        x = 0.55 * rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        p = PointState(tuple(x), tuple(y))
        assert flag_curvature(funk2, p, (-y[1] + 0.3, y[0])) == pytest.approx(
            -0.25, abs=1e-9
        )


def test_funk3_flag_curvature_constant():
    m = metrics.build_metric(metrics.builtin("funk3"))
    p = PointState((0.2, -0.3, 0.1), (0.4, 0.9, -0.2))
    sc = point_scope(m, p, 4)
    for u in ((1.0, 0.0, 0.0), (0.3, -0.5, 1.0)):
        assert flag_curvature(m, p, u, scope=sc) == pytest.approx(-0.25, abs=1e-9)


def test_funk_riemann_constant_form(funk2_bundle):
    b = funk2_bundle
    y = np.asarray(b.point.y)
    ylow = b.block("g").values @ y
    pred = -0.25 * (b.F**2 * np.eye(2) - np.outer(y, ylow))
    assert rel_err(b.block("R1").values, pred) < 1e-10


# --- homogeneity in y (each block is tested at its known degree) ---

HOMOGENEITY = {
    "g": 0,
    "C": -1,
    "I": -1,
    "B": -1,
    "E": -1,
    "R1": 2,
    "Rhh": 0,
    "L": 0,
    "J": 0,
    "Sigma": 0,
}


def test_homogeneity_degrees():
    m = metrics.build_metric(metrics.builtin("randers3x"))
    x = (0.2, -0.3, 0.1)
    y = (0.7, 0.4, -0.5)
    s = 1.7
    b1 = curvature_bundle(m, PointState(x, y), order=7)
    b2 = curvature_bundle(m, PointState(x, tuple(s * v for v in y)), order=7)
    for name, deg in HOMOGENEITY.items():
        scaled = s**deg * b1.block(name).values
        assert rel_err(b2.block(name).values, scaled) < 1e-10, name
    assert rel_err(b2.spray.G, s**2 * b1.spray.G) < 1e-10
    assert rel_err(b2.spray.N, s * b1.spray.N) < 1e-10
    assert rel_err(b2.spray.Gamma, b1.spray.Gamma) < 1e-10


#: y-degree of every block, the spray included, for the property test below
PROPERTY_DEGREES = {
    "g": 0, "C": -1, "G": 2, "N": 1, "Gamma": 0, "B": -1, "R1": 2, "L": 0, "J": 0, "Sigma": 0,
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(metrics.BUILTIN_NAMES),
    seed=st.integers(0, 10_000),
    lam=st.floats(min_value=0.2, max_value=5.0),
)
def test_homogeneity_property(corpus, name, seed, lam):
    """T(x, lam y) = lam^d T(x, y) for every block, built-in and lam > 0.

    Relative to the larger side, floored at 1e-3 so that a tensor which
    vanishes identically (C, B, L, Sigma of a Riemannian metric) is held to
    its round-off in absolute terms rather than compared with itself.
    """
    m = corpus[name]
    p = analysis.sample_states(m, 1, seed=seed)[0]
    b1 = curvature_bundle(m, p, order=6)
    b2 = curvature_bundle(m, PointState(p.x, tuple(lam * v for v in p.y)), order=6)
    for block, deg in PROPERTY_DEGREES.items():
        got, want = b2.block(block).values, lam**deg * b1.block(block).values
        assert rel_err(got, want, floor=1e-3) <= 1e-10, (block, name, seed, lam)


# --- the reversed metric F~(x, y) = F(x, -y) ---

#: sign of each block of F~ at y against F's at -y: (-1)^(its y-degree parity)
REVERSED_SIGNS = {"g": 1, "C": -1, "B": -1, "R1": 1, "L": 1, "Sigma": 1}


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_reversed_metric_tensors(corpus, name):
    """F~(x, y) = F(x, -y) is a Finsler metric for every F, reversible or not.

    Each jet coefficient of F~ at (x, y) is F's at (x, -y) times (-1) to its
    y-order, and the tower's arithmetic commutes with negation, so g~(y) =
    g(-y), C~ = -C(-y), G~ = G(-y), N~ = -N(-y), Gamma~ = Gamma(-y), B~ =
    -B(-y), R~ = R(-y), L~ = L(-y), Sigma~ = Sigma(-y) and K~(x, y, u) =
    K(x, -y, u) hold exactly.  The oracle cannot see a term dropped from a
    formula if the term has a consistent parity: it is dropped on both sides.
    """
    m = corpus[name]
    rev = dataclasses.replace(m, _fn=lambda x, y, fn=m._fn: fn(x, [-v for v in y]))
    rng = np.random.default_rng(29)
    for p in analysis.sample_states(m, 2, seed=23):
        q = PointState(p.x, tuple(-v for v in p.y))
        b, r = curvature_bundle(rev, p, order=6), curvature_bundle(m, q, order=6)
        for block, sign in REVERSED_SIGNS.items():
            assert np.array_equal(b.block(block).values, sign * r.block(block).values), block
        assert np.array_equal(b.spray.G, r.spray.G)
        assert np.array_equal(b.spray.N, -r.spray.N)
        assert np.array_equal(b.spray.Gamma, r.spray.Gamma)
        u = rng.normal(size=m.n)
        assert flag_curvature(rev, p, u, scope=b.scope) == flag_curvature(m, q, u, scope=r.scope)


# --- cross-route identities on a non-trivial metric ---

@pytest.mark.parametrize("name", ["randers3x", "funk2", "funk2-drift", "abq3"])
def test_bundle_diagnostics_clean(name):
    m = metrics.build_metric(metrics.builtin(name))
    rng = np.random.default_rng(13)
    x = 0.35 * m.chart.sample_radius * rng.uniform(-1, 1, size=m.n)
    y = rng.normal(size=m.n)
    b = curvature_bundle(m, PointState(tuple(x), tuple(y)), order=7)
    for key, value in b.diagnostics.items():
        assert value is not None and value < 1e-10, (key, value)


def test_landsberg_routes_agree_api(funk2):
    # L and J take the spray and trace routes; the bundle's diagnostics check
    # them against C_{|s}y^s and I_{|s}y^s
    sc = point_scope(funk2, PointState((0.1, 0.4), (-0.3, 1.1)), 5)
    L, J = sc.values(BLOCKS["L"]), sc.values(BLOCKS["J"])
    assert rel_err(L, sc.values("L_C")) < 1e-10
    assert rel_err(J, sc.values("J_I")) < 1e-10
    assert rel_err(J, np.einsum("kl,ikl->i", sc.values("ginv0"), L)) < 1e-11


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_bundle_blocks_are_scope_values(corpus, name):
    # each block is the value of the field BLOCKS names, bit for bit, read
    # from a scope of its own
    m = corpus[name]
    p = analysis.sample_states(m, 1, seed=37)[0]
    b, sc = curvature_bundle(m, p), point_scope(m, p, 7)
    assert list(b.blocks) == list(BLOCKS)
    for block, field in BLOCKS.items():
        got, want = b.block(block).values, sc.values(field)
        assert np.array_equal(got, want), block
        assert np.array_equal(np.signbit(got), np.signbit(want)), block
        assert b.block(block).valence == VALENCE[field], block
    assert all(np.array_equal(getattr(b.spray, k), sc.values(k)) for k in ("G", "N", "Gamma"))


def test_metric_compatibility_defect(funk2, funk2_bundle):
    """Berwald-horizontal derivative of g equals -2L (the Landsberg defect)."""
    b = funk2_bundle
    gh = b.scope.hderiv(b.scope.field("g"), VALENCE["g"])[..., 0]
    assert rel_err(gh, -2.0 * b.block("L").values) < 1e-11


def test_vertical_derivative_of_g_is_cartan(funk2, funk2_bundle):
    b = funk2_bundle
    gv = b.scope.vderiv(b.scope.field("g"))[..., 0]
    assert rel_err(gv, 2.0 * b.block("C").values) < 1e-12


def _hderiv(sc, name):
    return sc.hderiv(sc.field(name), VALENCE[name])[..., 0]


def _vderiv(sc, name):
    return sc.vderiv(sc.field(name))[..., 0]


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_derivatives_without_a_scope_seed_the_ledger_order(corpus, name):
    # a scope seeded at the least order the ledger gives a derivative (the
    # field's depth + 1, and N's and Gamma's if horizontal) reads the values
    # an order-7 scope reads
    m = corpus[name]
    p = analysis.sample_states(m, 1, seed=31)[0]
    deep = point_scope(m, p, 7)
    for field in DERIV_FIELDS:
        least = 1 + DEPTH[field]
        for deriv, order in ((_hderiv, max(least, DEPTH["N"], DEPTH["Gamma"])), (_vderiv, least)):
            got = deriv(point_scope(m, p, max(2, order)), field)
            assert np.array_equal(got, deriv(deep, field)), (field, deriv.__name__)


def test_bianchi_relates_hh_curvature_and_berwald(funk2, funk2_bundle):
    """R_j^i_{kl.m} = B^i_{jml|k} - B^i_{jmk|l}, evaluated entrywise."""
    sc = funk2_bundle.scope
    RhhV = sc.field("RhhV")[..., 0]
    Bh = sc.hderiv(sc.field("B"), ("up", "lo", "lo", "lo"))[..., 0]
    assert RhhV.shape == Bh.shape == (2,) * 5
    rhs = np.einsum("ijmlk->ijklm", Bh) - np.einsum("ijmkl->ijklm", Bh)
    assert rel_residual(RhhV, rhs, floor=1.0) < 1e-10


def test_stretch_antisymmetry_and_y_trace(funk2_bundle):
    S = funk2_bundle.block("Sigma").values
    assert rel_err(S, -np.einsum("ijkl->ijlk", S)) < 1e-12
    y = np.asarray(funk2_bundle.point.y)
    # first two slots carry the Cartan-derivative structure: y kills them
    scale = max(1.0, funk2_bundle.block("Sigma").norm)
    assert np.max(np.abs(np.einsum("i,ijkl->jkl", y, S))) < 1e-10 * scale


# --- guards ---

def test_flag_degenerate(funk2):
    p = PointState((0.2, 0.1), (0.8, 0.5))
    with pytest.raises(DegenerateFlag):
        flag_curvature(funk2, p, (1.6, 1.0))  # parallel to y


def test_scope_order_guards(funk2):
    p = PointState((0.2, 0.1), (0.8, 0.5))
    sc = point_scope(funk2, p, 3)
    with pytest.raises(OrderExceeded):
        flag_curvature(funk2, p, (1.0, 0.0), scope=sc)
    with pytest.raises(OrderExceeded):
        curvature_bundle(funk2, p, scope=sc)
    with pytest.raises(OrderExceeded, match="bundle needs seed order >= 6, got 4"):
        curvature_bundle(funk2, p, order=4)


def test_scope_chart_guard(funk2):
    with pytest.raises(OutOfChart):
        point_scope(funk2, PointState((1.2, 0.0), (1.0, 0.0)), 2)


def test_singular_directions_raise():
    # fields are lazy; the defect surfaces when g is first requested
    m = metrics.build_metric(metrics.builtin("quartic2"))
    sc = point_scope(m, PointState((0.0, 0.0), (1.0, 0.0)), 2)
    with pytest.raises(SingularMetric) as info:
        sc.field("g0")
    assert info.value.min_eigenvalue is not None


def test_spray_values_fast_path(funk2):
    G = spray_values(funk2, (0.3, -0.1), (0.8, 0.5))
    b_G = np.asarray([0.5 * funk2.F((0.3, -0.1), (0.8, 0.5)) * v for v in (0.8, 0.5)])
    assert rel_err(G, b_G) < 1e-13
    G2, N2 = spray_values(funk2, (0.3, -0.1), (0.8, 0.5), with_N=True)
    assert rel_err(G, G2) < 1e-14
    assert N2.shape == (2, 2)


# --- direct spray path against the scope path ---

DIRECT_CORPUS = ("funk2", "funk2-drift", "funk3", "randers3x", "sphere2", "sphere3", "abq3")


@pytest.mark.parametrize("name", DIRECT_CORPUS)
def test_direct_spray_matches_scope(name):
    m = metrics.build_metric(metrics.builtin(name))
    rng = np.random.default_rng(21)
    for _ in range(3):
        x = 0.5 * m.chart.sample_radius * rng.uniform(-1, 1, size=m.n) / np.sqrt(m.n)
        y = rng.normal(size=m.n)
        sc = point_scope(m, PointState(tuple(x), tuple(y)), 4)
        direct = _direct_spray(m, x, y, 2)
        for got, key in zip(direct, ("g0", "G", "N", "Gamma")):
            want = sc.field(key) if key == "g0" else sc.values(key)
            scale = float(np.max(np.abs(want)))
            err = float(np.max(np.abs(got - want)))
            # abq3 is x-independent and its spray is 0: absolute floor
            assert err <= 1e-13 * scale + 1e-15, (key, err, scale)
        G, N = spray_values(m, x, y, with_N=True)
        assert rel_err(G, direct[1]) < 1e-14
        assert rel_err(N, direct[2]) < 1e-14


@pytest.mark.parametrize("name", DIRECT_CORPUS)
def test_direct_spray_G_is_the_same_at_every_depth(name):
    # G reads F^2 coefficients of order <= 2, which a deeper jet holds unchanged
    m = metrics.build_metric(metrics.builtin(name))
    rng = np.random.default_rng(22)
    for _ in range(3):
        x = 0.5 * m.chart.sample_radius * rng.uniform(-1, 1, size=m.n) / np.sqrt(m.n)
        y = rng.normal(size=m.n)
        G = spray_values(m, x, y)
        for depth in (0, 1, 2):
            assert np.array_equal(_direct_spray(m, x, y, depth)[1], G)
        assert np.array_equal(spray_values(m, x, y, with_N=True)[0], G)


def test_direct_spray_singular_metric():
    m = metrics.build_metric(metrics.builtin("quartic2"))
    for depth in (0, 1, 2):
        with pytest.raises(SingularMetric) as info:
            _direct_spray(m, (0.0, 0.0), (1.0, 0.0), depth)
        assert info.value.min_eigenvalue is not None
    with pytest.raises(SingularMetric):
        spray_values(m, (0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("x1,error", [(1.1, SingularMetric), (1.7, DomainError)])
def test_non_finite_metric_values_raise(x1, error):
    # F^2 overflows to inf at x1 = 1.1, so g0 holds inf and NaN; F itself
    # overflows at x1 = 1.7
    m = metrics.build_metric(metrics.MetricSpec.custom(2, "sqrt(abs2(y)) * exp(300*x1^2)"))
    x, y = (x1, 0.0), (1.0, 0.3)
    with np.errstate(all="ignore"):
        with pytest.raises(error):
            point_scope(m, PointState(x, y), 7).values("g0")
        for depth in (0, 1, 2):
            with pytest.raises(error):
                _direct_spray(m, x, y, depth)
        with pytest.raises(error):
            spray_values(m, x, y)


def test_infinite_F_is_singular(funk2):
    huge = dataclasses.replace(funk2, _fn=lambda x, y: 1e300 * 1e10 * funk2.F(x, y))
    with np.errstate(invalid="ignore"):
        with pytest.raises(SingularMetric):
            point_scope(huge, PointState((0.1, 0.0), (1.0, 0.0)), 3).values("F")
        with pytest.raises(SingularMetric):
            spray_values(huge, (0.1, 0.0), (1.0, 0.0))


def test_direct_spray_point_guards(funk2):
    with pytest.raises(OutOfChart):
        spray_values(funk2, (1.2, 0.0), (1.0, 0.0))
    with pytest.raises(OutOfChart):
        _direct_spray(funk2, (0.0, 1.0), (1.0, 0.0), 2)
    with pytest.raises(ShapeMismatch):
        spray_values(funk2, (0.1, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ShapeMismatch):
        spray_values(funk2, (0.1, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ZeroVector):
        spray_values(funk2, (0.1, 0.0), (0.0, 0.0), with_N=True)
    floats_only = dataclasses.replace(funk2, _fn=lambda x, y: 1.0)
    with pytest.raises(BadConfig):
        spray_values(floats_only, (0.1, 0.0), (1.0, 0.0))
    negative = dataclasses.replace(funk2, _fn=lambda x, y: -1.0 * funk2.F(x, y))
    with pytest.raises(SingularMetric):
        spray_values(negative, (0.1, 0.0), (1.0, 0.0))


def test_rel_residual_semantics():
    assert rel_residual(np.zeros(3), np.zeros(3)) == 0.0
    assert rel_residual(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    assert rel_residual(np.array([1e-15]), None, floor=1.0) == pytest.approx(1e-15)
