"""Curvature tower: oracle comparisons, closed forms, and route checks.

Oracles used here:

* finite-difference Levi-Civita symbols for Riemannian sprays;
* closed forms for the unit-ball metric (projective factor F/2 makes
  G = (F/2) y, L = -(F/2) C, J = -(F/2) I, E = (n+1) h / (4F), and the
  flag curvature the constant -1/4);
* the round-sphere chart with constant flag curvature +1;
* homogeneity degrees under y -> s y, which every block must satisfy.
"""

import argparse
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab import analysis, metrics
from finslerlab.curvature import (
    BLOCKS,
    BUNDLE_IDENTITIES,
    DEPTH,
    HDERIVS,
    IDENTITIES,
    VALENCE,
    FieldScope,
    PointState,
    _clears_gate,
    curvature_bundle,
    flag_curvature,
    least_order,
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
from finslerlab.expr import Bin, Neg, Num
from finslerlab.jets import mul_rows

from oracles import (
    christoffel_fd, identity_rows_loop, neumann_G, neumann_g_inv, rel_err, rewritten,
    sphere_chart_matrix,
)

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


@pytest.mark.parametrize("x,y", [
    ((float("nan"), 0.0), (1.0, 0.0)),
    ((0.1, 0.0), (float("inf"), 0.3)),
    ((0.1, -float("inf")), (1.0, float("nan"))),
])
def test_non_finite_points_raise(corpus, x, y):
    # on an all-space chart a NaN x passes the chart test; the point refuses
    # it, and the float spray's gate raises the error an integrator stage
    # recovers from, before a non-finite seed reaches the jet products
    m = corpus["euclidean2"]
    with pytest.raises(BadConfig):
        point_scope(m, (x, y), 7)
    with pytest.raises(BadConfig):
        curvature_bundle(m, (x, y))
    for name in ("euclidean2", "funk2"):
        for depth in range(3):
            with pytest.raises(DomainError, match="point is not finite"):
                spray_values(corpus[name], x, y, depth)


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


def test_flag_curvature_near_the_pole_keeps_its_digits():
    """A flag 2e-4 rad off y still reads K = 1 on the sphere: the error grows
    like eps/sin(angle), not eps/sin^2 as from the raw Gram determinant."""
    m = metrics.build_metric(metrics.builtin("sphere2"))
    p = PointState((-0.54, 0.23), (0.55, -0.55))
    for t in (2e-4, -1e-3):
        u = (-0.715, 0.715 * (1.0 + t))
        assert flag_curvature(m, p, u) == pytest.approx(1.0, abs=1e-11)


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
@example(name="sphere3", seed=2508, lam=0.2)  # B's round-off, 5e-14, times lam^-1
def test_homogeneity_property(corpus, name, seed, lam):
    """T(x, lam y) = lam^d T(x, y) for every block, built-in and lam > 0.

    Compared in the frame of y, lam^-d T(x, lam y) against T(x, y), relative
    to the larger side, floored at 1e-3 so that a tensor which vanishes
    identically (C, B, L, Sigma of a Riemannian metric) is held to its
    round-off in absolute terms rather than compared with itself.  Scaling
    T(x, y) by lam^d instead would scale that round-off with it, up to 5
    times at lam = 0.2, while the floor stays put.
    """
    m = corpus[name]
    p = analysis.sample_states(m, 1, seed=seed)[0]
    b1 = curvature_bundle(m, p, order=6)
    b2 = curvature_bundle(m, PointState(p.x, tuple(lam * v for v in p.y)), order=6)
    for block, deg in PROPERTY_DEGREES.items():
        got, want = lam**-deg * b2.block(block).values, b1.block(block).values
        assert rel_err(got, want, floor=1e-3) <= 1e-10, (block, name, seed, lam)


# --- the reversed metric F~(x, y) = F(x, -y) ---

#: sign of each block of F~ at y against F's at -y: (-1)^(its y-degree parity)
REVERSED_SIGNS = {"g": 1, "C": -1, "B": -1, "R1": 1, "L": 1, "Sigma": 1}


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    u=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)
def test_reversed_metric_tensors(corpus, name, seed, u):
    """F~(x, y) = F(x, -y) is a Finsler metric for every F, reversible or not.

    Each jet coefficient of F~ at (x, y) is F's at (x, -y) times (-1) to its
    y-order, and the tower's arithmetic commutes with negation, so g~(y) =
    g(-y), C~ = -C(-y), G~ = G(-y), N~ = -N(-y), Gamma~ = Gamma(-y), B~ =
    -B(-y), R~ = R(-y), L~ = L(-y), Sigma~ = Sigma(-y) and K~(x, y, u) =
    K(x, -y, u) hold exactly, at any point and for any flag vector u,
    degenerate flags raising on both sides.  The oracle cannot see a term
    dropped from a formula if the term has a consistent parity: it is
    dropped on both sides.
    """
    m = corpus[name]
    rev = rewritten(m, y=lambda y: [Neg(v) for v in y])
    u = np.array(u[: m.n])
    for p in analysis.sample_states(m, 2, seed=seed):
        q = PointState(p.x, tuple(-v for v in p.y))
        b, r = curvature_bundle(rev, p, order=6), curvature_bundle(m, q, order=6)
        for block, sign in REVERSED_SIGNS.items():
            assert np.array_equal(b.block(block).values, sign * r.block(block).values), block
        assert np.array_equal(b.spray.G, r.spray.G)
        assert np.array_equal(b.spray.N, -r.spray.N)
        assert np.array_equal(b.spray.Gamma, r.spray.Gamma)
        try:
            K = flag_curvature(m, q, u, scope=r.scope)
        except DegenerateFlag:
            with pytest.raises(DegenerateFlag):
                flag_curvature(rev, p, u, scope=b.scope)
            continue
        assert flag_curvature(rev, p, u, scope=b.scope) == K


# --- cross-route identities on a non-trivial metric ---

#: the fields that read G, through N and Gamma too, and those that read g_inv
SPRAY_READERS = ("G", "N", "Gamma", "B", "E", "R1", "Rhh", "RhhV", *HDERIVS)
INVERSE_READERS = ("g_inv", "I", "J_L", "J_I", "phi")


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_spray_solve_matches_the_neumann_route(corpus, monkeypatch, name):
    """G and g_inv solved order by order against the Neumann routes they
    replaced: G = 1/4 g^{-1} b with g^{-1} from the full-order series
    (``oracles.neumann_G``), and g_inv from the growing-order series
    (``oracles.neumann_g_inv``), at seed orders 2-7, in single-point scopes
    and in one 4-point scope, with the derivative of phi along y; Fh and gh
    vanish identically, so the floor of 1 holds them to absolute round-off."""
    m = corpus[name]
    states = analysis.sample_states(m, 4, seed=31)

    def read(order, points):
        sc = FieldScope(m, points, order)
        out = {f: sc.values(f) for f in SPRAY_READERS + INVERSE_READERS if DEPTH[f] <= order}
        if DEPTH["phi"] < order:
            out["phi'"] = sc.directional("phi")
        return out

    for order in range(2, 8):
        for points in (*states[:2], states):
            got = read(order, points)
            with monkeypatch.context() as patch:
                patch.setattr(FieldScope, "_build_G", neumann_G)
                patch.setattr(FieldScope, "_build_g_inv", neumann_g_inv)
                want = read(order, points)
            assert got.keys() == want.keys()
            for f, a in got.items():
                floor = max(1.0, float(np.max(np.abs(a))))
                assert rel_residual(a, want[f], floor=floor) <= 1e-13, (f, order)


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_g_times_g_inv_is_the_identity_jet(corpus, name):
    """g g_inv, folded over the inner slot, is the identity jet through the
    full order, at seed orders 2-7 in one 3-point scope: a check of g^{-1}
    that reads neither the solve's recurrence nor the Neumann series.  The
    floor scales round-off by the largest coefficients of the two factors."""
    m = corpus[name]
    states = analysis.sample_states(m, 3, seed=7)
    for order in range(2, 8):
        sc = FieldScope(m, states, order)
        g, g_inv = sc.field("g"), sc.field("g_inv")
        assert sc._built["g"] == sc._built["g_inv"]
        product = mul_rows(sc._at(*sc._built["g"]), g[:, :, None], g_inv[None]).sum(axis=1)
        eye = np.zeros(product.shape)
        eye[..., 0] = np.eye(sc.n)[..., None]
        floor = max(1.0, float(np.max(np.abs(g)) * np.max(np.abs(g_inv))))
        assert rel_residual(product, eye, floor=floor) <= 1e-13, order


@pytest.mark.parametrize("name", ["randers3x", "funk2", "funk2-drift", "abq3"])
def test_bundle_diagnostics_clean(name):
    m = metrics.build_metric(metrics.builtin(name))
    rng = np.random.default_rng(13)
    x = 0.35 * m.chart.sample_radius * rng.uniform(-1, 1, size=m.n)
    y = rng.normal(size=m.n)
    b = curvature_bundle(m, PointState(tuple(x), tuple(y)), order=7)
    for key, value in b.diagnostics.items():
        assert value is not None and value < 1e-10, (key, value)


@pytest.mark.parametrize("order", [6, 7, 8])
@pytest.mark.parametrize("name", ["funk3", "randers3x"])
def test_bundle_reports_each_identity_its_order_holds(corpus, name, order):
    # every BUNDLE_IDENTITIES entry, None exactly where the seed order cannot
    # hold its reads, and otherwise the inline diagnostics' value bit for bit
    m = corpus[name]
    args = argparse.Namespace(samples=1, seed=5, tol=1e-6)
    want = {check: value for check, _, value, _ in identity_rows_loop(m, args)}
    b = curvature_bundle(m, analysis.sample_states(m, 1, seed=5)[0], order=order)
    assert list(b.diagnostics) == list(BUNDLE_IDENTITIES) == list(IDENTITIES)[:7]
    for key, value in b.diagnostics.items():
        if least_order(IDENTITIES[key][0]) > order:
            assert value is None and key == "stretch_bianchi" and order == 6
        else:
            assert float(value).hex() == want[key].hex(), key


_ENTRIES = st.one_of(st.floats(), st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(_ENTRIES, min_size=k, max_size=k), min_size=2, max_size=2)))
def test_two_route_residual_floor_one_either_way(pair):
    # the floor max(1, max|a|) with a an operand adds nothing to the scale
    # max(|a|, |b|, 1), and a - b = -(b - a) exactly: the bundle's old floor
    # and the identity table's floor 1 give the same bytes, NaN for NaN
    a, b = map(np.array, pair)
    with np.errstate(invalid="ignore", over="ignore"):
        old = rel_residual(a, b, floor=max(1.0, float(np.max(np.abs(a)))))
        new = rel_residual(b, a, floor=1.0)
    assert (math.isnan(old) and math.isnan(new)) or old.hex() == new.hex()


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
    gh = b.scope.hderiv("g")
    assert rel_err(gh, -2.0 * b.block("L").values) < 1e-11


def test_vertical_derivative_of_g_is_cartan(funk2, funk2_bundle):
    b = funk2_bundle
    gv = b.scope.vderiv("g")
    assert rel_err(gv, 2.0 * b.block("C").values) < 1e-12


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
        for deriv, order in (("hderiv", max(least, DEPTH["N"], DEPTH["Gamma"])), ("vderiv", least)):
            got = getattr(point_scope(m, p, max(2, order)), deriv)(field)
            assert np.array_equal(got, getattr(deep, deriv)(field)), (field, deriv)


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_horizontal_derivative_of_ylow_vanishes(corpus, name):
    # y_{i|k} = g_{ij|k} y^j = -2 L_ijk y^j = 0
    m = corpus[name]
    for p in analysis.sample_states(m, 2, seed=41):
        sc = point_scope(m, p, 7)
        scale = max(float(np.max(np.abs(sc.values("g")))), 1.0)
        assert float(np.max(np.abs(sc.hderiv("ylow")))) <= 1e-12 * scale


@pytest.mark.parametrize("name", ("funk2", "randers3x"))
@pytest.mark.parametrize("field", ("ylow", "gv", "RhhV", "D", *HDERIVS))
def test_tensor_fields_read_through_hderiv_and_directional(corpus, name, field):
    # RhhV has values from seed order 7, so its order-1 read needs 8
    m = corpus[name]
    p = analysis.sample_states(m, 1, seed=43)[0]
    sc = point_scope(m, p, 8 if field == "RhhV" else 7)
    shape = np.shape(sc.values(field))
    assert len(VALENCE[field]) == len(shape)
    H = sc.hderiv(field)
    assert H.shape == shape + (m.n,)
    assert rel_err(sc.directional(field), H @ np.asarray(p.y)) < 1e-13


@pytest.mark.parametrize("name", ("funk2", "randers3x"))
def test_listed_valences_follow_field_identities(corpus, name):
    # gv = 2 C, gh = -2 L_C and D = Ch - Ch swapped in (k, l) hold as fields,
    # so their horizontal derivatives agree when every valence is right
    m = corpus[name]
    sc = point_scope(m, analysis.sample_states(m, 1, seed=47)[0], 7)
    assert rel_err(sc.hderiv("gv"), 2.0 * sc.values("Ch")) < 1e-12
    assert rel_err(sc.hderiv("gh"), -2.0 * sc.values("Lh")) < 1e-11
    Chh = sc.hderiv("Ch")
    assert rel_err(sc.hderiv("D"), Chh - Chh.swapaxes(2, 3)) < 1e-12


def test_bianchi_relates_hh_curvature_and_berwald(funk2, funk2_bundle):
    """R_j^i_{kl.m} = B^i_{jml|k} - B^i_{jmk|l}, evaluated entrywise."""
    sc = funk2_bundle.scope
    RhhV = sc.values("RhhV")
    Bh = sc.hderiv("B")
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


@pytest.mark.parametrize("u", [(np.nan, 0.0), (np.inf, 1.0), (0.3, -np.inf)])
def test_flag_vector_must_be_finite(funk2, u):
    with pytest.raises(BadConfig):
        flag_curvature(funk2, PointState((0.2, 0.1), (0.8, 0.5)), u)


def test_flag_with_a_nan_gram_determinant_is_degenerate(funk2, nan_field):
    nan_field("g0")
    with pytest.raises(DegenerateFlag):
        flag_curvature(funk2, PointState((0.2, 0.1), (0.8, 0.5)), (0.1, 1.0))


def test_scope_order_guards(funk2):
    p = PointState((0.2, 0.1), (0.8, 0.5))
    sc = point_scope(funk2, p, 3)
    with pytest.raises(OrderExceeded):
        flag_curvature(funk2, p, (1.0, 0.0), scope=sc)
    with pytest.raises(OrderExceeded):
        curvature_bundle(funk2, p, scope=sc)
    with pytest.raises(OrderExceeded, match="bundle needs seed order >= 6, got 4"):
        curvature_bundle(funk2, p, order=4)


@pytest.mark.parametrize("how,field,jet_order,need", [
    ("values", "RhhV", 0, 7), ("values", "Bh", 0, 6), ("directional", "cratio", 1, 6),
    ("hderiv", "Sigma", 1, 6), ("vderiv", "B", 1, 6),
])
@pytest.mark.parametrize("points", [1, 3])
def test_a_read_the_seed_order_cannot_hold_builds_nothing(corpus, how, field, jet_order, need,
                                                          points):
    # it raises before building a field, and names the field, the jet order
    # read and the least seed order that holds it
    m = corpus["funk3"]
    states = [PointState((0.1 * p, -0.2, 0.1), (0.8, 0.5, -0.3)) for p in range(points)]
    sc = FieldScope(m, states[0] if points == 1 else states, 5)
    message = f"{field} through jet order {jet_order} needs seed order >= {need}, got 5"
    with pytest.raises(OrderExceeded, match=message):
        getattr(sc, how)(field)
    assert sc._cache == {} and sc._built == {}


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
    G = spray_values(funk2, (0.3, -0.1), (0.8, 0.5))[1]
    b_G = np.asarray([0.5 * funk2.F((0.3, -0.1), (0.8, 0.5)) * v for v in (0.8, 0.5)])
    assert rel_err(G, b_G) < 1e-13
    _, G2, N2 = spray_values(funk2, (0.3, -0.1), (0.8, 0.5), 1)
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
        direct = spray_values(m, x, y, 2)
        for got, key in zip(direct, ("g0", "G", "N", "Gamma")):
            want = sc.values(key)
            scale = float(np.max(np.abs(want)))
            err = float(np.max(np.abs(got - want)))
            # abq3 is x-independent and its spray is 0: absolute floor
            assert err <= 1e-13 * scale + 1e-15, (key, err, scale)
        _, G, N = spray_values(m, x, y, 1)
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
        g, G = spray_values(m, x, y)
        for depth in (0, 1, 2):
            out = spray_values(m, x, y, depth)
            assert len(out) == 2 + depth
            assert np.array_equal(out[0], g)
            assert np.array_equal(out[1], G)


def test_direct_spray_singular_metric():
    m = metrics.build_metric(metrics.builtin("quartic2"))
    for depth in (0, 1, 2):
        with pytest.raises(SingularMetric) as info:
            spray_values(m, (0.0, 0.0), (1.0, 0.0), depth)
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
                spray_values(m, x, y, depth)
        with pytest.raises(error):
            spray_values(m, x, y)


def test_infinite_F_is_singular(funk2):
    huge = rewritten(funk2, outer=lambda F: Bin("*", Num(1e300 * 1e10), F))
    with np.errstate(invalid="ignore"):
        with pytest.raises(SingularMetric):
            point_scope(huge, PointState((0.1, 0.0), (1.0, 0.0)), 3).values("F")
        with pytest.raises(SingularMetric):
            spray_values(huge, (0.1, 0.0), (1.0, 0.0))


def test_direct_spray_point_guards(funk2):
    with pytest.raises(OutOfChart):
        spray_values(funk2, (1.2, 0.0), (1.0, 0.0))
    with pytest.raises(OutOfChart):
        spray_values(funk2, (0.0, 1.0), (1.0, 0.0), 2)
    with pytest.raises(ShapeMismatch):
        spray_values(funk2, (0.1, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ShapeMismatch):
        spray_values(funk2, (0.1, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ZeroVector):
        spray_values(funk2, (0.1, 0.0), (0.0, 0.0), 1)
    floats_only = rewritten(funk2, outer=lambda F: Num(1.0))
    with pytest.raises(BadConfig):
        spray_values(floats_only, (0.1, 0.0), (1.0, 0.0))
    negative = rewritten(funk2, outer=lambda F: Bin("*", Num(-1.0), F))
    with pytest.raises(SingularMetric):
        spray_values(negative, (0.1, 0.0), (1.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 24), st.sampled_from((2, 3)))
def test_gershgorin_shortcut_never_passes_what_the_gate_rejects(bits, n):
    """spray_values asks eigvalsh only when Gershgorin's discs do not clear
    g; whatever they clear, the eigenvalue gate passes too."""
    rng = np.random.default_rng(bits)
    A = rng.standard_normal((n, n))
    g = (A @ A.T + np.diag(rng.uniform(-0.5, 2.0, n))) * 10.0 ** rng.integers(-14, 4)
    if rng.integers(0, 4) == 0:
        g[rng.integers(0, n), rng.integers(0, n)] = (np.nan, np.inf, -np.inf)[rng.integers(0, 3)]
    with np.errstate(invalid="ignore"):
        eig = np.linalg.eigvalsh(g)[0] if np.isfinite(g).all() else np.nan
    if _clears_gate(g):
        assert eig > 1e-12 * max(float(np.abs(g).max()), 1.0)


@pytest.mark.parametrize("g,clears", [
    (np.eye(3), True),
    (np.array([[2.0, 0.9], [0.9, 1.0]]), True),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), False),     # singular
    (np.array([[1.0, 0.5], [0.5, -1.0]]), False),
    (np.array([[1e-13, 0.0], [0.0, 1.0]]), False),    # positive, under the gate's margin
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), False),
])
def test_gershgorin_shortcut_cases(g, clears):
    assert _clears_gate(g) is clears


def test_rel_residual_semantics():
    assert rel_residual(np.zeros(3), np.zeros(3)) == 0.0
    assert rel_residual(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    assert rel_residual(np.array([1e-15]), None, floor=1.0) == pytest.approx(1e-15)
