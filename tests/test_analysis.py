"""Scalar fits, the 2-D frame, constant-curvature chains, classification.

Oracles used here:
  * The projectively flat ball metric (funk family) has stretch ratio
    c = -1, flag curvature lambda = -1/4, principal scalar derivative
    mu = -1/2, all exactly; every ratio is constant over the chart.
  * Randers-type metrics have Cartan torsion proportional to the
    symmetrized I (+) h product: p = 1, q = 0 identically.
  * Synthetic torsion built from the model with a known p must be
    recovered exactly (the fit is linear least squares in one unknown).
  * The conformal sphere chart has lambda = +1 and zero torsion, so
    torsion-dependent quantities degenerate in controlled ways.
  * Locally Minkowski metrics (quartic norm) have mu = 0.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import analysis as an
from finslerlab.curvature import (
    LEDGER,
    FieldScope,
    PointState,
    curvature_bundle,
    flag_curvature,
    point_scope,
)
from finslerlab.errors import (
    BadConfig,
    CrossCheckFailure,
    DimensionError,
    FinslerError,
    NotConstantCurvature,
    RiemannianPoint,
    UndefinedFit,
)
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin
from finslerlab.transport import integrate_geodesic, scalar_flows


@pytest.fixture(scope="module")
def funk2():
    return build_metric(builtin("funk2"))


@pytest.fixture(scope="module")
def funk3():
    return build_metric(builtin("funk3"))


@pytest.fixture(scope="module")
def funk2_geodesic(funk2):
    return integrate_geodesic(funk2, (0.1, -0.2), (0.5, 0.3), 1.2, unit_speed=True)


# --- relative stretch ---


def test_relative_stretch_funk_is_minus_one(funk2, funk3):
    for m in (funk2, funk3):
        fit = an.fit_relative_stretch(m, count=12, seed=3)
        assert abs(fit.c + 1.0) < 1e-8
        assert fit.spread < 1e-10
        assert fit.residual < 1e-10
        assert fit.isotropic()
        assert fit.convention_label == "relatively nonnegative"
        assert fit.raw_sign == "negative"


def test_relative_stretch_single_point(funk2):
    st_ = an.sample_states(funk2, 1, seed=9)[0]
    fit = an.fit_relative_stretch(funk2, st_)
    assert len(fit.c_values) == 1
    assert fit.spread == 0.0
    assert abs(fit.c + 1.0) < 1e-10


def test_relative_stretch_degenerate_raises():
    for name in ("euclidean3", "quartic2", "mink-randers3"):
        m = build_metric(builtin(name))
        with pytest.raises(UndefinedFit):
            an.fit_relative_stretch(m, count=2, seed=0)
        # the pointwise ratio applies the same degeneracy rule
        with pytest.raises(UndefinedFit):
            point_scope(m, an.sample_states(m, 1, 0)[0], 5).values("cratio")


# --- torsion shape (p, q) ---


def test_semi_c_randers_family_p_is_one(funk3):
    for name in ("mink-randers3", "randers3x"):
        m = build_metric(builtin(name))
        for st_ in an.sample_states(m, 4, seed=7):
            fit = an.fit_semi_c_reducible(m, st_)
            assert abs(fit.p - 1.0) < 1e-10
            assert fit.q == 1.0 - fit.p
            assert fit.residual < 1e-12
    for st_ in an.sample_states(funk3, 4, seed=7):
        assert abs(an.fit_semi_c_reducible(funk3, st_).p - 1.0) < 1e-10


def test_semi_c_alpha_beta_metric_fits():
    m = build_metric(builtin("abq3"))
    for st_ in an.sample_states(m, 4, seed=11):
        fit = an.fit_semi_c_reducible(m, st_)
        assert fit.residual < 1e-8
        assert fit.q == 1.0 - fit.p


@settings(max_examples=25, deadline=None)
@given(p0=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_semi_c_recovers_synthetic_weight(p0):
    """A torsion built from the model with weight p0 is recovered exactly."""
    m = build_metric(builtin("mink-randers3"))
    st_ = an.sample_states(m, 1, seed=5)[0]
    sc = point_scope(m, st_, order=3)
    g_inv, h, I = sc.values("g_inv"), sc.values("h"), sc.values("I")
    i2 = float(np.einsum("ij,i,j->", g_inv, I, I))
    X = (
        np.einsum("l,jm->ljm", I, h)
        + np.einsum("j,lm->ljm", I, h)
        + np.einsum("m,jl->ljm", I, h)
    )
    T = np.einsum("l,j,m->ljm", I, I, I) / i2
    C_model = p0 * X / 4.0 + (1.0 - p0) * T
    p, residual, _, _ = an._semi_c_weights(3, g_inv, h, C_model, I)
    assert abs(p - p0) < 1e-9
    assert residual < 1e-9


def test_semi_c_guards(funk2):
    m = build_metric(builtin("sphere3"))
    with pytest.raises(RiemannianPoint):
        an.fit_semi_c_reducible(m, an.sample_states(m, 1, seed=0)[0])
    with pytest.raises(DimensionError):
        an.fit_semi_c_reducible(funk2, an.sample_states(funk2, 1, seed=0)[0])
    sc = point_scope(funk2, an.sample_states(funk2, 1, seed=0)[0], 3)
    with pytest.raises(DimensionError):
        an.fit_semi_c_reducible(funk2, None, sc)


def test_characteristic_constancy_along_geodesics(funk3):
    g = integrate_geodesic(funk3, (0.1, -0.1, 0.2), (0.4, 0.3, -0.2), 1.0)
    res = an.check_characteristic_constancy(funk3, g, samples=9)
    assert res.passed()
    assert res.residuals["variation"] < 1e-10
    m = build_metric(builtin("mink-randers3"))
    g = integrate_geodesic(m, (0.0, 0.0, 0.0), (0.5, 0.2, -0.1), 1.0)
    res = an.check_characteristic_constancy(m, g, samples=7)
    assert res.passed()


# --- 2-D frame and principal scalar ---


def frame_point(metric, seed=13):
    return an.sample_states(metric, 1, seed=seed)[0]


def test_frame_invariants(funk2):
    for name in ("funk2", "quartic2", "sphere2"):
        m = build_metric(builtin(name))
        p = frame_point(m)
        fr = an.berwald_frame(m, p)
        sc = point_scope(m, p, order=2)
        g = sc.values("g")
        assert abs(fr.ell @ g @ fr.ell - 1.0) < 1e-10
        assert abs(fr.m @ g @ fr.m - 1.0) < 1e-10
        assert abs(fr.ell @ g @ fr.m) < 1e-10
        assert fr.ell[0] * fr.m[1] - fr.ell[1] * fr.m[0] > 0
        assert np.max(np.abs(fr.m_low - g @ fr.m)) < 1e-12


def test_frame_reconstructs_cartan(funk2):
    p = frame_point(funk2)
    fr = an.berwald_frame(funk2, p)
    sc = point_scope(funk2, p, order=3)
    C = sc.values("C")
    F = sc.values("F")
    rec = fr.I_scalar / F * np.einsum("i,j,k->ijk", fr.m_low, fr.m_low, fr.m_low)
    assert np.max(np.abs(rec - C)) <= 1e-8 * max(np.max(np.abs(C)), 1.0)
    # mean torsion collapses onto the frame too: I_i = (I/F) m_i
    I = sc.values("I")
    assert np.max(np.abs(I - fr.I_scalar / F * fr.m_low)) < 1e-10


def test_frame_mu_values(funk2):
    fr = an.berwald_frame(funk2, frame_point(funk2), with_mu=True)
    assert abs(fr.mu + 0.5) < 1e-10
    assert an.berwald_frame(funk2, frame_point(funk2)).mu is None
    m = build_metric(builtin("quartic2"))
    fr = an.berwald_frame(m, frame_point(m), with_mu=True)
    assert abs(fr.mu) < 1e-12          # locally Minkowski: I constant along flow
    assert abs(fr.I_scalar) > 1e-3     # ... but torsion itself is not zero


def test_frame_landsberg_from_mu(funk2):
    """L = mu F C with the fitted mu, component by component."""
    p = frame_point(funk2)
    fr = an.berwald_frame(funk2, p, with_mu=True)
    sc = point_scope(funk2, p, order=5)
    L = sc.values("L_C")
    pred = fr.mu * sc.values("F") * sc.values("C")
    assert np.max(np.abs(L - pred)) <= 1e-7 * max(np.max(np.abs(L)), 1.0)


def test_frame_scale_invariance(funk2):
    p = frame_point(funk2)
    p2 = PointState(x=p.x, y=tuple(2.3 * np.asarray(p.y)))
    a = an.berwald_frame(funk2, p, with_mu=True)
    b = an.berwald_frame(funk2, p2, with_mu=True)
    assert abs(a.I_scalar - b.I_scalar) < 1e-12
    assert abs(a.mu - b.mu) < 1e-12
    assert abs(a.I_vert - b.I_vert) < 1e-11


def test_frame_riemannian_mu_raises():
    m = build_metric(builtin("sphere2"))
    p = frame_point(m)
    fr = an.berwald_frame(m, p)            # frame itself is fine
    assert abs(fr.I_scalar) < 1e-12
    with pytest.raises(RiemannianPoint):
        an.berwald_frame(m, p, with_mu=True)
    with pytest.raises(DimensionError):
        an.berwald_frame(build_metric(builtin("sphere3")), p)


def test_principal_scalar_relation_funk(funk2, funk2_geodesic):
    res = an.check_principal_scalar_relation(funk2, funk2_geodesic, samples=9)
    assert res.passed()
    assert res.residuals["relation"] < 1e-10
    assert np.max(np.abs(res.data["mu"] + 0.5)) < 1e-10
    assert np.max(np.abs(res.data["c"] + 1.0)) < 1e-10


def test_principal_scalar_relation_vacuous():
    m = build_metric(builtin("sphere2"))
    g = integrate_geodesic(m, (0.1, 0.0), (0.3, 0.2), 1.0)
    res = an.check_principal_scalar_relation(m, g, samples=5)
    assert res.verdict == "vacuous"
    assert "reason" in res.data


def test_stretch_dichotomy_funk(funk2, funk2_geodesic):
    res = an.check_stretch_dichotomy(funk2, funk2_geodesic, samples=9)
    assert res.passed()
    assert res.residuals["bracket"] < 1e-10
    assert np.max(np.abs(res.data["W"])) < 1e-10          # degenerate branch: W = 0
    assert np.max(np.abs(res.data["c_prime"])) < 1e-10
    assert np.max(np.abs(res.data["lambda"] + 0.25)) < 1e-8


def test_stretch_dichotomy_vacuous():
    m = build_metric(builtin("sphere2"))
    g = integrate_geodesic(m, (0.1, 0.0), (0.3, 0.2), 1.0)
    res = an.check_stretch_dichotomy(m, g, samples=4)
    assert res.verdict == "vacuous"


# --- reads by name: no field is built twice in one scope ---


@pytest.fixture()
def rebuilds(monkeypatch):
    """(field, order, cap) of every build over a field a scope already holds."""
    seen = []
    field = FieldScope.field

    def watched(self, name, order=None, cap=None):
        before = self._built.get(name)
        out = field(self, name, order, cap)
        if before is not None and self._built[name] != before:
            seen.append((name, *self._built[name]))
        return out

    monkeypatch.setattr(FieldScope, "field", watched)
    return seen


FLOWS = ("phidot", "phi", "L_norm", "mu", "p", "c")

#: callers whose scopes read derivatives by name, each at 3 samples
SCOPE_CALLERS = {
    "principal-scalar": lambda m, geo: an.check_principal_scalar_relation(m, geo, samples=3),
    "stretch-dichotomy": lambda m, geo: an.check_stretch_dichotomy(m, geo, samples=3),
    "frame": lambda m, geo: an.berwald_frame(m, PointState(*geo.state(0.4)), with_mu=True),
    "flows": lambda m, geo: scalar_flows(m, geo, quantities=FLOWS, samples=3),
}


@pytest.mark.parametrize("caller", list(SCOPE_CALLERS))
def test_no_field_is_built_twice(funk2, funk2_geodesic, rebuilds, caller):
    # each caller reads a derivative before the values of the same field and
    # reads N and Gamma at order 0, so every field is built once, at its plan
    # or at the order a first derivative reads
    SCOPE_CALLERS[caller](funk2, funk2_geodesic)
    assert rebuilds == []


def test_flows_rebuild_only_phi_listed_before_phidot(funk2, funk2_geodesic, rebuilds):
    phi_first = ("phi", "phidot", "L_norm", "mu", "p", "c")
    flow = scalar_flows(funk2, funk2_geodesic, quantities=phi_first, samples=3)
    assert rebuilds == [("phi", 1, 1)] * 3
    ref = scalar_flows(funk2, funk2_geodesic, quantities=FLOWS, samples=3)
    for q in FLOWS:
        assert np.array_equal(flow.columns[q], ref.columns[q], equal_nan=True), q


# --- the stretch ratio by its two routes ---


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stretch_ratio_routes_agree(name):
    # the cratio field (jet folds) and the fits' numpy sums round
    # differently; they agree to 1e-12 and fail at the same points
    m = build_metric(builtin(name))
    for st in an.sample_states(m, 8, seed=41):
        sc = point_scope(m, st, 5)
        try:
            field = sc.values("cratio")
        except UndefinedFit:
            field = None
        try:
            fitted = an._stretch_ratio_values(sc.values("Sigma"), sc.values("D"), sc.values("F"))[0]
        except UndefinedFit:
            fitted = None
        assert (field is None) == (fitted is None), st
        if field is not None:
            assert abs(field - fitted) <= 1e-12 * max(abs(fitted), 1e-300), st


# --- constant flag curvature chain ---


def test_constant_flag_chain_funk3(funk3):
    res = an.check_constant_flag_chain(funk3, samples=10, seed=5)
    assert res.passed()
    assert abs(res.data["lambda"] + 0.25) < 1e-6
    assert res.data["lambda_spread"] < 1e-10
    for key in (
        "curvature_form",
        "stretch_form",
        "landsberg_torsion",
        "mean_landsberg_torsion",
    ):
        assert res.residuals[key] < 1e-5
    assert np.max(np.abs(res.data["c_values"] + 1.0)) < 1e-8


def test_constant_flag_chain_sphere_skips_torsion():
    m = build_metric(builtin("sphere3"))
    res = an.check_constant_flag_chain(m, samples=5, seed=2)
    assert res.passed()
    assert abs(res.data["lambda"] - 1.0) < 1e-8
    assert "landsberg_torsion" not in res.residuals
    assert res.data["notes"]


def test_constant_flag_chain_rejects_generic():
    m = build_metric(builtin("randers3x"))
    with pytest.raises(NotConstantCurvature):
        an.check_constant_flag_chain(m, samples=4, seed=2)


# --- classification ---


def test_classify_corpus():
    expected = {
        "euclidean2": dict(riemannian=True, berwald=True, landsberg=True),
        "sphere3": dict(riemannian=True, berwald=True, stretch=True),
        "mink-randers3": dict(riemannian=False, berwald=True, landsberg=True,
                              r_quadratic=True),
        "abq3": dict(riemannian=False, berwald=True, weak_berwald=True),
        "randers3x": dict(riemannian=False, berwald=False, landsberg=False,
                          weak_landsberg=False, stretch=False, r_quadratic=False),
        "funk2": dict(riemannian=False, landsberg=False, stretch=False),
    }
    for name, partial in expected.items():
        v = an.classify(build_metric(builtin(name)), samples=5, seed=1)
        assert v.consistent, name
        for flag, want in partial.items():
            assert v.flags[flag] == want, (name, flag, v.residuals[flag])


def test_classify_closure_on_forced_flag(funk2):
    v = an.classify(funk2, samples=3, seed=1, thresholds={"riemannian": 1e9})
    assert v.flags["riemannian"] and v.flags["berwald"] and v.flags["stretch"]
    assert not v.consistent        # raw berwald verdict contradicted the implication


@pytest.mark.parametrize("field", ["C", "B", "L_C", "RhhV"])
def test_classify_refuses_a_nan_norm(funk2, nan_field, field):
    # max(0.0, nan) is 0.0: a NaN norm used to read as a vanishing tensor
    nan_field(field)
    with pytest.raises(CrossCheckFailure, match=field):
        an.classify(funk2, samples=2, seed=1)


def test_classify_summary_mentions_every_flag(funk2):
    text = an.classify(funk2, samples=3, seed=1).summary()
    for name in an.CLASS_FLAGS:
        assert name in text


# --- point-batched scopes ---

#: the seed order and the fields each batched driver reads
BATCHED_READS = {
    "classify": (an._CLASSIFY_ORDER, tuple(an._FLAG_FIELDS.values())),
    "stretch": (an._STRETCH_ORDER, ("Sigma", "D", "F")),
    "chain": (6, an._CHAIN_FIELDS),
}


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(BUILTIN_NAMES), count=st.integers(1, 13),
       seed=st.integers(0, 2**16), driver=st.sampled_from(sorted(BATCHED_READS)))
def test_batched_scope_equals_single_point_scopes(corpus, name, count, seed, driver):
    m = corpus[name]
    order, names = BATCHED_READS[driver]
    states = an.sample_states(m, count, seed)
    batched = FieldScope(m, states, order)
    tables = {f: batched.values(f) for f in names}
    for p, state in enumerate(states):
        single = point_scope(m, state, order)
        for f in names:
            assert tables[f].shape[0] == count
            assert_bitwise(tables[f][p], single.values(f))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_scope_builds_every_field_as_single_points_do(corpus, name):
    # every field and derivative read, or the error of the first point that
    # raises it (frame2, I2 and mu2 choose an axis and a sign per point)
    m = corpus[name]
    states = an.sample_states(m, 3, seed=23)
    batched = FieldScope(m, states, 7)
    singles = [point_scope(m, state, 7) for state in states]

    def read(sc, how, f):
        try:
            return getattr(sc, how)(f)
        except FinslerError as err:
            return type(err), str(err)

    for how, fields in (("values", LEDGER), ("vderiv", ("C", "I2")), ("hderiv", ("C", "I")),
                        ("directional", ("mu2", "cratio", "L_C"))):
        for f in fields:
            got = read(batched, how, f)
            want = [read(sc, how, f) for sc in singles]
            errors = [w for w in want if isinstance(w, tuple)]
            if errors:
                assert got == errors[0], (how, f)
                continue
            for p, w in enumerate(want):
                assert_bitwise(got[p], w)


def test_drivers_build_one_scope_for_all_their_points(funk3, monkeypatch):
    built = []
    init = FieldScope.__init__

    def counted(self, metric, point, order):
        init(self, metric, point, order)
        built.append((len(self.points), order))

    monkeypatch.setattr(FieldScope, "__init__", counted)
    an.classify(funk3, samples=4, seed=1)
    an.fit_relative_stretch(funk3, count=3, seed=1)
    an.check_constant_flag_chain(funk3, samples=2, seed=1)
    assert built == [(4, 7), (3, 5), (2, 6)]


def _raised(call):
    with pytest.raises(FinslerError) as info:
        call()
    return type(info.value), str(info.value)


def _first_ratio(m, state):
    sc = point_scope(m, state, an._STRETCH_ORDER)
    return an._stretch_ratio_values(sc.values("Sigma"), sc.values("D"), sc.values("F"))


def _error_case(case):
    """A driver call that fails, and a call that raises the failure of the
    first point that fails when each point is read from its own scope."""
    if case == "stretch-on-riemannian":
        m = build_metric(builtin("sphere2"))
        return (lambda: an.fit_relative_stretch(m, count=3, seed=2),
                lambda: _first_ratio(m, an.sample_states(m, 3, seed=2)[0]))
    if case == "stretch-later-point-out-of-chart":
        m = build_metric(builtin("funk2"))
        out = PointState((1.2, 0.0), (1.0, 0.0))
        return (lambda: an.fit_relative_stretch(m, points=an.sample_states(m, 2, seed=4) + [out]),
                lambda: point_scope(m, out, an._STRETCH_ORDER))
    # quartic2 is locally Minkowski (R = 0, and D = 0, so the stretch fit is
    # undefined) and g degenerates where y is on an axis: the batched build
    # fails at the last point
    m = build_metric(builtin("quartic2"))
    good, axis = an.sample_states(m, 2, seed=3), PointState((0.0, 0.0), (1.0, 0.0))
    if case == "chain-later-point-singular":
        return (lambda: an.check_constant_flag_chain(m, points=good + [axis]),
                lambda: point_scope(m, axis, 6).values("R1"))
    assert case == "stretch-undefined-before-singular"
    return (lambda: an.fit_relative_stretch(m, points=good + [axis]),
            lambda: _first_ratio(m, good[0]))


@pytest.mark.parametrize("case", ["stretch-on-riemannian", "stretch-later-point-out-of-chart",
                                  "chain-later-point-singular",
                                  "stretch-undefined-before-singular"])
def test_batched_drivers_raise_the_first_failing_points_error(case):
    call, first_failure = _error_case(case)
    assert _raised(call) == _raised(first_failure)


def test_batched_classify_raises_at_the_first_nan_point(funk2, nan_field):
    nan_field("Sigma")
    first = an.sample_states(funk2, 3, seed=1)[0]
    assert _raised(lambda: an.classify(funk2, samples=3, seed=1)) == (
        CrossCheckFailure, f"Sigma norm is nan at x = {first.x}, y = {first.y}")


#: driver calls over no point at all
EMPTY_POINT_SETS = {
    "classify-0": lambda m: an.classify(m, samples=0),
    "classify-negative": lambda m: an.classify(m, samples=-3),
    "stretch-points-empty": lambda m: an.fit_relative_stretch(m, points=[]),
    "stretch-count-0": lambda m: an.fit_relative_stretch(m, count=0),
    "chain-0": lambda m: an.check_constant_flag_chain(m, samples=0),
    "chain-points-empty": lambda m: an.check_constant_flag_chain(m, points=()),
}


@pytest.mark.parametrize("case", sorted(EMPTY_POINT_SETS))
def test_drivers_refuse_an_empty_point_set(funk3, case):
    # classify once flagged Funk Riemannian over no sample, the fit averaged
    # an empty list and the chain took the max of one
    with pytest.raises(BadConfig, match="need at least one point"):
        EMPTY_POINT_SETS[case](funk3)


#: single-point calls, each given a scope and the metric it was made for
SINGLE_POINT_CALLS = {
    "bundle": ("funk3", 7, lambda m, sc: curvature_bundle(m, None, scope=sc)),
    "flag": ("funk3", 7, lambda m, sc: flag_curvature(m, None, (0.0, 1.0, 0.0), scope=sc)),
    "semi_c": ("funk3", 3, lambda m, sc: an.fit_semi_c_reducible(m, None, sc)),
    "frame": ("funk2", 5, lambda m, sc: an.berwald_frame(m, None, sc, with_mu=True)),
}


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("call", sorted(SINGLE_POINT_CALLS))
def test_single_point_calls_refuse_a_multi_point_scope(corpus, call, count):
    # a scope made for a list of points carries a point axis, even for one
    name, order, run = SINGLE_POINT_CALLS[call]
    m = corpus[name]
    scope = FieldScope(m, an.sample_states(m, count, seed=6), order)
    with pytest.raises(BadConfig, match="single-point scope"):
        run(m, scope)
    run(m, point_scope(m, scope.points[0], order))


# --- plumbing ---


def test_sample_states_deterministic_and_in_chart(funk2):
    a = an.sample_states(funk2, 6, seed=4)
    b = an.sample_states(funk2, 6, seed=4)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)
        assert np.linalg.norm(sa.x) < 1.0


def test_results_serialize_to_json(funk2, funk3, funk2_geodesic):
    chain = an.check_constant_flag_chain(funk3, samples=2, seed=5)
    rel = an.check_principal_scalar_relation(funk2, funk2_geodesic, samples=3)
    verdict = an.classify(funk2, samples=2, seed=1)
    for payload in (chain.to_dict(), rel.to_dict(), verdict.to_dict()):
        json.dumps(payload, sort_keys=True)
