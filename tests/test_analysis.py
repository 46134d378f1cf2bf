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
from finslerlab.curvature import PointState, point_scope
from finslerlab.errors import (
    CrossCheckFailure,
    DimensionError,
    NotConstantCurvature,
    RiemannianPoint,
    UndefinedFit,
)
from finslerlab.metrics import build_metric, builtin
from finslerlab.transport import integrate_geodesic


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
