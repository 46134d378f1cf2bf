"""Metric construction, evaluation, charts, and validation."""

import math
import warnings

import numpy as np
import pytest

from finslerlab import metrics
from finslerlab.curvature import PointState, point_scope
from finslerlab.errors import DivisionByZero, OutOfChart, SingularMetric, SpecError
from finslerlab.metrics import Chart, MetricSpec, build_metric, validate

from oracles import fd_partial, funk_value, rel_err


# --- construction and spec validation ---

def test_euclidean_values():
    m = build_metric(MetricSpec.euclidean(2))
    assert m.F((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    f = m.F((1.0, -2.0), (3.0, 4.0))
    assert f * f == pytest.approx(25.0)


def test_funk_hand_values():
    # x = (0.5, 0), y = (1, 0): disc = 1, so F = (1 + 0.5)/(1 - 0.25) = 2
    m = build_metric(MetricSpec.funk(2))
    assert m.F((0.5, 0.0), (1.0, 0.0)) == pytest.approx(2.0, rel=1e-14)
    # at the center the metric is the Euclidean norm
    assert m.F((0.0, 0.0), (0.6, 0.8)) == pytest.approx(1.0, rel=1e-14)


def test_funk_drift_hand_value():
    m = build_metric(MetricSpec.funk(2, drift=(0.2, 0.0)))
    # same point: (1 + 0.5 + 0.2) / 0.75
    assert m.F((0.5, 0.0), (1.0, 0.0)) == pytest.approx(1.7 / 0.75, rel=1e-14)


def test_funk_matches_oracle():
    rng = np.random.default_rng(7)
    a = (0.1, -0.2)
    m = build_metric(MetricSpec.funk(2, drift=a))
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=2)
        y = rng.uniform(-1, 1, size=2)
        if np.linalg.norm(y) < 1e-3:
            continue
        assert m.F(tuple(x), tuple(y)) == pytest.approx(
            funk_value(a, x, y), rel=1e-13
        )


def test_funk_out_of_chart():
    with pytest.raises(OutOfChart, match=r"^\|x\| = 1\.0198 >= 1$"):
        build_metric(MetricSpec.funk(2)).F((1.0, 0.2), (1.0, 0.0))


def test_funk_domain_gate_is_the_unit_ball_not_the_chart():
    """With a drift the chart is smaller than the unit ball; float F is still
    defined between the two, and the gate rejects |x| >= 1 only."""
    m = build_metric(metrics.builtin("funk2-drift"))
    x = (0.9, 0.0)
    assert not m.chart.contains(x)
    assert isinstance(m.F(x, (0.0, 1.0)), float)
    with pytest.raises(OutOfChart, match=r"^\|x\| = 1\.0000 >= 1$"):
        m.F((1.0, 0.0), (0.0, 1.0))


def test_float_F_takes_numpy_scalars_as_python_floats():
    # Python's error rules whatever the caller passes: no RuntimeWarning and
    # inf, but DivisionByZero; and on finite data the same float as before
    bad = build_metric(MetricSpec.custom(2, "sqrt(abs2(y)) + y1/(1-1)"))
    x, y = np.array([0.1, 0.2]), np.array([0.6, 0.8])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivisionByZero, match="float division by zero"):
            bad.F(tuple(x), tuple(y))
    assert caught == []
    m = build_metric(metrics.builtin("funk3"))
    x, y = np.array([0.1, -0.2, 0.05]), np.array([0.6, 0.8, -0.3])
    got = m.F(tuple(x), tuple(y))
    assert type(got) is float
    assert got == m.F(tuple(map(float, x)), tuple(map(float, y)))


def test_funk_chart_shrinks_with_drift():
    m0 = build_metric(MetricSpec.funk(2))
    m = build_metric(MetricSpec.funk(2, drift=(0.2, 0.0)))
    assert m0.chart.radius == pytest.approx(1.0)
    assert m.chart.radius == pytest.approx(0.8)
    assert m.chart.contains((0.78, 0.0))
    assert not m.chart.contains((0.81, 0.0))


def test_funk_drift_bound():
    with pytest.raises(SpecError):
        build_metric(MetricSpec.funk(2, drift=(1.0, 0.0)))


def test_spec_errors():
    with pytest.raises(SpecError):
        build_metric(MetricSpec(n=2, family="riemannian", a=((1.0, 0.2), (0.3, 1.0))))
    with pytest.raises(SpecError):
        build_metric(MetricSpec(n=3, family="riemannian", a=((1.0,),)))
    with pytest.raises(SpecError):
        build_metric(MetricSpec(n=2, family="nope"))
    with pytest.raises(SpecError):
        build_metric(MetricSpec(n=2, family="custom"))
    with pytest.raises(SpecError):  # coefficient matrix may not depend on y
        build_metric(
            MetricSpec(n=2, family="riemannian", a=(("1 + y1", 0.0), (0.0, 1.0)))
        )
    with pytest.raises(SpecError):  # dimension overflow inside an entry
        build_metric(
            MetricSpec(n=2, family="riemannian", a=(("1 + x3^2", 0.0), (0.0, 1.0)))
        )
    with pytest.raises(SpecError):  # syntax error surfaces as SpecError
        build_metric(MetricSpec.custom(2, "sqrt(abs2(y)"))


@pytest.mark.parametrize(
    "bad",
    [
        {"dimension": "two", "family": "funk"},
        {"dimension": True, "family": "funk"},
        {"dimension": 2.5, "family": "funk"},
        {"dimension": None, "family": "funk"},
        {"dimension": [2], "family": "funk"},
        {"dimension": 2, "family": "funk", "drift": [0.1, "x"]},
        {"dimension": 2, "family": "funk", "drift": 0.1},
        {"dimension": 2, "family": "funk", "drift": [math.nan, 0.0]},
        {"dimension": 2, "family": "funk", "funk_a": [math.inf, 0.0]},
        {"dimension": 2, "family": "funk", "drift": [True, 0.0]},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y))",
         "chart_radius": math.inf},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y))",
         "chart_radius": "wide"},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y))",
         "chart": {"radius": math.nan}},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y))",
         "chart": {"r": 0.5}},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y)) + k*y1",
         "constants": {"k": math.nan}},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y)) + dot(b, y)",
         "constants": {"b": [0.1, math.inf]}},
        {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y))",
         "constants": [1.0]},
        {"dimension": 2, "family": "riemannian", "a": 1.0},
        {"dimension": 2, "family": "riemannian", "a": [[1.0, 0.0], 0.5]},
        {"dimension": 2, "family": "funk", "drift": "0.1"},
        {"dimension": 2, "family": "randers", "a": [[1.0, 0.0], [0.0, 1.0]], "b": 0.1},
    ],
)
def test_spec_coercion_errors(bad):
    with pytest.raises(SpecError):
        MetricSpec.from_dict(bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"dimension": 2, "family": "riemannian", "a": [[math.nan, 0.0], [0.0, 1.0]]},
        {"dimension": 2, "family": "riemannian", "a": [[1.0, 0.0], [0.0, -math.inf]]},
        {"dimension": 2, "family": "riemannian", "a": [[True, 0.0], [0.0, 1.0]]},
        {"dimension": 2, "family": "randers", "a": [[1.0, 0.0], [0.0, 1.0]],
         "b": [math.inf, 0.0]},
        {"dimension": 2, "family": "randers", "a": [[1.0, 0.0], [0.0, 1.0]],
         "b": [0.1, False]},
    ],
)
def test_matrix_entries_must_be_finite_numbers(bad):
    spec = MetricSpec.from_dict(bad)
    with pytest.raises(SpecError):
        build_metric(spec)


def test_spec_integral_dimension_accepted():
    assert MetricSpec.from_dict({"dimension": 2.0, "family": "funk"}).n == 2
    assert MetricSpec.from_dict({"dimension": 3, "family": "funk"}).n == 3


def test_spec_roundtrip():
    for name in ("euclidean2", "sphere3", "randers3x", "funk2-drift", "quartic2"):
        spec = metrics.builtin(name)
        again = MetricSpec.from_dict(spec.to_dict())
        assert again == spec


def test_builtin_unknown():
    with pytest.raises(SpecError):
        metrics.builtin("not-a-metric")


def test_chart_defaults():
    assert Chart().contains((100.0, 100.0))
    assert Chart().sample_radius == 1.0
    ball = Chart("ball", 0.5)
    assert ball.contains((0.3, 0.0)) and not ball.contains((0.5, 0.0))


# --- analytic structure of the evaluators ---

def test_fundamental_from_finite_differences():
    """g_ij = half the y-Hessian of F^2, checked against central differences."""
    m = build_metric(metrics.builtin("randers3x"))
    x = (0.2, -0.1, 0.3)
    y0 = (0.9, 0.4, -0.3)

    def f2(yv):
        f = m.F(x, tuple(yv))
        return f * f

    sc = point_scope(m, PointState(x, y0), 2)
    g, g_inv, h, F = (sc.values(k) for k in ("g0", "ginv0", "h", "F"))
    fd = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            alpha = [0, 0, 0]
            alpha[i] += 1
            alpha[j] += 1
            fd[i, j] = 0.5 * fd_partial(f2, list(y0), tuple(alpha), h=1e-4)
    assert rel_err(g, fd) < 1e-6
    assert rel_err(g_inv @ g, np.eye(3)) < 1e-12
    # h annihilates y and agrees with g on the orthogonal complement
    assert np.max(np.abs(h @ np.asarray(y0))) < 1e-12 * F**2


@pytest.mark.parametrize("name", ["euclidean3", "sphere2", "mink-randers3", "funk2"])
def test_metric_y_contraction(name):
    """g_ij y^i y^j = F^2 (Euler's relation for the 2-homogeneous F^2)."""
    m = build_metric(metrics.builtin(name))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = 0.4 * rng.uniform(-1, 1, size=m.n)
        y = rng.normal(size=m.n)
        sc = point_scope(m, PointState(tuple(x), tuple(y)), 2)
        assert float(y @ sc.values("g0") @ y) == pytest.approx(sc.values("F") ** 2, rel=1e-12)


def test_quartic_axis_singularity():
    """(y1^4 + y2^4)^(1/4) has rank-deficient g on the coordinate axes."""
    m = build_metric(metrics.builtin("quartic2"))
    # off-axis: fine
    point_scope(m, PointState((0.0, 0.0), (0.8, 0.6)), 2).values("g0")
    with pytest.raises(SingularMetric):
        point_scope(m, PointState((0.0, 0.0), (1.0, 1e-9)), 2).values("g0")


# --- validation sweep ---

@pytest.mark.parametrize(
    "name",
    [
        "euclidean2",
        "euclidean3",
        "sphere2",
        "sphere3",
        "mink-randers3",
        "randers3x",
        "funk2",
        "funk3",
        "funk2-drift",
        "abq3",
    ],
)
def test_validate_corpus(name):
    m = build_metric(metrics.builtin(name))
    report = validate(m, samples=40, seed=11)
    assert report.passed, report.failures[:3]
    assert report.homogeneity_max < 1e-12
    assert report.min_eigenvalue > 0


def test_validate_quartic_off_axis():
    # axes are singular but have measure zero; a generic sweep passes
    m = build_metric(metrics.builtin("quartic2"))
    report = validate(m, samples=40, seed=11)
    assert report.passed, report.failures[:3]


def test_validate_rejects_wide_randers():
    """A Randers covector of length > 1 breaks positivity; validate says so."""
    bad = MetricSpec.randers(
        3,
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [1.2, 0.0, 0.0],
        label="too-wide",
    )
    report = validate(build_metric(bad), samples=60, seed=0)
    assert not report.passed
    assert any(
        "F =" in f["problem"] or "eigenvalue" in f["problem"] or "singular" in f["problem"]
        for f in report.failures
    )
    assert report.summary().startswith("too-wide: FAIL")


@pytest.mark.parametrize("b,admissible", [(0.999, True), (1.0, False), (1.5, False)])
def test_validate_randers_at_every_probe_x(b, admissible):
    # a - b b^T = diag(1 - b^2, 1) at every x, whatever the sampled y: with
    # b = 1.5 the 4 probes' y all have F > 0, which the sampled checks pass
    m = build_metric(MetricSpec.randers(2, [[1.0, 0.0], [0.0, 1.0]], [b, 0.0]))
    report = validate(m, samples=4, seed=0)
    assert report.passed is admissible
    problems = [f["problem"] for f in report.failures]
    assert len(problems) == (0 if admissible else 4), problems
    assert all("a - b b^T is not positive definite" in p for p in problems)


def test_validate_report_summary_format():
    m = build_metric(metrics.builtin("euclidean2"))
    s = validate(m, samples=5, seed=1).summary()
    assert "pass" in s and "5 samples" in s


def test_funk_homogeneity_includes_drift():
    m = build_metric(MetricSpec.funk(3, drift=(0.1, 0.2, -0.1)))
    x = (0.2, 0.1, -0.2)
    y = (0.4, -0.7, 0.5)
    for s in (0.5, 2.0, 3.0):
        assert m.F(x, tuple(s * v for v in y)) == pytest.approx(
            s * m.F(x, y), rel=1e-13
        )


def test_constants_in_custom_expression():
    spec = MetricSpec.custom(
        2,
        "sqrt(abs2(y)) + dot(b, y)",
        constants={"b": (0.3, 0.1)},
        label="custom-randers",
    )
    m = build_metric(spec)
    assert m.F((0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.3)
    again = MetricSpec.from_dict(spec.to_dict())
    assert build_metric(again).F((0.0, 0.0), (0.0, 2.0)) == pytest.approx(2.2)
