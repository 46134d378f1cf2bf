"""Geodesic integration, parallel transport, loop holonomy, scalar flows.

Oracles used here:
  * Euclidean geodesics are straight lines with constant velocity.
  * On the conformal round-sphere chart, the geodesic leaving the origin
    with unit speed along a direction d is x(t) = tan(t/2) d.
  * The projectively flat ball metric (funk family) keeps rays through
    the origin straight, and F(x, xdot) is a first integral of every
    spray; F(x, V) is conserved by nonlinear transport and g_y(V, V) by
    linear transport along geodesics (both hold for arbitrary metrics).
  * Locally Minkowski metrics have a vanishing connection, so every
    transport is the identity and loop defects are exactly zero.
  * Riemannian transport is metric, so both parallelogram channels sit
    at integrator noise; the probe channel of a genuinely stretching
    metric scales like eps^2.
  * The step loop's stage and error sums match the generator folds kept
    in ``oracles``, a transport's length column matches a spray call of
    its own at each node, the spray's inverse matches np.linalg.inv, and
    F_drift, the step gate's maximum, matches F evaluated again at every
    node, all bit for bit.
  * Transports ride the geodesic's steps: each spray depth returns the
    lower depths' fields bit for bit, the depth-1 geodesic is the depth-0
    run of ``oracles.joint_transport`` bit for bit, and a transport ends
    within 1e-9 of that joint (x, y, V) re-integration at tol 1e-13.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from finslerlab import analysis, curvature, transport
from finslerlab.errors import (
    BadConfig,
    ChartExit,
    DomainError,
    OutOfChart,
    ShapeMismatch,
    SingularMetric,
    StepFailure,
    ZeroVector,
)
from finslerlab.metrics import BUILTIN_NAMES, MetricInstance, MetricSpec, build_metric, builtin
from finslerlab.curvature import spray_values
from oracles import F_drift_nodes, dopri_error_fold, dopri_stage_fold, joint_transport, pretty
from test_expr import random_ast
from finslerlab.transport import (
    _A_COLS,
    _B4,
    _B5,
    _E_COL,
    _fold,
    _g_length,
    _integrate,
    _norm,
    _rms,
    integrate_geodesic,
    parallel_transport,
    parallelogram_holonomy,
    scalar_flows,
)


@pytest.fixture(scope="module")
def funk2():
    return build_metric(builtin("funk2"))


@pytest.fixture(scope="module")
def sphere2():
    return build_metric(builtin("sphere2"))


@pytest.fixture(scope="module")
def funk2_geodesic(funk2):
    return integrate_geodesic(funk2, (0.1, -0.2), (0.5, 0.3), 1.2)


# --- geodesics ---


def test_euclid_straight_line():
    m = build_metric(builtin("euclidean2"))
    x0, y0 = np.array([0.3, -1.0]), np.array([0.7, 0.4])
    g = integrate_geodesic(m, x0, y0, 2.5)
    for t in np.linspace(0.0, 2.5, 7):
        x, y = g.state(t)
        assert np.max(np.abs(x - (x0 + t * y0))) < 1e-10
        assert np.max(np.abs(y - y0)) < 1e-10
    assert g.F_drift < 1e-12


def test_rhs_calls_per_accepted_step():
    # z' = (1, t) is integrated exactly by both embedded formulas, so no
    # step is rejected; the last stage of a step is the next step's first
    calls = []

    def rhs(t, z):
        calls.append(t)
        return np.array([1.0, t])

    path = _integrate(rhs, np.zeros(2), 3.0)
    assert len(path.t) > 3
    assert len(calls) == 1 + 6 * (len(path.t) - 1)
    assert np.allclose(path.z[-1], [3.0, 4.5], rtol=1e-14)


def test_node_derivatives_are_rhs_at_nodes(funk2):
    def rhs(_t, z):
        return np.concatenate([z[2:], -2.0 * spray_values(funk2, z[:2], z[2:])[1]])

    path = _integrate(rhs, np.array([0.1, -0.2, 0.5, 0.3]), 1.2)
    for t, z, f in zip(path.t, path.z, path.f):
        assert np.array_equal(f, rhs(t, z))


def test_time_labels_with_pair_span():
    m = build_metric(builtin("euclidean2"))
    g = integrate_geodesic(m, (0.0, 0.0), (1.0, 0.0), (2.0, 3.5))
    assert g.t[0] == 2.0
    assert g.t_final == pytest.approx(3.5)
    x, _ = g.state(2.0)
    assert np.max(np.abs(x)) < 1e-14
    x, _ = g.state(3.5)
    assert x[0] == pytest.approx(1.5, abs=1e-10)


def test_unit_speed_normalization(funk2):
    g = integrate_geodesic(funk2, (0.1, -0.2), (0.5, 0.3), 1.0, unit_speed=True)
    assert g.F0 == 1.0
    x, y = g.state(0.4)
    assert float(funk2.F(tuple(x), tuple(y))) == pytest.approx(1.0, abs=1e-7)


def test_funk_center_ray(funk2):
    d = np.array([0.6, 0.8])
    g = integrate_geodesic(funk2, (0.0, 0.0), d, 1.5)
    for t in np.linspace(0.1, 1.5, 6):
        x, y = g.state(t)
        assert abs(x[0] * d[1] - x[1] * d[0]) < 1e-6   # stays on the ray
        assert abs(y[0] * d[1] - y[1] * d[0]) < 1e-6
    r = np.linalg.norm(g.x, axis=1)
    assert np.all(np.diff(r) > 0)                      # moves outward, stays bounded
    assert r[-1] < 1.0


def test_sphere_chart_great_circle(sphere2):
    d = np.array([1.0, 0.0])
    g = integrate_geodesic(sphere2, (0.0, 0.0), d / 2.0, 1.8)  # F(0, d/2) = 1
    for t in np.linspace(0.0, 1.8, 10):
        x, _ = g.state(t)
        assert np.max(np.abs(x - np.tan(t / 2.0) * d)) < 1e-7
    assert g.F_drift < 1e-7


def test_first_integral_gate(funk2_geodesic):
    assert funk2_geodesic.F_drift < 1e-7


def test_time_reversal(funk2, funk2_geodesic):
    xe, ye = funk2_geodesic.state(1.2)
    back = integrate_geodesic(funk2, xe, ye, -1.2)
    xb, yb = back.state(-1.2)
    assert np.max(np.abs(xb - funk2_geodesic.x[0])) < 1e-6
    assert np.max(np.abs(yb - funk2_geodesic.y[0])) < 1e-6


def test_dense_output_collocation(funk2, funk2_geodesic):
    """The interpolant satisfies xdot = y and ydot = -2G between nodes."""
    h = 1e-4
    for t in np.linspace(0.05, 1.15, 9):
        xp, yp = funk2_geodesic.state(t + h)
        xm, ym = funk2_geodesic.state(t - h)
        x, y = funk2_geodesic.state(t)
        assert np.max(np.abs((xp - xm) / (2 * h) - y)) < 1e-6
        G = spray_values(funk2, x, y)[1]
        assert np.max(np.abs((yp - ym) / (2 * h) + 2 * G)) < 1e-6


def test_chart_exit_reports_time():
    spec = MetricSpec.custom(2, "sqrt(abs2(y))", chart_radius=1.0, label="ball")
    m = build_metric(spec)
    with pytest.raises(ChartExit) as info:
        integrate_geodesic(m, (0.2, 0.0), (1.0, 0.0), 2.0)
    assert info.value.t_exit == pytest.approx(0.8, abs=1e-6)
    partial = info.value.partial
    assert partial is not None
    assert partial.t_final <= 0.8 + 1e-9
    assert np.all(np.linalg.norm(partial.x, axis=1) < 1.0)


def test_integration_errors_carry_the_callers_time(funk2):
    # t_exit and StepFailure.t, and the messages naming them, are t0 + sign * t
    m = build_metric(MetricSpec.custom(2, "sqrt(abs2(y))", chart_radius=1.0, label="ball"))
    with pytest.raises(ChartExit, match=r"at t = 1\.8$") as info:
        integrate_geodesic(m, (0.2, 0.0), (1.0, 0.0), (1.0, 3.0))
    assert info.value.t_exit == pytest.approx(1.8, abs=1e-6)
    with pytest.raises(StepFailure, match=r"at t = -0\.693147 ") as info:
        integrate_geodesic(funk2, (0.5, 0.0), (1.0, 0.0), -5.0)
    assert info.value.t == pytest.approx(-math.log(2.0), abs=1e-5)


def test_step_failure_on_degenerate_ring():
    spec = MetricSpec.custom(
        2, "sqrt(abs2(y)) * (0.5 - abs2(x))", label="degenerate-ring"
    )
    m = build_metric(spec)
    with pytest.raises(StepFailure):
        integrate_geodesic(m, (0.0, 0.0), (1.0, 0.0), 3.0, tol=1e-9)


def test_step_failure_names_its_cause():
    # the degenerate ring's F gate rejects every step: the failure names the
    # F drift, not the error norm the gate forces
    m = build_metric(MetricSpec.custom(2, "sqrt(abs2(y)) * (0.5 - abs2(x))", label="ring"))
    with pytest.raises(StepFailure, match=r"\(relative F drift [0-9.e+-]+ above the gate's 5e-08\)"):
        integrate_geodesic(m, (0.0, 0.0), (1.0, 0.0), 3.0, tol=1e-9)
    # an rhs whose stages disagree by 1e6 at every step size fails the error estimate
    calls = itertools.count()
    with pytest.raises(StepFailure, match=r"at t = 0 \(error norm [0-9.e+-]+\)$"):
        _integrate(lambda t, z: np.array([1e6 * (-1.0) ** next(calls)]), np.array([0.0]), 1.0)


def test_step_size_collapses_where_stages_fail_inside_the_chart():
    # every stage after t = 0 raises, at states the chart holds: no boundary
    # explains it, so the step halves until it collapses
    def rhs(t, z):
        if t > 0.0:
            raise DomainError("not evaluable")
        return np.array([1.0])

    with pytest.raises(StepFailure, match=r"^step size collapsed at t = 0 \(right-hand side"):
        _integrate(rhs, np.array([0.0]), 1.0, inside=lambda z: True)


@pytest.mark.parametrize("invariant", [None, lambda z: 0.0], ids=["no-invariant", "invariant"])
def test_a_step_end_that_is_not_finite_is_rejected(invariant):
    # finite slopes whose stage sums overflow: the error scale is infinite
    # and the error norm 0, so only the finiteness gate rejects the step (the
    # overflowing sums of the inner stages also add inf to -inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepFailure, match=r"\(step end not finite\)$"):
            _integrate(lambda t, z: np.array([1e308]), np.array([0.0]), 200.0, invariant=invariant)


def test_an_invariant_that_raises_fails_the_gate():
    # a defect that cannot be evaluated reads as inf
    def invariant(z):
        if z[0] > 0.0:
            raise DomainError("defect not evaluable")
        return 0.0

    with pytest.raises(StepFailure, match=r"at t = 0 \(relative F drift inf above the gate's 5e-08\)$"):
        _integrate(lambda t, z: np.array([1.0]), np.array([0.0]), 1.0, invariant=invariant)


def test_step_budget_is_exhausted(monkeypatch):
    monkeypatch.setattr(transport, "_MAX_STEPS", 3)
    with pytest.raises(StepFailure, match=r"^step budget exhausted after 3 steps at t = "):
        _integrate(lambda t, z: np.array([1.0]), np.array([0.0]), 1.0)


def test_geodesic_guards(funk2):
    with pytest.raises(BadConfig):
        integrate_geodesic(funk2, (0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ZeroVector):
        integrate_geodesic(funk2, (0.0, 0.0), (0.0, 0.0), 1.0)
    with pytest.raises(OutOfChart):
        integrate_geodesic(funk2, (1.2, 0.0), (1.0, 0.0), 1.0)
    with pytest.raises(ShapeMismatch):
        integrate_geodesic(funk2, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0)
    for span in (float("nan"), -math.inf, (0.0, float("nan")), (math.inf, 1.0)):
        with pytest.raises(BadConfig):
            integrate_geodesic(funk2, (0.1, 0.0), (1.0, 0.3), span)


# --- parallel transport ---


def test_transport_euclid_identity():
    m = build_metric(builtin("euclidean2"))
    g = integrate_geodesic(m, (0.0, 0.0), (1.0, 0.2), 2.0)
    for mode in ("linear", "nonlinear"):
        res = parallel_transport(m, g, (0.3, -0.5), mode=mode)
        assert np.max(np.abs(res.V - np.array([0.3, -0.5]))) < 1e-10
        assert res.length_drift < 1e-12


def test_transport_linear_is_linear(funk2, funk2_geodesic):
    u, v = np.array([0.3, 0.7]), np.array([-0.5, 0.2])
    a, b = 1.3, -0.6
    Tu = parallel_transport(funk2, funk2_geodesic, u).V[-1]
    Tv = parallel_transport(funk2, funk2_geodesic, v).V[-1]
    Tw = parallel_transport(funk2, funk2_geodesic, a * u + b * v).V[-1]
    assert np.max(np.abs(Tw - (a * Tu + b * Tv))) < 1e-9


def test_transport_riemannian_modes_agree(sphere2):
    g = integrate_geodesic(sphere2, (0.1, 0.0), (0.3, 0.2), 1.0)
    lin = parallel_transport(sphere2, g, (0.4, -0.1), mode="linear")
    non = parallel_transport(sphere2, g, (0.4, -0.1), mode="nonlinear")
    assert np.max(np.abs(lin.V[-1] - non.V[-1])) < 1e-9
    assert lin.length_drift < 1e-8      # metric transport
    assert non.length_drift < 1e-8


def test_transport_funk_modes_differ(funk2, funk2_geodesic):
    V0 = (0.3, 0.7)
    lin = parallel_transport(funk2, funk2_geodesic, V0, mode="linear")
    non = parallel_transport(funk2, funk2_geodesic, V0, mode="nonlinear")
    assert np.max(np.abs(lin.V[-1] - non.V[-1])) > 1e-3
    # both invariants hold for every metric: F(x, V) in nonlinear mode,
    # g_y(V, V) in linear mode (L_ijk y^k = 0 kills the metric's h-derivative)
    assert non.length_drift < 1e-8
    assert lin.length_drift < 1e-8


def test_funk_autoparallel_velocity(funk2, funk2_geodesic):
    V0 = funk2_geodesic.y[0]
    for mode in ("linear", "nonlinear"):
        res = parallel_transport(funk2, funk2_geodesic, V0, mode=mode)
        assert np.max(np.abs(res.V - [funk2_geodesic.state(t)[1] for t in res.t])) < 1e-6


def test_transport_guards(funk2, funk2_geodesic):
    with pytest.raises(BadConfig):
        parallel_transport(funk2, funk2_geodesic, (1.0, 0.0), mode="affine")
    with pytest.raises(ZeroVector):
        parallel_transport(funk2, funk2_geodesic, (0.0, 0.0))
    with pytest.raises(ShapeMismatch):
        parallel_transport(funk2, funk2_geodesic, (1.0, 0.0, 0.0))


# --- what one step and one transport compute ---

#: the built-ins whose geodesics and transports the benchmark's dynamics runs
DYNAMICS_BUILTINS = ("funk2", "funk2-drift", "funk3", "randers3x", "sphere2")


def test_stage_and_error_folds_match_the_generator_sums():
    # one reduction down the stage axis is the generator's left fold from
    # +0.0: the same bits, the sign of every zero included; the step's error
    # norm is np.mean's root mean square and each vanishing-vector gate
    # np.linalg.norm, bit for bit
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 2.5, -3.0])
    for trial in range(300):
        dim = int(rng.integers(1, 10))
        k = rng.normal(size=(7, dim)) * 10.0 ** rng.integers(-8, 8, size=(7, dim))
        mask = rng.random((7, dim)) < 0.4
        k[mask] = rng.choice(pool, size=int(mask.sum()))
        if trial % 3 == 0:
            k[:, 0] = -0.0
        for stage in range(1, 7):
            expected = dopri_stage_fold(stage, k[:stage])
            assert _fold(_A_COLS[stage], k[:stage]).tobytes() == expected.tobytes()
        assert _fold(_E_COL, k).tobytes() == dopri_error_fold(_B5, _B4, k).tobytes()
        with np.errstate(over="ignore"):  # the squares of +-1e300
            for q in (*k, k.ravel()):
                assert _same_float(_rms(q), np.sqrt(np.mean(q**2))), q
                assert _same_float(_norm(q), np.linalg.norm(q)), q


@pytest.mark.parametrize("name", DYNAMICS_BUILTINS)
def test_spray_calls_per_integration(name, monkeypatch):
    # the spray calls each integration costs: a geodesic with no rejected
    # step calls at its start and at stages 1-6 of each step, its first stage
    # being the last one's last (FSAL), so 1 + 6 (len(t) - 1) calls, in the
    # order of the stage states it keeps; a nonlinear transport as many, on
    # the geodesic's steps; a linear one none.  Both transports hold the
    # length of V to 1e-6.
    m = build_metric(builtin(name))
    st = analysis.sample_states(m, 1, seed=0)[0]
    spray, calls = curvature.spray_values, []

    def counted(metric, x, y, depth=0):
        calls.append(np.concatenate([x, y]))
        return spray(metric, x, y, depth)

    monkeypatch.setattr(curvature, "spray_values", counted)
    g = integrate_geodesic(m, st.x, st.y, 1.0, unit_speed=True)
    steps = len(g.t) - 1
    stages = [g._stage_z[0, 0], *g._stage_z[:, 1:].reshape(-1, 2 * m.n)]
    assert len(calls) == 1 + 6 * steps
    assert all(np.array_equal(c, s) for c, s in zip(calls, stages))  # no rejected step
    for mode, expected in (("linear", 0), ("nonlinear", 1 + 6 * steps)):
        calls.clear()
        r = parallel_transport(m, g, [1.0] + [0.5] * (m.n - 1), mode=mode)
        assert len(calls) == expected, mode
        assert r.length_drift <= 1e-6, (mode, r.length_drift)


@pytest.mark.parametrize("name", DYNAMICS_BUILTINS)
def test_transport_lengths_are_g_lengths_at_the_nodes(name):
    # the length column reads the g the geodesic kept at each node (linear
    # mode) or that of the transport's own call there (nonlinear mode); a
    # spray call of its own at the node gives the same bits
    m = build_metric(builtin(name))
    st = analysis.sample_states(m, 1, seed=3)[0]
    geodesic = integrate_geodesic(m, st.x, st.y, 0.2, unit_speed=True)
    n = m.n
    for mode in ("linear", "nonlinear"):
        r = parallel_transport(m, geodesic, np.linspace(1.0, -0.5, n), mode=mode)
        assert np.array_equal(r.t, geodesic.t)
        refs = geodesic.y if mode == "linear" else r.V
        expected = [_g_length(m, *node) for node in zip(geodesic.x, refs, r.V)]
        assert len(expected) > 2
        assert r.length.tobytes() == np.array(expected).tobytes(), mode


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.fixture()
def F_counts(monkeypatch):
    """(F calls, path) of every ``_integrate`` run, a ChartExit's partial
    path for one that leaves the chart, counting float F calls."""
    calls, runs = [0], []
    F, integrate = MetricInstance.F, transport._integrate

    def counted_F(self, x, y):
        calls[0] += 1
        return F(self, x, y)

    def integrate_counted(*args, **kwargs):
        before = calls[0]
        try:
            path = integrate(*args, **kwargs)
        except ChartExit as exc:
            runs.append((calls[0] - before, exc.partial))
            raise
        runs.append((calls[0] - before, path))
        return path

    monkeypatch.setattr(MetricInstance, "F", counted_F)
    monkeypatch.setattr(transport, "_integrate", integrate_counted)
    return runs


@pytest.mark.parametrize("name", ["funk2", "randers3x", "funk2-drift"])
def test_F_drift_is_the_gate_maximum(F_counts, name):
    # F_drift is the largest F-gate value over the accepted nodes, node 0
    # included: F evaluated again at every node gives the same bits, and
    # the integration evaluates F once per node, no more
    m = build_metric(builtin(name))
    st = analysis.sample_states(m, 1, seed=3)[0]
    n = m.n
    for unit_speed in (False, True):
        g = integrate_geodesic(m, st.x, st.y, 0.3, unit_speed=unit_speed)
        assert F_counts[-1][0] == len(g.t) > 2
        assert _same_float(g.F_drift, F_drift_nodes(m, g.F0, g.x, g.y))
        for mode in ("linear", "nonlinear"):
            r = parallel_transport(m, g, np.linspace(1.0, -0.5, n), mode=mode)
            count, path = F_counts[-1]
            assert count == len(r.t) > 2
            z = path.z
            assert _same_float(r.F_drift, F_drift_nodes(m, g.F0, z[:, :n], z[:, n : 2 * n]))


def test_chart_exit_partial_carries_the_gate_maximum(F_counts):
    # funk2-drift's chart is smaller than its unit ball, so this geodesic
    # leaves it with F still defined; the partial's F_drift is its nodes'
    m = build_metric(builtin("funk2-drift"))
    for unit_speed in (False, True):
        with pytest.raises(ChartExit) as info:
            integrate_geodesic(m, (0.0, 0.0), (1.0, 0.3), 50.0, unit_speed=unit_speed)
        partial = info.value.partial
        assert F_counts[-1][0] == len(partial.t) > 2
        assert partial.F_drift > 0.0
        assert _same_float(partial.F_drift, F_drift_nodes(m, partial.F0, partial.x, partial.y))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_spray_inverse_is_np_linalg_inv_near_the_gate(monkeypatch, scale):
    # a = scale [[1, 1 - d], [1 - d, 1]] has least eigenvalue scale * d; ratio
    # r = scale * d / (1e-12 max(1, scale)) straddles the positive-definite gate
    ratios = []

    def inv(g, signature):
        with np.errstate(all="raise"):
            out = _umath_linalg.inv(g, signature=signature)
        assert out.tobytes() == np.linalg.inv(g).tobytes()
        ratios.append(np.linalg.eigvalsh(g)[0] / (1e-12 * max(1.0, np.max(np.abs(g)))))
        return out

    monkeypatch.setattr(curvature, "_umath_linalg", SimpleNamespace(inv=inv))
    bar = 1e-12 * max(1.0, scale) / scale
    for r in (0.5, 0.9, 1.1, 1.5, 3.0, 10.0, 1e3, 1e6):
        d = r * bar
        a = [[scale, scale * (1.0 - d)], [scale * (1.0 - d), scale]]
        m = build_metric(MetricSpec(n=2, family="riemannian", a=a))
        for y in ((1.0, -1.0), (0.3, 0.7)):
            try:
                for depth in (0, 1, 2):
                    spray_values(m, (0.1, -0.2), y, depth)
            except SingularMetric:
                assert r < 1.0
            else:
                assert r > 1.0
    assert 1.0 < min(ratios) < 2.0


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_transport_spray_calls_per_rhs_call(monkeypatch, funk2, funk2_geodesic, mode):
    # linear mode reads the N the geodesic kept; nonlinear mode makes one
    # call per stage, the first stage of a step being the last one's last;
    # the length column makes none
    calls = [0]
    counted = curvature.spray_values

    def spray(*args):
        calls[0] += 1
        return counted(*args)

    monkeypatch.setattr(curvature, "spray_values", spray)
    r = parallel_transport(funk2, funk2_geodesic, (0.2, 1.0), mode=mode)
    steps = len(r.t) - 1
    assert steps > 2
    assert calls[0] == (0 if mode == "linear" else 1 + 6 * steps)


# --- transports ride the geodesic's steps ---


def _random_custom_metrics(count):
    """``count`` custom metrics |y| + T/20, T a random tree of test_expr's
    builder, on 2 or 3 dimensions; the perturbation keeps most draws
    positive definite, and a draw that cannot be built is skipped."""
    out, seed = [], 0
    while len(out) < count:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        text = f"sqrt(abs2(y)) + ({pretty(random_ast(rng, n=n))})/20"
        seed += 1
        try:
            out.append(build_metric(MetricSpec.custom(
                n, text, constants={"k": 0.75, "a": [0.3, -1.5, 0.2][:n]}, label=text)))
        except Exception:  # noqa: BLE001 - skip a tree that does not compile
            continue
    return out


def _same_arrays(a, b):
    return len(a) == len(b) and all(u.tobytes() == v.tobytes() for u, v in zip(a, b))


def test_spray_depths_agree_bit_for_bit():
    # the geodesic reads G at depth 1 and linear transport its N: every
    # field a lower depth returns, a higher one returns with the same bits
    compared, tapes = 0, 0
    metrics = [build_metric(builtin(name)) for name in BUILTIN_NAMES]
    with np.errstate(all="ignore"):
        for i, m in enumerate(metrics + _random_custom_metrics(24)):
            seen = 0
            for st in analysis.sample_states(m, 4, seed=i):
                try:
                    d0, d1, d2 = (spray_values(m, st.x, st.y, d) for d in (0, 1, 2))
                except Exception:  # noqa: BLE001 - skip a state that raises
                    continue
                assert _same_arrays(d1[:2], d0), (m.label, st)
                assert _same_arrays(d2[:3], d1), (m.label, st)
                seen += 1
            compared += seen
            tapes += i >= len(metrics) and seen > 0
    assert tapes >= 20
    assert compared >= 4 * len(metrics) + 40


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_geodesic_is_the_depth_0_run(name):
    # a right-hand side at depth 1 gives the depth-0 run's nodes and F_drift
    m = build_metric(builtin(name))
    st = analysis.sample_states(m, 1, seed=3)[0]
    g = integrate_geodesic(m, st.x, st.y, 0.3, unit_speed=True)
    path = joint_transport(m, g)
    n = m.n
    assert _same_arrays(
        [g.t, g.x, g.y, np.float64(g.F_drift)],
        [g.t[0] + path.t, path.z[:, :n], path.z[:, n:], np.float64(path.drift)],
    )


def _rides_as_the_joint_run(m, geodesic, V0, margin=0.0):
    """Both modes keep their g-length to 1e-6 and reach the last node at
    least ``margin`` before the end within 1e-9 relative of the joint
    re-integration at tol 1e-13.  A ChartExit's partial walks onto the
    boundary in ever shorter steps, which a run at another tolerance may
    cross first, so it is compared a margin before its end."""
    n, elapsed = m.n, geodesic._path.t
    node = int(np.searchsorted(elapsed, elapsed[-1] - margin, side="right")) - 1
    assert node >= len(elapsed) // 2
    for mode in ("linear", "nonlinear"):
        r = parallel_transport(m, geodesic, V0, mode=mode)
        ref = joint_transport(m, geodesic, V0, mode, tol=1e-13, node=node).z[-1, 2 * n :]
        assert np.max(np.abs(r.V[node] - ref)) <= 1e-9 * np.max(np.abs(ref)), mode
        assert r.length_drift <= 1e-6, mode


@pytest.mark.parametrize("name", DYNAMICS_BUILTINS)
def test_transport_matches_the_joint_run(name):
    # unit speed over span 1, as the benchmark's dynamics runs them; a
    # geodesic that leaves the chart first is transported up to its exit
    m = build_metric(builtin(name))
    for st in analysis.sample_states(m, 2, seed=3):
        margin = 0.0
        try:
            geodesic = integrate_geodesic(m, st.x, st.y, 1.0, unit_speed=True)
        except ChartExit as exc:
            geodesic, margin = exc.partial, 1e-6
        _rides_as_the_joint_run(m, geodesic, np.linspace(1.0, -0.5, m.n), margin)


def test_transport_matches_the_joint_run_backwards(funk2, funk2_geodesic):
    # back along funk2_geodesic from its end
    geodesic = integrate_geodesic(funk2, funk2_geodesic.x[-1], funk2_geodesic.y[-1], -1.2)
    assert geodesic._sign == -1.0
    _rides_as_the_joint_run(funk2, geodesic, (0.3, 0.7))


def test_transport_matches_the_joint_run_on_a_chart_exit_partial():
    m = build_metric(builtin("funk2-drift"))
    with pytest.raises(ChartExit) as info:
        integrate_geodesic(m, (0.0, 0.0), (1.0, 0.3), 50.0)
    partial = info.value.partial
    assert len(partial.t) > 2
    _rides_as_the_joint_run(m, partial, (0.3, 0.7), margin=1e-6)


def test_transport_on_a_partial_of_node_0_alone():
    # a start 1e-13 inside the chart's edge, heading out: the partial has no
    # step, and a transport along it is V0 with V0's length at node 0
    m = build_metric(MetricSpec.custom(2, "sqrt(abs2(y))", chart_radius=1.0, label="ball"))
    with pytest.raises(ChartExit) as info:
        integrate_geodesic(m, (1.0 - 1e-13, 0.0), (1.0, 0.0), 2.0)
    partial = info.value.partial
    assert len(partial.t) == 1
    for mode in ("linear", "nonlinear"):
        r = parallel_transport(m, partial, (0.3, 0.4), mode=mode)
        assert r.V.tolist() == [[0.3, 0.4]]
        assert r.length.tolist() == [0.5] and r.length_drift == 0.0


# --- parallelogram loops ---

EPS = [0.04, 0.08, 0.16]


def test_parallelogram_riemannian_noise_floor(sphere2):
    res = parallelogram_holonomy(
        sphere2, (0.05, 0.1), (1.0, 0.0), (0.0, 1.0), (0.8, 0.3), EPS
    )
    assert np.all(res.delta < 1e-9)
    assert np.all(res.delta_probe < 1e-9)
    # the loop itself is far from closed -- only the lengths are preserved
    assert res.return_defect[-1] > 1e-4


def test_parallelogram_minkowski_identity():
    m = build_metric(builtin("quartic2"))
    res = parallelogram_holonomy(
        m, (0.2, -0.1), (1.0, 0.0), (0.0, 1.0), (0.8, 0.3), EPS
    )
    assert np.all(res.delta < 1e-12)
    assert np.all(res.delta_probe < 1e-12)
    assert np.all(res.return_defect < 1e-12)


def test_parallelogram_funk_probe_scaling(funk2):
    res = parallelogram_holonomy(
        funk2, (0.05, 0.1), (1.0, 0.0), (0.0, 1.0), (0.8, 0.3), EPS
    )
    # conservation channel stays at noise for every metric
    assert np.all(res.delta < 1e-10)
    # probe channel resolves the connection: eps^2 scaling, well above noise
    assert res.delta_probe[-1] > 1e-5
    assert 1.8 < res.exponent_probe < 2.6


def test_parallelogram_swap_leading_order(funk2):
    a = parallelogram_holonomy(
        funk2, (0.05, 0.1), (1.0, 0.0), (0.0, 1.0), (0.8, 0.3), EPS
    )
    b = parallelogram_holonomy(
        funk2, (0.05, 0.1), (0.0, 1.0), (1.0, 0.0), (0.8, 0.3), EPS
    )
    # traversal order only matters at the next order in eps
    assert np.all(np.abs(a.delta_probe - b.delta_probe) < 0.15 * a.delta_probe + 1e-12)


def test_parallelogram_guards(funk2):
    with pytest.raises(BadConfig):
        parallelogram_holonomy(
            funk2, (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.5), EPS
        )
    with pytest.raises(ZeroVector):
        parallelogram_holonomy(funk2, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), EPS)
    # the support u + v starts the probe channel: an overflowing sum is no vector
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BadConfig, match=r"support0 must be finite, got \[inf, 1\.0\]"):
        parallelogram_holonomy(funk2, (0.0, 0.0), (1e308, 0.0), (1e308, 1.0), (0.5, 0.5), EPS)
    with pytest.raises(ChartExit):
        parallelogram_holonomy(
            funk2, (0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), [0.9]
        )
    for eps in ([float("nan")], [0.01, math.inf], [float("nan"), 0.01]):
        with pytest.raises(BadConfig):
            parallelogram_holonomy(funk2, (0.1, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), eps)


def test_loop_independence_is_scale_free(funk2):
    # u and v are each scaled to a largest |component| of 1 before their
    # wedge is measured: tiny or huge edges are judged by their directions
    def inputs(u, v):
        return transport.loop_inputs(funk2, (0.1, 0.0), u, v, (0.8, 0.3), [0.04])

    for u, v in (((1e-8, 0.0), (0.0, 1e-8)), ((1e200, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1e-300))):
        assert np.array_equal(inputs(u, v)[1], u)
    for u, v in (((1e-8, 0.0), (2e-8, 0.0)), ((1e200, 1.0), (1e200, 1.0)), ((0.0, 0.0), (0.0, 1.0)),
                 ((1.0, 0.0), (0.0, 0.0))):
        with pytest.raises(BadConfig, match="^u and v must be linearly independent$"):
            inputs(u, v)


@pytest.mark.parametrize("slot", range(4))
def test_non_finite_dynamics_inputs_raise(slot):
    # on an all-space chart a NaN x0 passes the chart test, and a loop run
    # from it reads zero defects: each vector is gated for finiteness
    m = build_metric(builtin("euclidean2"))
    args = [np.array(v) for v in ((0.1, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5))]
    args[slot][1] = float("nan")
    with pytest.raises(BadConfig):
        parallelogram_holonomy(m, *args, [0.05, 0.1])
    g = integrate_geodesic(m, (0.1, 0.0), (1.0, 0.3), 0.5)
    bad = (float("nan"), 0.0) if slot % 2 else (math.inf, 0.0)
    with pytest.raises(BadConfig):
        integrate_geodesic(m, bad, (1.0, 0.3), 0.5)
    with pytest.raises(BadConfig):
        integrate_geodesic(m, (0.1, 0.0), bad, 0.5)
    with pytest.raises(BadConfig):
        parallel_transport(m, g, bad)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), math.inf, -math.inf])
def test_integrator_tolerance_must_be_finite_and_positive(funk2, tol):
    with pytest.raises(BadConfig, match="tol must be finite and > 0"):
        integrate_geodesic(funk2, (0.1, 0.0), (0.5, 0.3), 0.5, tol=tol)


# --- scalar flows ---


@pytest.mark.parametrize("samples", [0, -3])
def test_scalar_flows_need_a_sample(funk2, samples):
    g = integrate_geodesic(funk2, (0.1, 0.0), (0.5, 0.3), 0.2)
    with pytest.raises(BadConfig, match="samples must be >= 1"):
        scalar_flows(funk2, g, samples=samples)


def test_scalar_flows_riemannian_torsion_free(sphere2):
    g = integrate_geodesic(sphere2, (0.1, 0.0), (0.3, 0.2), 1.0)
    flow = scalar_flows(sphere2, g, quantities=("phi", "L_norm"), samples=9)
    assert flow.status["phi"] == "ok"
    assert np.max(np.abs(flow.columns["phi"])) < 1e-12
    assert np.max(flow.columns["L_norm"]) < 1e-6


def test_scalar_flows_funk_rate_law(funk2, funk2_geodesic):
    flow = scalar_flows(
        funk2,
        funk2_geodesic,
        quantities=("phi", "phidot", "mu", "c"),
        c=-1.0,
        samples=11,
    )
    cols = flow.columns
    assert np.all(cols["phi"] > 0)
    assert np.max(np.abs(cols["mu"] + 0.5)) < 1e-10
    assert np.max(np.abs(cols["c"] + 1.0)) < 1e-10
    # the measured rate law phidot = c F phi, against the doubled variant
    assert np.max(np.abs(cols["flow_resid"])) < 1e-10
    assert np.max(np.abs(cols["flow_resid_doubled"])) > 1e-3


def test_scalar_flows_status_isolation():
    m = build_metric(builtin("funk3"))
    g = integrate_geodesic(m, (0.1, -0.1, 0.2), (0.4, 0.3, -0.2), 1.0)
    flow = scalar_flows(m, g, quantities=("phi", "mu", "p"), samples=7)
    assert flow.status["phi"] == "ok"
    assert flow.status["mu"].startswith("DimensionError")
    assert np.all(np.isnan(flow.columns["mu"]))
    assert flow.status["p"] == "ok"
    assert np.max(np.abs(flow.columns["p"] - 1.0)) < 1e-10


def test_scalar_flows_unknown_quantity(funk2, funk2_geodesic):
    with pytest.raises(BadConfig):
        scalar_flows(funk2, funk2_geodesic, quantities=("curl",))
    # a rate constant that is not finite would fill the residual columns with NaN
    for c in (math.nan, -math.inf):
        with pytest.raises(BadConfig, match="^rate constant c must be finite"):
            scalar_flows(funk2, funk2_geodesic, c=c)
