"""The float spray against its Jet-route oracle, bit for bit.

``curvature.spray_values`` runs F's seed program on one seed block of
coefficients, through the plan kept on the metric's tape for its depth.
``oracles.spray_jets`` seeds ``Jet`` objects, evaluates F through
``metric.F``, forms F^2 as the whole product F * F and reads each partial
at its multi-index.  Both must give the same bits, the sign of zero
included, or raise the same error with the same message.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import metrics
from finslerlab.curvature import _SPRAY_PARTIALS, spray_values
from finslerlab.errors import BadConfig
from finslerlab.expr import Bin, Num

from oracles import rewritten, spray_jets


def outcome(spray, metric, x, y, depth):
    """What a spray call gives: each array's shape and bytes, or the error's type and message."""
    try:
        with np.errstate(all="ignore"):
            out = spray(metric, x, y, depth)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)
    return [(a.shape, a.tobytes()) for a in out]


def assert_same(metric, x, y, depth):
    want = outcome(spray_jets, metric, x, y, depth)
    assert outcome(spray_values, metric, x, y, depth) == want, (metric.label, x, y, depth)


#: fractions of the chart's sample radius: inside, very close to the edge, just past it
_RADII = st.one_of(st.floats(0.0, 1.0), st.floats(-12.0, -1.0).map(lambda k: 1.0 - 10.0**k),
                   st.floats(1.0, 1.05))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(metrics.BUILTIN_NAMES), st.integers(0, 2), _RADII,
       st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_spray_matches_the_jet_route(corpus, name, depth, radius, log_y, bits):
    m = corpus[name]
    rng = np.random.default_rng(bits)
    u, y = rng.standard_normal((2, m.n))
    x = radius * m.chart.sample_radius * u / np.linalg.norm(u)
    assert_same(m, tuple(x), tuple(y * 10.0**log_y / np.linalg.norm(y)), depth)


def _gate_cases(n):
    """(x, y) pairs that each stop at a gate: wrong lengths, a zero y, non-finite entries."""
    x, y = (0.1,) + (0.0,) * (n - 1), (0.6,) + (0.3,) * (n - 1)
    return [
        (x, y + (1.0,)),
        (x + (0.0,), y),
        (x, (0.0,) * n),
        ((math.nan,) + x[1:], y),
        (x, y[:-1] + (math.inf,)),
        (x, y[:-1] + (-math.inf,)),
        ((1.5,) + x[1:], y),
        ((-0.0,) * n, y),
    ]


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_spray_gates_match_the_jet_route(corpus, name):
    m = corpus[name]
    for x, y in _gate_cases(m.n):
        for depth in range(3):
            assert_same(m, x, y, depth)


def test_funk_between_chart_and_unit_ball_matches_the_jet_route(corpus):
    m = corpus["funk2-drift"]
    assert m.chart.radius < 0.9 < 1.0
    for x in ((0.9, 0.0), (0.0, -0.95), (0.8, 0.0)):
        for depth in range(3):
            assert_same(m, x, (1.0, 0.3), depth)


def test_metric_variants_match_the_jet_route(corpus):
    """F constant (no jets), F = inf * F, F = -F, an F that overflows, and
    funk on a chart wider than its domain, where the domain gate comes
    after y's length and a zero y."""
    funk2 = corpus["funk2"]
    variants = [rewritten(funk2, outer=lambda F: Num(1.0)),
                rewritten(funk2, outer=lambda F: Bin("*", Num(math.inf), F)),
                rewritten(funk2, outer=lambda F: Bin("*", Num(-1.0), F)),
                metrics.build_metric(metrics.MetricSpec.custom(2, "sqrt(abs2(y)) * exp(300*x1^2)")),
                dataclasses.replace(funk2, chart=metrics.Chart())]
    for m in variants:
        for x in ((0.1, 0.0), (1.1, 0.0), (1.7, 0.0)):
            for y in ((1.0, 0.3), (0.0, 0.0), (1.0, 0.3, 0.2)):
                for depth in range(3):
                    assert_same(m, x, y, depth)


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_spray_partials_are_c_contiguous(corpus, name):
    """A matmul on a strided view may sum in another order than on a
    contiguous block and move the last bit, so every partial block the
    spray reads must be C-contiguous."""
    m = corpus[name]
    x, y = (0.1,) + (0.0,) * (m.n - 1), (0.6,) + (0.3,) * (m.n - 1)
    for depth in range(3):
        spray_values(m, x, y, depth)
        plan = m.tape.plans[depth]
        blocks = plan.partials(m.F_seeded(plan.program, x, y))
        assert len(blocks) == len(_SPRAY_PARTIALS[: 3 + 2 * depth])
        for pattern, block in zip(_SPRAY_PARTIALS, blocks):
            assert block.shape == (m.n,) * len(pattern), (pattern, block.shape)
            assert block.flags.c_contiguous, (pattern, block.strides)


@pytest.mark.parametrize("depth", [3, -1, 1.5, 1.0, True, "1", None])
def test_spray_depth_is_0_1_or_2(corpus, depth):
    with pytest.raises(BadConfig, match="spray depth must be 0, 1 or 2"):
        spray_values(corpus["funk2"], (0.1, 0.0), (1.0, 0.3), depth)


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_rewriting_nothing_gives_the_same_tape(corpus, name):
    """The oracle's formula rebuilt from a tape compiles back to that tape."""
    m = corpus[name]
    t, same = m.tape, rewritten(m).tape
    assert (same.n, same.init, same.ops, same.out) == (t.n, t.init, t.ops, t.out)
