"""No computation of the package builds a ``Jet``.

F's jets come only from the metric's seed programs, run on coefficient
arrays, and every field, series and spray is a coefficient array too; a
``Jet`` is a handle for callers and tests.  With its constructor made to
raise, the whole public stack must run as before.
"""

import pytest

from finslerlab import analysis, metrics
from finslerlab.curvature import curvature_bundle, flag_curvature
from finslerlab.jets import Jet, JetConfig, seed_variables
from finslerlab.transport import (
    _FLOW_QUANTITIES,
    integrate_geodesic,
    parallel_transport,
    parallelogram_holonomy,
    scalar_flows,
)


class JetBuilt(Exception):
    pass


@pytest.fixture
def no_jets(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise JetBuilt("a Jet was built")

    monkeypatch.setattr(Jet, "__init__", forbidden)


def test_the_guard_catches_a_jet(no_jets):
    with pytest.raises(JetBuilt):
        seed_variables((0.1,), (1.0,), JetConfig(n=1, order=2))


def test_pointwise_tower_builds_no_jet(corpus, no_jets):
    funk2, funk3 = corpus["funk2"], corpus["funk3"]
    point = analysis.sample_states(funk3, 1, seed=2)[0]
    bundle = curvature_bundle(funk3, point, order=7)
    assert bundle.blocks["Sigma"].values.shape == (3, 3, 3, 3)
    assert flag_curvature(funk3, point, (0.3, -1.0, 0.5)) == pytest.approx(-0.25, rel=1e-6)
    assert not analysis.classify(funk3, samples=2).flags["riemannian"]
    assert analysis.fit_relative_stretch(funk3, count=2).c == pytest.approx(-1.0, rel=1e-6)
    analysis.check_constant_flag_chain(funk3, samples=2)
    frame = analysis.berwald_frame(funk2, analysis.sample_states(funk2, 1, seed=2)[0], with_mu=True)
    assert frame.mu == pytest.approx(-0.5, rel=1e-6)


def test_dynamics_build_no_jet(corpus, no_jets):
    funk2, funk3 = corpus["funk2"], corpus["funk3"]
    geodesic = integrate_geodesic(funk2, (0.1, -0.2), (0.5, 0.3), 0.3)
    geodesic3 = integrate_geodesic(funk3, (0.1, 0.0, 0.0), (0.5, 0.3, 0.0), 0.3)
    for m, g in ((funk2, geodesic), (funk3, geodesic3)):
        flows = scalar_flows(m, g, quantities=_FLOW_QUANTITIES, c=-1.0, samples=3)
        # a quantity's error is kept in its status, not raised
        assert not any("JetBuilt" in status for status in flows.status.values()), flows.status
        assert flows.status["phi"] == flows.status["c"] == "ok"
    for mode in ("linear", "nonlinear"):
        parallel_transport(funk2, geodesic, (0.2, 1.0), mode=mode)
    parallelogram_holonomy(funk2, (0.1, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), [0.05])
    assert metrics.validate(funk2, samples=3).passed
