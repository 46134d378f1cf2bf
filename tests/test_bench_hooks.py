"""The hooks the benchmark's per-layer tracer wraps must exist, and the
record fields its job digests read.

``perfbench/tracing.py`` wraps package functions by name from outside.  A
hook renamed by a refactor is only listed in the run's ``hooks_missing``,
and its per-layer metrics then read 0, so these tests fail instead.
``perfbench/workloads.py`` reduces each job's result records to a digest;
a field it reads that a refactor removed fails a job of that kind here.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from finslerlab import analysis, curvature, metrics, transport
from finslerlab.curvature import LEDGER, point_scope
from finslerlab.metrics import build_metric, builtin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_every_hook():
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_fields_are_ledger_fields():
    assert set(tracing.FIELDS) <= set(LEDGER)


def test_scope_has_the_cache_the_tracer_reads():
    m = build_metric(builtin("funk2"))
    sc = point_scope(m, analysis.sample_states(m, 1, seed=0)[0], 2)
    assert sc._cache == {}
    sc.values("g0")
    assert "g0" in sc._cache


@pytest.fixture
def spray_depths(monkeypatch):
    """Depths of the calls that reach ``curvature.spray_values`` by that name,
    as the tracer's wrapper sees them."""
    depths = Counter()
    spray_values = curvature.spray_values

    def counted(metric, x, y, depth=0):
        depths[depth] += 1
        return spray_values(metric, x, y, depth)

    monkeypatch.setattr(curvature, "spray_values", counted)
    return depths


def test_dynamics_and_validate_read_the_traced_spray(spray_depths):
    m = build_metric(builtin("funk2"))
    geodesic = transport.integrate_geodesic(m, (0.1, -0.2), (0.5, 0.3), 0.3)
    # depth 1: g, G and N at every stage, kept for transports
    assert set(spray_depths) == {1}
    for mode, depths in (("linear", set()), ("nonlinear", {1})):
        spray_depths.clear()
        transport.parallel_transport(m, geodesic, (0.2, 1.0), mode=mode)
        # linear mode reads the geodesic's N, nonlinear mode N at (x, V);
        # the length column reads g from those and makes no call of its own
        assert set(spray_depths) == depths, mode
    spray_depths.clear()
    transport.parallelogram_holonomy(m, (0.1, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), [0.05])
    # N of the transported vector, N and Gamma at the support, probe lengths
    assert set(spray_depths) == {0, 1, 2}
    spray_depths.clear()
    metrics.validate(m, samples=3)
    assert spray_depths == {0: 3}


#: the job kinds of each in-process workload, as the prefixes of their ids
_JOB_KINDS = {
    "tower": {"bundle", "classify", "fit", "constant-flag", "semi-c"},
    "dynamics": {"geodesic", "transport-linear", "transport-nonlinear", "parallelogram"},
}


@pytest.mark.parametrize("workload", sorted(_JOB_KINDS))
def test_first_job_of_each_kind_passes_its_check(workload):
    # in list order, so a geodesic runs before the transports that ride it
    ms = workloads.build_metrics(workloads.WORKLOAD_METRICS[workload])
    seen = {}
    for job in workloads.make_jobs(workload, 0, ms):
        kind = job.id.split(":")[0]
        if kind not in seen:
            seen[kind] = job.check(job.run())
    assert set(seen) == _JOB_KINDS[workload]
    assert all(problems == [] for problems in seen.values()), seen
