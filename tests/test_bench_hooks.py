"""The hooks the benchmark's per-layer tracer wraps must exist.

``perfbench/tracing.py`` wraps package functions by name from outside.  A
hook renamed by a refactor is only listed in the run's ``hooks_missing``,
and its per-layer metrics then read 0, so these tests fail instead.
"""

import sys
from pathlib import Path

from finslerlab import analysis
from finslerlab.curvature import LEDGER, point_scope
from finslerlab.metrics import build_metric, builtin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


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
