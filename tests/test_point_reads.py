"""One multi-point read path: every driver that reads fields at several
states reads them through ``analysis._point_reads``, one batched scope with a
per-point rerun when the batched build raises.  Each equals its loop over
one single-point scope per sample (``tests/oracles.py``) bit for bit: values,
vacuous verdicts, per-quantity statuses and raised errors.
"""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from finslerlab import analysis as an
from finslerlab import cli
from finslerlab.curvature import (
    BLOCKS,
    FieldScope,
    PointState,
    curvature_bundle,
    flag_curvature,
    least_order,
    point_scope,
)
from finslerlab.errors import BadConfig, FinslerError
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin
from finslerlab.transport import _FLOW_QUANTITIES, integrate_geodesic, scalar_flows

import oracles


def canon(obj):
    """obj with every float as its hex string and every array as its bytes,
    so == compares bit for bit (NaN and -0.0 included)."""
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, canon(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.dtype.str, obj.tobytes()
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


def outcome(fn, *args, **kwargs):
    """canon of what ``fn`` returns, or the type and message of what it raises."""
    try:
        return canon(fn(*args, **kwargs))
    except FinslerError as e:
        return type(e).__name__, str(e)


@pytest.fixture(scope="module")
def geodesics():
    """A short unit-speed geodesic from a seeded state of each built-in."""
    out = {}
    for name in BUILTIN_NAMES:
        m = build_metric(builtin(name))
        st = an.sample_states(m, 1, seed=2, r_range=(0.15, 0.4))[0]
        out[name] = m, integrate_geodesic(m, st.x, st.y, 0.6, unit_speed=True)
    return out


#: (driver, its oracle, keyword arguments)
DRIVERS = {
    "constancy": (an.check_characteristic_constancy, oracles.characteristic_constancy_loop,
                  {"samples": 3}),
    "principal-scalar": (an.check_principal_scalar_relation, oracles.principal_scalar_loop,
                         {"samples": 3}),
    "dichotomy": (an.check_stretch_dichotomy, oracles.stretch_dichotomy_loop, {"samples": 3}),
    "flows": (scalar_flows, oracles.scalar_flows_loop,
              {"samples": 3, "quantities": _FLOW_QUANTITIES}),
    "flows-c": (scalar_flows, oracles.scalar_flows_loop,
                {"samples": 3, "quantities": ("L_norm", "phi", "mu"), "c": -1.0}),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_along_geodesic_drivers_match_their_loops(geodesics, driver, name):
    fn, loop, kwargs = DRIVERS[driver]
    m, geo = geodesics[name]
    got = outcome(fn, m, geo, **kwargs)
    assert got == outcome(loop, m, geo, **kwargs)


def test_batched_fallback_keeps_vacuous_verdicts_and_statuses(geodesics):
    # sphere2 is Riemannian: mu2 raises at every point, so the batched build
    # raises and each point is read in its own scope
    m, geo = geodesics["sphere2"]
    res = an.check_principal_scalar_relation(m, geo, samples=4)
    assert res.verdict == "vacuous"
    assert res.data["t_failed"] == float(geo.t[0])
    assert "principal scalar" in res.data["reason"]
    # the inputs of test_scalar_flows_status_isolation, and p on n = 2
    m3 = build_metric(builtin("funk3"))
    geo3 = integrate_geodesic(m3, (0.1, -0.1, 0.2), (0.4, 0.3, -0.2), 1.0)
    flows = {"funk3": (m3, geo3, ("phi", "mu", "p")), "funk2": (*geodesics["funk2"], ("p", "phi"))}
    for m_, g_, quantities in flows.values():
        got = scalar_flows(m_, g_, quantities=quantities, samples=7)
        assert canon(got) == canon(oracles.scalar_flows_loop(m_, g_, quantities=quantities, samples=7))
    assert got.status["p"].startswith("DimensionError")
    assert got.status["phi"] == "ok"


class _Line:
    """A stand-in geodesic: x0 + t v at velocity v for t in [0, 1]."""

    def __init__(self, x0, v):
        self.t = np.array([0.0, 1.0])
        self.t_final = 1.0
        self.x0, self.v = np.asarray(x0, dtype=float), np.asarray(v, dtype=float)

    def state(self, t):
        return self.x0 + t * self.v, self.v.copy()


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_a_batched_build_that_raises_reads_point_by_point(driver):
    # the last of 4 samples lies outside the funk unit ball, so the batched
    # scope raises OutOfChart; the loop meets it at the last sample
    fn, loop, kwargs = DRIVERS[driver]
    name, x0, v = ("funk3", (0.5, 0.0, 0.1), (0.6, 0.0, 0.0)) if driver == "constancy" else (
        "funk2", (0.5, 0.1), (0.6, 0.0))
    m = build_metric(builtin(name))
    kwargs = {**kwargs, "samples": 4}
    got = outcome(fn, m, _Line(x0, v), **kwargs)
    assert got == outcome(loop, m, _Line(x0, v), **kwargs)
    assert got[0] == "OutOfChart"


def test_point_reads_rerun_raises_the_first_failing_state():
    m = build_metric(builtin("funk2"))
    states = [PointState((0.2, 0.1), (1.0, 0.3)), PointState((0.4, -0.2), (0.2, 1.0)),
              PointState((1.3, 0.0), (1.0, 0.0))]
    keys = ("F", ("directional", "phi"), "C")
    seen = []
    with pytest.raises(FinslerError) as err:
        for st, read in an._point_reads(m, states, keys):
            sc = point_scope(m, st, 5)
            assert [canon(read(k)) for k in keys] == [canon(an._read(sc, k)) for k in keys]
            seen.append(st)
    assert seen == states[:2]
    assert outcome(point_scope, m, states[2], 5) == (type(err.value).__name__, str(err.value))


SUITES = {
    "identities": (cli._SUITE_FNS["identities"], oracles.identity_rows_loop),
    "bianchi": (cli._SUITE_FNS["bianchi"], oracles.bianchi_rows_loop),
    "landsberg-routes": (cli._SUITE_FNS["landsberg-routes"], oracles.landsberg_rows_loop),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("suite", list(SUITES))
def test_cli_suites_match_their_loops(suite, name):
    fn, loop = SUITES[suite]
    m = build_metric(builtin(name))
    args = argparse.Namespace(samples=2, seed=3, tol=1e-6)
    assert outcome(fn, m, args) == outcome(loop, m, args)


@pytest.mark.parametrize("name", ["funk2", "funk3", "sphere2", "sphere3", "quartic2", "abq3"])
def test_report_torsion_fits_match_their_loops(tmp_path, name):
    spec = builtin(name)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "report.json"
    assert cli.main(["report", str(path), "--samples", "2", "--seed", "4", "--out", str(out)]) == 0
    fits = json.loads(out.read_text())["fits"]
    m = build_metric(spec)
    key, entry = oracles.report_torsion_fit_loop(m, an.sample_states(m, 2, 4))
    assert fits[key] == an._json_safe(entry)


#: the four along-geodesic drivers and the least samples each takes
SAMPLERS = {
    "constancy": (an.check_characteristic_constancy, 2),
    "principal-scalar": (an.check_principal_scalar_relation, 1),
    "dichotomy": (an.check_stretch_dichotomy, 1),
    "flows": (scalar_flows, 1),
}


@pytest.mark.parametrize("driver", list(SAMPLERS))
def test_too_few_samples_raise_bad_config(geodesics, driver):
    fn, least = SAMPLERS[driver]
    m, geo = geodesics["funk3" if driver == "constancy" else "funk2"]
    for samples in (-1, 0, least - 1):
        with pytest.raises(BadConfig, match=f"samples must be >= {least}, got {samples}"):
            fn(m, geo, samples=samples)
    fn(m, geo, samples=least)


# --- seed orders ---

#: each operation, the built-in it runs on, the keys it reads and their least
#: seed order; flows on several quantity sets
_SUITE_ARGS = argparse.Namespace(samples=2, seed=3, tol=1e-6)
SCOPE_READS = {
    "classify": (lambda m, g: an.classify(m, samples=2, seed=1), "funk3",
                 ("C", "B", "L_C", "J_I", "E", "Sigma", "RhhV"), 7),
    "stretch": (lambda m, g: an.fit_relative_stretch(m, count=2, seed=1), "funk3",
                ("Sigma", "D", "F"), 5),
    "chain": (lambda m, g: an.check_constant_flag_chain(m, samples=2, seed=1), "funk3",
              ("R1", "F", "ylow", "g", "C", "Rhh", "Sigma", "D", "L_C", "J_I", "I"), 6),
    "constancy": (lambda m, g: an.check_characteristic_constancy(m, g, samples=2), "funk3",
                  ("g_inv", "h", "C", "I"), 3),
    "principal-scalar": (lambda m, g: an.check_principal_scalar_relation(m, g, samples=2),
                         "funk2", (("directional", "mu2"), "cratio", "mu2", "F"), 5),
    "dichotomy": (lambda m, g: an.check_stretch_dichotomy(m, g, samples=2), "funk2",
                  (("directional", "cratio"), "cratio", "F", "R1", "ylow"), 6),
    "flows-F": (lambda m, g: scalar_flows(m, g, quantities=(), samples=2), "funk2", ("F",), 2),
    "flows-p": (lambda m, g: scalar_flows(m, g, quantities=("p",), samples=2), "funk3",
                ("F", "g_inv", "h", "C", "I"), 3),
    "flows-phi": (lambda m, g: scalar_flows(m, g, samples=2), "funk2", ("F", "phi"), 4),
    "flows-mu": (lambda m, g: scalar_flows(m, g, quantities=("mu", "p"), samples=2), "funk2",
                 ("F", "mu2", "g_inv", "h", "C", "I"), 4),
    "flows-c": (lambda m, g: scalar_flows(m, g, quantities=("c", "phi"), samples=2), "funk2",
                ("F", "cratio", "phi"), 5),
    "flows-rate": (lambda m, g: scalar_flows(m, g, quantities=("phi",), c=-1.0, samples=2),
                   "funk2", ("F", "phi", ("directional", "phi")), 5),
    "identities": (lambda m, g: cli._SUITE_FNS["identities"](m, _SUITE_ARGS), "funk2",
                   ("Fh", "F", "C", "L_B", "L_C", "J_L", "J_I", "Rhh", "R1", "Sigma", "ylow",
                    "RhhV"), 7),
    "bianchi": (lambda m, g: cli._SUITE_FNS["bianchi"](m, _SUITE_ARGS), "funk2",
                ("RhhV", "Bh", "ylow", "Sigma"), 7),
    "landsberg-routes": (lambda m, g: cli._SUITE_FNS["landsberg-routes"](m, _SUITE_ARGS), "funk2",
                         ("L_C", "L_B", "J_I", "J_L", "gh", "gv", "C"), 5),
    "bundle": (lambda m, g: curvature_bundle(m, PointState(*g.state(0.2))), "funk2",
               (*BLOCKS.values(), "Fh", "ylow", "RhhV"), 7),
    "flag": (lambda m, g: flag_curvature(m, PointState(*g.state(0.2)), (0.3, 1.0)), "funk2",
             ("g0", "R1"), 4),
    "semi-c": (lambda m, g: an.fit_semi_c_reducible(m, PointState(*g.state(0.2))), "funk3",
               ("g_inv", "h", "C", "I"), 3),
}


@pytest.fixture()
def scope_orders(monkeypatch):
    """The seed order of every FieldScope made from here on, in order."""
    orders = []
    init = FieldScope.__init__

    def recorded(self, metric, point, order):
        init(self, metric, point, order)
        orders.append(order)

    monkeypatch.setattr(FieldScope, "__init__", recorded)
    return orders


@pytest.mark.parametrize("op", list(SCOPE_READS))
def test_every_scope_is_built_at_the_least_order_of_its_reads(geodesics, scope_orders, op):
    call, name, keys, least = SCOPE_READS[op]
    call(*geodesics[name])
    assert least_order(keys) == least
    assert scope_orders == [least]


@pytest.mark.parametrize("name,fit_order", [("funk2", 4), ("funk3", 3)])
def test_report_scopes_are_built_at_the_least_order_of_their_reads(tmp_path, scope_orders,
                                                                   name, fit_order):
    # a bundle (and its flag) per point at the default order 7, then one
    # scope for the stretch fit and one for the torsion fit: the principal
    # scalar's mu2 and I2, or the torsion shape's g_inv, h, C and I
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(builtin(name).to_dict()))
    assert cli.main(["report", str(path), "--samples", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert least_order(("mu2", "I2")) == 4 and least_order(an._SEMI_C_FIELDS) == 3
    assert scope_orders == [7, 7, 5, fit_order]
