"""Command-line interface: exit codes, document shapes, determinism.

Everything runs in-process through ``main(argv)`` so the tests see exit codes
and can capture stdout/stderr without spawning subprocesses.  The emitted JSON
documents are validated against the schemas shipped inside the package, which
keeps the schemas honest.

Exit-code contract exercised here:
  0  success / every check passed
  1  a verification check failed (constant-flag on a non-isotropic metric)
  2  unreadable or malformed spec file (nothing written to --out)
  3  chart violation: sample point outside the chart, or a geodesic that
     actually leaves it (reported with the exit time)
"""

import json
import importlib.resources

import numpy as np
import pytest
import jsonschema

from finslerlab.cli import main
from finslerlab.metrics import builtin, MetricSpec, BUILTIN_NAMES


def _schema(name):
    path = importlib.resources.files("finslerlab").joinpath(f"schemas/{name}")
    return json.loads(path.read_text())


REPORT_SCHEMA = _schema("report.schema.json")
SPEC_SCHEMA = _schema("metric_spec.schema.json")


@pytest.fixture()
def funk2_spec(tmp_path):
    p = tmp_path / "funk2.json"
    p.write_text(json.dumps(builtin("funk2").to_dict()))
    return str(p)


@pytest.fixture()
def funk3_spec(tmp_path):
    p = tmp_path / "funk3.json"
    p.write_text(json.dumps(builtin("funk3").to_dict()))
    return str(p)


@pytest.fixture()
def ball_spec(tmp_path):
    # Euclidean norm restricted to the unit ball: straight lines do exit,
    # unlike the projectively-flat metrics whose geodesics stall at the rim.
    p = tmp_path / "ball.json"
    spec = MetricSpec.custom(2, "sqrt(abs2(y))", chart_radius=1.0)
    p.write_text(json.dumps(spec.to_dict()))
    return str(p)


# --------------------------------------------------------------------------
# report


def test_report_document_shape(funk3_spec, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["report", funk3_spec, "--samples", "4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["kind"] == "report"
    assert doc["seed"] == 3 and doc["order"] == 7
    assert set(doc["tolerances"]) == {"identity", "spread"}
    assert len(doc["points"]) == 4
    for pt in doc["points"]:
        assert set(pt) >= {"x", "y", "F", "norms", "diagnostics", "flag_sample"}
        assert pt["F"] > 0
        assert "tensors" not in pt
        assert pt["norms"]["Sigma"] > 1e-3     # funk is not a stretch metric
        if pt["flag_sample"] is not None:
            assert pt["flag_sample"]["K"] == pytest.approx(-0.25, abs=1e-8)
    fit = doc["fits"]["relative_stretch"]
    assert fit["c"] == pytest.approx(-1.0, abs=1e-8)
    assert fit["spread"] < 1e-8
    assert doc["fits"]["semi_c"]["residual_max"] < 1e-8
    assert "principal_scalar" not in doc["fits"]   # only emitted for n == 2


def test_report_principal_scalar_in_dimension_two(funk2_spec, tmp_path):
    out = tmp_path / "r.json"
    assert main(["report", funk2_spec, "--samples", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    mus = doc["fits"]["principal_scalar"]["mu_values"]
    assert np.allclose(mus, -0.5, atol=1e-8)
    assert "semi_c" not in doc["fits"]       # only emitted for n >= 3


def test_report_full_tensors_flag(funk2_spec, tmp_path):
    out = tmp_path / "full.json"
    rc = main(["report", funk2_spec, "--samples", "1", "--full-tensors",
               "--out", str(out)])
    assert rc == 0
    pt = json.loads(out.read_text())["points"][0]
    tens = pt["tensors"]
    g = np.asarray(tens["g"])
    assert g.shape == (2, 2)
    assert np.allclose(g, g.T)
    assert np.asarray(tens["Sigma"]).shape == (2, 2, 2, 2)


def test_report_points_file(funk2_spec, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [
        {"x": [0.1, 0.2], "y": [0.4, -0.1]},
        {"x": [-0.3, 0.0], "y": [0.2, 0.5]},
    ]}))
    out = tmp_path / "r.json"
    rc = main(["report", funk2_spec, "--points", str(pts), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) == 2
    assert doc["points"][0]["x"] == [0.1, 0.2]


def test_report_is_byte_deterministic(funk3_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["report", funk3_spec, "--samples", "3", "--seed", "11",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_stdout_when_no_out(funk2_spec, capsys):
    assert main(["report", funk2_spec, "--samples", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "report"


# --------------------------------------------------------------------------
# verify


def test_verify_identities_pass(funk3_spec, capsys):
    rc = main(["verify", funk3_spec, "--suite", "identities", "--samples", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identities: PASS" in out
    assert "FAIL" not in out


def test_verify_writes_residual_csv(funk3_spec, tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["verify", funk3_spec, "--suite", "bianchi", "--samples", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,check,point,value,tolerance,verdict"
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[0] == "bianchi" for r in rows)
    assert all(r[5] == "pass" for r in rows)
    assert all(float(r[3]) <= float(r[4]) for r in rows)


def test_verify_constant_flag_rejects_anisotropic(tmp_path, capsys):
    # randers3x has position-dependent flag curvature: the isotropy gate
    # inside the suite must trip and surface as a failed verification.
    p = tmp_path / "r3x.json"
    p.write_text(json.dumps(builtin("randers3x").to_dict()))
    rc = main(["verify", str(p), "--suite", "constant-flag", "--samples", "4"])
    assert rc == 1
    assert capsys.readouterr().err.strip() != ""


def test_verify_alias_suite_matches_primary(funk2_spec, capsys):
    rc = main(["verify", funk2_spec, "--suite", "theorem3", "--samples", "3"])
    alias_out = capsys.readouterr().out
    assert rc == 0
    rc = main(["verify", funk2_spec, "--suite", "principal-scalar",
               "--samples", "3"])
    primary_out = capsys.readouterr().out
    assert rc == 0
    # same rows modulo the suite label column
    strip = lambda s: [ln.split(None, 1)[1] for ln in s.splitlines() if " " in ln]
    assert strip(alias_out)[:-1] == strip(primary_out)[:-1]


def test_verify_flows_suite(funk2_spec, capsys):
    rc = main(["verify", funk2_spec, "--suite", "flows"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "torsion-rate-law" in out
    assert "flows: PASS" in out


def test_verify_all_suites_on_sphere(tmp_path):
    # Riemannian input: torsion-driven checks are vacuous but must not error.
    p = tmp_path / "s2.json"
    p.write_text(json.dumps(builtin("sphere2").to_dict()))
    for suite in ("identities", "bianchi", "landsberg-routes",
                  "constant-flag", "principal-scalar", "flows"):
        assert main(["verify", str(p), "--suite", suite, "--samples", "3"]) == 0


# --------------------------------------------------------------------------
# classify


def test_classify_document(funk3_spec, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["classify", funk3_spec, "--samples", "4", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["kind"] == "classification"
    assert doc["flags"]["riemannian"] is False
    assert doc["flags"]["berwald"] is False
    assert doc["consistent"] is True


def test_classify_riemannian_metric(tmp_path):
    p = tmp_path / "s3.json"
    p.write_text(json.dumps(builtin("sphere3").to_dict()))
    out = tmp_path / "c.json"
    assert main(["classify", str(p), "--samples", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(doc["flags"].values())   # riemannian implies everything


def test_classify_threshold_override(funk3_spec, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["classify", funk3_spec, "--samples", "3",
               "--thresholds", '{"riemannian": 1e9}', "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["flags"]["riemannian"] is True
    assert doc["thresholds"]["riemannian"] == 1e9
    assert doc["consistent"] is False   # forced flag breaks the raw verdicts


def test_classify_nan_norm_exits_1(funk3_spec, tmp_path, nan_field, capsys):
    nan_field("Sigma")
    out = tmp_path / "c.json"
    assert main(["classify", funk3_spec, "--samples", "2", "--out", str(out)]) == 1
    assert "CrossCheckFailure" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# geodesic


def test_geodesic_csv_and_summary(funk2_spec, tmp_path):
    csvp, outp = tmp_path / "g.csv", tmp_path / "g.json"
    rc = main(["geodesic", funk2_spec, "--x0", "0.1,-0.2", "--y0", "0.5,0.3",
               "--t", "1.2", "--flows", "phi,phidot,mu,c", "--c", "-1.0",
               "--samples", "9", "--csv", str(csvp), "--out", str(outp)])
    assert rc == 0
    lines = csvp.read_text().splitlines()
    assert lines[0].split(",")[:6] == ["t", "x1", "x2", "y1", "y2", "F"]
    assert set(lines[0].split(",")) >= {"phi", "phidot", "mu", "c",
                                        "flow_resid", "flow_resid_doubled"}
    assert len(lines) == 10
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    cols = lines[0].split(",")
    assert np.allclose(table[:, cols.index("F")], table[0, cols.index("F")],
                       atol=1e-8)
    assert np.allclose(table[:, cols.index("mu")], -0.5, atol=1e-8)
    assert np.max(np.abs(table[:, cols.index("flow_resid")])) < 1e-8

    doc = json.loads(outp.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["kind"] == "geodesic"
    assert doc["F_drift"] < 1e-9
    assert doc["c_used"] == -1.0
    assert doc["unit_speed"] is False


def test_geodesic_parallelogram_summary(funk2_spec, tmp_path):
    outp = tmp_path / "g.json"
    rc = main(["geodesic", funk2_spec, "--x0", "0.1,-0.2", "--y0", "0.5,0.3",
               "--t", "1.0", "--parallelogram", "1,0;0,1;0.8,0.3;0.04,0.08",
               "--csv", str(tmp_path / "g.csv"), "--out", str(outp)])
    assert rc == 0
    doc = json.loads(outp.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    par = doc["parallelogram"]
    assert par["eps"] == [0.04, 0.08]
    assert max(par["length_defect"]) < 1e-10        # F-channel is exact
    assert par["probe_defect"][-1] > 1e-6           # probe channel is not
    assert 1.5 < par["exponent_probe"] < 2.8


def test_geodesic_csv_to_stdout(funk2_spec, capsys):
    rc = main(["geodesic", funk2_spec, "--x0", "0.1,0.0", "--y0", "0.3,0.2",
               "--t", "0.5", "--samples", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,x1,x2,y1,y2,F"
    assert len(out.splitlines()) == 5


def test_geodesic_time_range(funk2_spec, tmp_path):
    outp = tmp_path / "g.json"
    rc = main(["geodesic", funk2_spec, "--x0", "0.1,0.0", "--y0", "0.3,0.2",
               "--t", "0.2:0.9", "--csv", str(tmp_path / "g.csv"),
               "--out", str(outp)])
    assert rc == 0
    doc = json.loads(outp.read_text())
    assert doc["t_span"] == [0.2, 0.9]
    assert doc["t_final"] == pytest.approx(0.9)


# --------------------------------------------------------------------------
# exit codes and error hygiene


def test_missing_spec_file_exits_2(tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = main(["report", str(tmp_path / "absent.json"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()             # no partial output
    err = capsys.readouterr().err
    assert "absent.json" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"dimension": 2,')
    assert main(["report", str(p)]) == 2
    assert capsys.readouterr().err.strip() != ""


def test_unknown_family_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dimension": 3, "family": "warp"}))
    assert main(["report", str(p)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec",
    [
        {"dimension": "two", "family": "funk"},
        {"dimension": 2.5, "family": "funk"},
        {"dimension": 2, "family": "funk", "drift": [float("nan"), 0.0]},
        # matrix entries; NaN and Infinity are JSON extensions json.loads reads
        {"dimension": 2, "family": "riemannian", "a": [[float("nan"), 0], [0, 1]]},
        {"dimension": 2, "family": "riemannian", "a": [[True, 0], [0, 1]]},
        {"dimension": 2, "family": "randers", "a": [[1, 0], [0, 1]],
         "b": [float("inf"), 0]},
    ],
)
def test_malformed_spec_values_exit_2(spec, tmp_path, capsys):
    p = tmp_path / "values.json"
    p.write_text(json.dumps(spec))
    out = tmp_path / "never.json"
    assert main(["report", str(p), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


NON_FINSLER_ARGS = {
    "report": [],
    "classify": [],
    "verify": ["--suite", "identities"],
    "geodesic": ["--x0", "0.1,0.2", "--y0", "1,0"],
}


@pytest.mark.parametrize("command", list(NON_FINSLER_ARGS))
@pytest.mark.parametrize("expression", ["abs2(y)", "sqrt(abs2(y)) + x1"])
def test_non_finsler_spec_exits_2(command, expression, tmp_path, capsys):
    # abs2(y) is 2-homogeneous and |y| + x1 is not homogeneous at all
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"dimension": 2, "family": "custom", "expression": expression}))
    out = tmp_path / "never.out"
    assert main([command, str(p), *NON_FINSLER_ARGS[command], "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "not a Finsler metric: homogeneity residual" in captured.err


#: passes the CLI probe, but F^2 overflows at x1 = 1.1 and F itself at x1 = 1.7
STEEP_SPEC = {"dimension": 2, "family": "custom", "expression": "sqrt(abs2(y)) * exp(300*x1^2)"}


@pytest.mark.parametrize("x1,error", [(1.1, "SingularMetric"), (1.7, "DomainError")])
def test_non_finite_metric_values_exit_1(x1, error, tmp_path, capsys):
    spec = tmp_path / "steep.json"
    spec.write_text(json.dumps(STEEP_SPEC))
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"x": [x1, 0.0], "y": [1.0, 0.3]}]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["report", str(spec), "--points", str(points)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_specs_pass_the_cli_probe(name):
    from finslerlab.cli import _PROBE_SAMPLES
    from finslerlab.metrics import build_metric, validate

    report = validate(build_metric(builtin(name)), samples=_PROBE_SAMPLES, seed=0)
    assert report.passed, report.failures[:2]


def test_bad_expression_exits_2(tmp_path, capsys):
    p = tmp_path / "expr.json"
    p.write_text(json.dumps({"dimension": 2, "family": "custom",
                             "expression": "sqrt(abs2(y) +"}))
    assert main(["report", str(p)]) == 2
    capsys.readouterr()


def test_geodesic_chart_exit_is_3(ball_spec, tmp_path, capsys):
    rc = main(["geodesic", ball_spec, "--x0", "0.2,0", "--y0", "1,0",
               "--t", "2.0", "--csv", str(tmp_path / "g.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "t = 0.8" in err             # straight line hits the rim at 0.8


def test_out_of_chart_point_is_3(funk2_spec, tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([{"x": [1.5, 0.0], "y": [1.0, 0.0]}]))
    assert main(["report", funk2_spec, "--points", str(pts)]) == 3
    capsys.readouterr()


def test_zero_vector_point_is_1(funk2_spec, tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([{"x": [0.1, 0.0], "y": [0.0, 0.0]}]))
    assert main(["report", funk2_spec, "--points", str(pts)]) == 1
    capsys.readouterr()


def _assert_rejected(capsys):
    # exit 2: a message on stderr and nothing on stdout
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("points", [
    {"pts": []},
    5,
    {"points": [{"x": ["a", 0], "y": [1, 0]}]},
    {"points": []},
], ids=["no-points-key", "number", "non-numeric-x", "empty"])
def test_malformed_points_file_exits_2(funk2_spec, tmp_path, capsys, points):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    assert main(["report", funk2_spec, "--points", str(pts)]) == 2
    _assert_rejected(capsys)


@pytest.mark.parametrize("span", ["a:b", "0:x", "abc", "nan", "0:inf"])
def test_malformed_time_span_exits_2(funk2_spec, capsys, span):
    argv = ["geodesic", funk2_spec, "--x0", "0.1,0.0", "--y0", "0.3,0.2", "--t", span]
    assert main(argv) == 2
    _assert_rejected(capsys)


@pytest.mark.parametrize("thresholds", [
    "[1]", '{"berwald": "x"}', '{"foo": 1}', '{"berwald": NaN}', '{"berwald": Infinity}',
    '{"berwald": true}', "1e-8",
])
def test_malformed_thresholds_exit_2(funk2_spec, capsys, thresholds):
    assert main(["classify", funk2_spec, "--samples", "1", "--thresholds", thresholds]) == 2
    _assert_rejected(capsys)


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["report"], ["verify", "--suite", "bianchi"], ["classify"],
    ["geodesic", "--x0", "0.1,0.0", "--y0", "0.3,0.2"],
], ids=lambda c: c[0])
def test_samples_below_one_exit_2(funk2_spec, capsys, command, samples):
    assert main([command[0], funk2_spec, *command[1:], "--samples", samples]) == 2
    _assert_rejected(capsys)


@pytest.mark.parametrize("suite,field,check", [
    ("identities", "L_C", "landsberg_routes"),
    ("identities", "J_I", "mean_landsberg_routes"),
    ("landsberg-routes", "L_C", "landsberg-two-routes"),
    ("landsberg-routes", "J_I", "mean-landsberg-two-routes"),
])
def test_nan_route_residual_fails_the_cross_check(funk2_spec, nan_field, capsys, suite, field, check):
    # a NaN residual is not above the tolerance, yet it must not pass
    nan_field(field)
    assert main(["verify", funk2_spec, "--suite", suite, "--samples", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"{suite}: FAIL")
    verdicts = {line.split()[1]: line.split()[-1] for line in lines[:-1]}
    assert verdicts[check] == "fail"


# --------------------------------------------------------------------------
# metric-spec schema

def test_builtin_specs_validate(tmp_path):
    for name in BUILTIN_NAMES:
        jsonschema.validate(builtin(name).to_dict(), SPEC_SCHEMA)


def test_spec_key_aliases_accepted(tmp_path):
    # "funk_a" for the drift vector and "chart": {"radius": r} are accepted
    # on input; the canonical spelling is used on output.
    d = {"dimension": 2, "family": "funk", "funk_a": [0.2, 0.0],
         "chart": {"radius": 0.75}}
    jsonschema.validate(d, SPEC_SCHEMA)
    spec = MetricSpec.from_dict(d)
    assert spec.drift == (0.2, 0.0)
    assert spec.chart_radius == pytest.approx(0.75)
    p = tmp_path / "alias.json"
    p.write_text(json.dumps(d))
    assert main(["report", str(p), "--samples", "1", "--out",
                 str(tmp_path / "o.json")]) == 0


def test_spec_scalar_chart_alias():
    d = {"dimension": 2, "family": "custom",
         "expression": "sqrt(abs2(y))", "chart": 0.5}
    jsonschema.validate(d, SPEC_SCHEMA)
    assert MetricSpec.from_dict(d).chart_radius == pytest.approx(0.5)
