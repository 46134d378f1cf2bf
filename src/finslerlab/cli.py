"""Command-line surface: metric reports, verification suites, classification,
geodesic runs.

Commands (see ``finslerlab <command> --help`` for flags):

* ``report``    curvature tensors and scalar fits at listed or sampled points,
                as a JSON document.
* ``verify``    run one named identity suite and emit a residual table;
                exit code 0 iff every check passes.
* ``classify``  vanishing-tensor classification verdict as JSON (exit 0;
                verdicts are data, not errors; a tensor norm that is not
                finite is a failed check, exit 1).
* ``geodesic``  integrate a geodesic, optionally evaluate scalar flows along it
                (CSV) and run the parallelogram loop experiment.

Exit codes: 0 success / all checks pass; 1 a verification check failed (or a
computation was inapplicable); 2 malformed spec, expression or option value
(points file, an empty or infinite --t, --thresholds, --samples < 1, a
negative --seed, a report --order < 6, the least seed order of a curvature
bundle, a NaN or negative --tol or --spread-tol, a geodesic --tol that is
not finite and > 0, a geodesic or loop vector of the wrong length, a zero
--y0 or w0, dependent loop vectors u and v, a loop scale <= 0, an unknown
--flows quantity, a --c that is not finite), or a spec whose F fails
the positive-homogeneity or strong-convexity probe at seeded chart points
(message on stderr, no partial output); 3 chart violation (point outside the
chart, or a trajectory leaving it; the exit time is reported when known).

Determinism: identical inputs and seed produce byte-identical output apart
from the ``version`` field.  Default tolerances: 1e-6 for identity residuals,
1e-4 for fit spreads; every document echoes the tolerances it used.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .curvature import (
    BLOCKS,
    BUNDLE_IDENTITIES,
    BUNDLE_ORDER,
    IDENTITIES,
    PointState,
    curvature_bundle,
    flag_curvature,
    least_order,
)
from .errors import (
    BadConfig,
    ChartExit,
    DegenerateFlag,
    DimensionError,
    FinslerError,
    LexError,
    NotConstantCurvature,
    OutOfChart,
    ParseError,
    RiemannianPoint,
    ShapeMismatch,
    SpecError,
    UndefinedFit,
    ZeroVector,
)
from .metrics import MetricSpec, build_metric, validate
from .transport import (
    flow_inputs,
    geodesic_span,
    geodesic_start,
    integrate_geodesic,
    loop_inputs,
    parallelogram_holonomy,
    scalar_flows,
)

_IDENTITY_TOL = 1e-6
_SPREAD_TOL = 1e-4
#: seeded chart samples of the homogeneity and convexity probe run on every spec
_PROBE_SAMPLES = 4


def _load_metric(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise SpecError(f"cannot read spec file {path!r}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file {path!r} is not valid JSON: {e}") from e
    spec = MetricSpec.from_dict(data)
    metric = build_metric(spec)
    failures = validate(metric, samples=_PROBE_SAMPLES, seed=0)
    if failures:
        bad = failures[0]
        x, y = (", ".join(f"{float(v):.6g}" for v in bad[k]) for k in "xy")
        raise SpecError(
            f"spec file {path!r} is not a Finsler metric: {bad['problem']} at x = ({x}), y = ({y})"
        )
    return spec, metric


def _parse_vector(text, name):
    try:
        vec = tuple(float(v) for v in text.split(","))
    except ValueError as e:
        raise SpecError(f"{name}: expected comma-separated numbers, got {text!r}") from e
    if not np.all(np.isfinite(vec)):
        raise SpecError(f"{name}: expected finite numbers, got {text!r}")
    return vec


def _check_options(args):
    """Malformed numeric options are a SpecError: --samples below 1, a
    negative --seed, a report --order below the bundle's least seed order, a
    NaN or negative --tol or --spread-tol, and a geodesic --tol, the
    integrator's, that is not finite and > 0."""
    if args.samples < 1:
        raise SpecError(f"--samples must be >= 1, got {args.samples}")
    if getattr(args, "seed", 0) < 0:
        raise SpecError(f"--seed must be >= 0, got {args.seed}")
    least = least_order(BLOCKS.values())
    if args.command == "report" and args.order < least:
        raise SpecError(f"--order must be >= {least}, the bundle's least seed order, got {args.order}")
    if args.command == "geodesic" and not 0.0 < args.tol < math.inf:
        raise SpecError(f"--tol must be finite and > 0, got {args.tol!r}")
    for flag in ("tol", "spread_tol"):
        value = getattr(args, flag, 0.0)
        if not value >= 0.0:
            raise SpecError(f"--{flag.replace('_', '-')} must be >= 0, got {value!r}")


def _dump_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_points(path, n):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise SpecError(f"cannot read points file {path!r}: {e}") from e
    rows = data.get("points") if isinstance(data, dict) else data
    if not isinstance(rows, list) or not rows:
        raise SpecError(f"points file {path!r}: expected a nonempty list of points, "
                        f"or an object with one under \"points\"")
    states = []
    for row in rows:
        try:
            states.append(PointState(x=tuple(row["x"]), y=tuple(row["y"])))
        except (KeyError, TypeError) as e:
            raise SpecError(f"points file {path!r}: each entry needs x and y") from e
        except ValueError as e:
            raise SpecError(f"points file {path!r}: x and y must hold numbers: {e}") from e
        except (BadConfig, ShapeMismatch, ZeroVector) as e:
            raise SpecError(f"points file {path!r}: {e}") from e
        if len(states[-1].x) != n:
            raise SpecError(f"points file {path!r}: point dimension != {n}")
    return states


# --------------------------------------------------------------------------
# report


def cmd_report(args):
    _check_options(args)
    spec, metric = _load_metric(args.spec)
    if args.points:
        states = _load_points(args.points, metric.n)
    else:
        states = analysis.sample_states(metric, args.samples, args.seed)
    rng = np.random.default_rng(args.seed + 1)  # flag edges, decoupled from points

    points = []
    for st in states:
        bundle = curvature_bundle(metric, st, order=args.order)
        norms = {
            name: bundle.block(name).norm
            for name in ("g", "C", "I", "G", "B", "E", "R1", "Rhh", "L", "J", "Sigma")
        }
        u = rng.normal(size=metric.n)
        try:
            K = flag_curvature(metric, st, u, scope=bundle.scope)
            flag_sample = {"u": list(u), "K": float(K)}
        except DegenerateFlag:
            flag_sample = None
        entry = {
            "x": list(st.x),
            "y": list(st.y),
            "F": bundle.F,
            "norms": norms,
            "diagnostics": {
                k: v for k, v in bundle.diagnostics.items() if v is not None
            },
            "flag_sample": flag_sample,
        }
        if args.full_tensors:
            entry["tensors"] = bundle.to_dict()
        points.append(entry)

    fits = {}
    try:
        fit = analysis.fit_relative_stretch(metric, states)
        fits["relative_stretch"] = {
            "c": fit.c,
            "residual": fit.residual,
            "spread": fit.spread,
            "c_values": list(fit.c_values),
            "convention_label": fit.convention_label,
            "raw_sign": fit.raw_sign,
        }
    except (UndefinedFit, FinslerError) as e:
        fits["relative_stretch"] = {"error": f"{type(e).__name__}: {e}"}
    if metric.n >= 3:
        try:
            reads = analysis._point_reads(metric, states, analysis._SEMI_C_FIELDS)
            rows = [analysis._semi_c_fit(metric.n, read) for _, read in reads]
            fits["semi_c"] = {
                "p_values": [r.p for r in rows],
                "residual_max": max(r.residual for r in rows),
            }
        except (RiemannianPoint, UndefinedFit) as e:
            fits["semi_c"] = {"error": f"{type(e).__name__}: {e}"}
    else:
        try:
            reads = analysis._point_reads(metric, states, ("mu2", "I2"))
            # mu2 first: where both reads raise, the report records mu2's error
            mus, Is = zip(*[(read("mu2"), read("I2")) for _, read in reads])
            fits["principal_scalar"] = {"I_values": list(Is), "mu_values": list(mus)}
        except (RiemannianPoint, DimensionError) as e:
            fits["principal_scalar"] = {"error": f"{type(e).__name__}: {e}"}

    doc = {
        "version": __version__,
        "kind": "report",
        "seed": args.seed,
        "order": args.order,
        "tolerances": {"identity": args.tol, "spread": _SPREAD_TOL},
        "metric": spec.to_dict(),
        "points": analysis._json_safe(points),
        "fits": analysis._json_safe(fits),
    }
    _emit(_dump_json(doc), args.out)
    return 0


# --------------------------------------------------------------------------
# verify


def _identity_rows(checks, metric, args):
    """A suite of identities: ``checks`` maps each row label to its entry of
    ``IDENTITIES``, evaluated at every sample, whose fields are read through
    one ``analysis._point_reads`` of the union of the entries' reads."""
    states = analysis.sample_states(metric, args.samples, args.seed)
    keys = tuple(dict.fromkeys(key for name in checks.values() for key in IDENTITIES[name][0]))
    rows = []
    for idx, (st, read) in enumerate(analysis._point_reads(metric, states, keys)):
        y = np.asarray(st.y)
        for label, name in checks.items():
            reads, residual = IDENTITIES[name]
            rows.append((label, idx, residual(y, *map(read, reads)), args.tol))
    return rows


def _suite_constant_flag(metric, args):
    res = analysis.check_constant_flag_chain(
        metric,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tol,
        spread_tolerance=args.spread_tol,
    )
    rows = [(name, "all", float(v), args.tol) for name, v in sorted(res.residuals.items())]
    rows.append(("lambda", "all", float(res.data["lambda"]), None))
    if len(res.data["c_values"]):
        rows.append(("c", "all", float(np.mean(res.data["c_values"])), None))
    return rows


def _seeded_geodesic(metric, args, span=1.0):
    st = analysis.sample_states(metric, 1, args.seed, r_range=(0.15, 0.4))[0]
    return integrate_geodesic(metric, st.x, st.y, span, unit_speed=True)


def _suite_principal_scalar(metric, args):
    geod = _seeded_geodesic(metric, args)
    res = analysis.check_principal_scalar_relation(
        metric, geod, samples=args.samples, tolerance=args.tol
    )
    if res.verdict == "vacuous":
        return [("principal-scalar-relation", "all", 0.0, args.tol)]
    return [("principal-scalar-relation", "all", res.residuals["relation"], args.tol)]


def _suite_flows(metric, args):
    geod = _seeded_geodesic(metric, args)
    try:
        c = analysis.fit_relative_stretch(metric, count=5, seed=args.seed).c
    except UndefinedFit:
        # no stretch ratio to drive the rate law; it is vacuous iff phi ~ 0
        flow = scalar_flows(metric, geod, quantities=("phi",), samples=args.samples)
        phimax = float(np.max(np.abs(flow.columns["phi"])))
        return [("torsion-rate-law", "all", phimax, args.tol)]
    flow = scalar_flows(
        metric, geod, quantities=("phi", "phidot"), c=c, samples=args.samples
    )
    scale = max(float(np.max(np.abs(flow.columns["phidot"]))), 1e-12)
    resid = float(np.max(np.abs(flow.columns["flow_resid"]))) / scale
    doubled = float(np.max(np.abs(flow.columns["flow_resid_doubled"]))) / scale
    return [
        ("torsion-rate-law", "all", resid, args.tol),
        ("torsion-rate-law-doubled", "all", doubled, None),  # reported, not gated
        ("c", "all", c, None),
    ]


#: verification suites; "theorem3" is a compatibility alias kept stable for
#: external harnesses and runs the principal-scalar suite
_SUITE_FNS = {
    "identities": functools.partial(_identity_rows, {k: k for k in BUNDLE_IDENTITIES}),
    "bianchi": functools.partial(_identity_rows, {"curvature-derivative": "curvature_derivative",
                                                  "stretch-from-curvature": "stretch_bianchi"}),
    "landsberg-routes": functools.partial(_identity_rows, {
        "landsberg-two-routes": "landsberg_routes",
        "mean-landsberg-two-routes": "mean_landsberg_routes",
        "metric-h-derivative": "metric_h_derivative", "metric-v-derivative": "metric_v_derivative",
    }),
    "constant-flag": _suite_constant_flag,
    "principal-scalar": _suite_principal_scalar,
    "theorem3": _suite_principal_scalar,
    "flows": _suite_flows,
}
SUITES = tuple(_SUITE_FNS)


def cmd_verify(args):
    _check_options(args)
    _, metric = _load_metric(args.spec)
    fields = ["suite", "check", "point", "value", "tolerance", "verdict"]
    table = []
    for check, point, value, tol in _SUITE_FNS[args.suite](metric, args):
        verdict = "info" if tol is None else "pass" if value <= tol else "fail"  # NaN fails
        tolerance = "" if tol is None else tol
        table.append(dict(zip(fields, (args.suite, check, point, value, tolerance, verdict))))
    failed = sum(row["verdict"] == "fail" for row in table)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(table)
    if args.out:
        Path(args.out).write_text(buf.getvalue())
    for row in table:
        print(
            f"{row['suite']:18s} {row['check']:28s} {str(row['point']):>4s} "
            f"{row['value']: .6e}  {row['verdict']}"
        )
    print(f"{args.suite}: {'FAIL' if failed else 'PASS'} "
          f"({len(table) - failed}/{len(table)} checks)")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# classify


def _parse_thresholds(text):
    """--thresholds: a JSON object from flag names to finite numbers."""
    try:
        thresholds = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"--thresholds is not valid JSON: {e}") from e
    if not isinstance(thresholds, dict):
        raise SpecError("--thresholds must be a JSON object")
    for name, value in thresholds.items():
        if name not in analysis.CLASS_FLAGS:
            known = ", ".join(analysis.CLASS_FLAGS)
            raise SpecError(f"--thresholds: unknown flag {name!r}; known: {known}")
        if type(value) not in (int, float) or not abs(value) < np.inf:  # bool is no number here
            raise SpecError(f"--thresholds: {name} must be a finite number, got {value!r}")
    return thresholds


def cmd_classify(args):
    _check_options(args)
    _, metric = _load_metric(args.spec)
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else None
    verdict = analysis.classify(
        metric, samples=args.samples, seed=args.seed, thresholds=thresholds
    )
    doc = {"version": __version__, "kind": "classification", **verdict.to_dict()}
    _emit(_dump_json(doc), args.out)
    return 0


# --------------------------------------------------------------------------
# geodesic


def _checked(option, check, *inputs):
    """``check(*inputs)``, with an input it rejects (a wrong length, a zero
    vector, dependent vectors, a scale <= 0, an unknown flow quantity, a rate
    constant that is not finite) a SpecError naming ``option``."""
    try:
        check(*inputs)
    except (BadConfig, ShapeMismatch, ZeroVector) as e:
        raise SpecError(f"{option}: {e}") from e


def _parse_loop(text, metric, x0):
    """(u, v, w0, eps) of ``--parallelogram 'u;v;w0;eps,...'``, checked as
    the loop checks them, so a bad loop is rejected before any integration."""
    parts = text.split(";")
    if len(parts) != 4:
        raise SpecError(
            "--parallelogram wants 'u;v;w0;eps,eps,...' with comma-separated numbers"
        )
    u = _parse_vector(parts[0], "--parallelogram u")
    v = _parse_vector(parts[1], "--parallelogram v")
    w0 = _parse_vector(parts[2], "--parallelogram w0")
    eps = _parse_vector(parts[3], "--parallelogram eps-list")
    _checked("--parallelogram", loop_inputs, metric, x0, u, v, w0, eps)
    return u, v, w0, eps


def cmd_geodesic(args):
    _check_options(args)
    spec, metric = _load_metric(args.spec)
    x0 = _parse_vector(args.x0, "--x0")
    y0 = _parse_vector(args.y0, "--y0")
    try:
        span = tuple(map(float, args.t.split(":", 1))) if ":" in args.t else float(args.t)
    except ValueError:
        raise SpecError(f"--t: expected a duration T or range t0:t1, got {args.t!r}") from None
    _checked("--t", geodesic_span, span)
    _checked("--x0, --y0", geodesic_start, metric, x0, y0)
    quantities = tuple(q for q in args.flows.split(",") if q) if args.flows else ()
    _checked("--flows, --c", flow_inputs, quantities, args.c)
    loop = _parse_loop(args.parallelogram, metric, x0) if args.parallelogram else None
    geod = integrate_geodesic(
        metric, x0, y0, span, tol=args.tol, unit_speed=args.unit_speed
    )
    flow = scalar_flows(metric, geod, quantities=quantities, c=args.c, samples=args.samples)
    n = metric.n
    headers = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"y{i+1}" for i in range(n)]
        + ["F"]
        + [name for name in flow.columns if name != "F"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    for row in range(len(flow.t)):
        record = (
            [flow.t[row]]
            + list(flow.x[row])
            + list(flow.y[row])
            + [flow.columns["F"][row]]
            + [flow.columns[name][row] for name in headers[2 * n + 2 :]]
        )
        writer.writerow([repr(float(v)) for v in record])
    csv_text = buf.getvalue()

    summary = {
        "version": __version__,
        "kind": "geodesic",
        "metric": spec.to_dict(),
        "x0": list(x0),
        "y0": list(y0),
        "t_span": list(span) if isinstance(span, tuple) else span,
        "unit_speed": args.unit_speed,
        "F0": geod.F0,
        "F_drift": geod.F_drift,
        "t_final": geod.t_final,
        "nodes": int(len(geod.t)),
        "flow_status": flow.status,
        "c_used": args.c,
    }
    if loop:
        exp = parallelogram_holonomy(metric, x0, *loop)
        summary["parallelogram"] = {
            "eps": list(exp.eps),
            "length_defect": list(exp.delta),
            "probe_defect": list(exp.delta_probe),
            "return_defect": list(exp.return_defect),
            "exponent": exp.exponent,
            "exponent_probe": exp.exponent_probe,
        }
    summary = analysis._json_safe(summary)

    if args.csv:
        Path(args.csv).write_text(csv_text)
        _emit(_dump_json(summary), args.out)
    else:
        sys.stdout.write(csv_text)
        if args.out:
            Path(args.out).write_text(_dump_json(summary))
    return 0


# --------------------------------------------------------------------------
# parser / entry


def build_parser():
    p = argparse.ArgumentParser(
        prog="finslerlab",
        description="Curvature tensors, scalar fits, and identity checks "
        "for Finsler metrics given by F(x, y).",
    )
    p.add_argument("--version", action="version", version=f"finslerlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("report", help="curvature bundles and fits at points")
    r.add_argument("spec", help="metric spec JSON file")
    r.add_argument("--points", help="JSON file with a list of {x, y} points")
    r.add_argument("--samples", type=int, default=5, help="seeded point count")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--order", type=int, default=BUNDLE_ORDER, help="jet truncation order")
    r.add_argument("--tol", type=float, default=_IDENTITY_TOL)
    r.add_argument("--full-tensors", action="store_true",
                   help="include all tensor components, not just norms")
    r.add_argument("--out", help="write JSON here instead of stdout")
    r.set_defaults(func=cmd_report)

    v = sub.add_parser("verify", help="run one identity suite")
    v.add_argument("spec")
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--samples", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=_IDENTITY_TOL)
    v.add_argument("--spread-tol", type=float, default=_SPREAD_TOL)
    v.add_argument("--out", help="write the residual table CSV here")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="vanishing-tensor classification")
    c.add_argument("spec")
    c.add_argument("--samples", type=int, default=12)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--thresholds", help='JSON object, e.g. \'{"berwald": 1e-8}\'')
    c.add_argument("--out")
    c.set_defaults(func=cmd_classify)

    g = sub.add_parser("geodesic", help="integrate a geodesic; flows and loops")
    g.add_argument("spec")
    g.add_argument("--x0", required=True, help="comma-separated start point")
    g.add_argument("--y0", required=True, help="comma-separated start velocity")
    g.add_argument("--t", default="1.0", help="duration T or range t0:t1")
    g.add_argument("--unit-speed", action="store_true")
    g.add_argument("--flows", help="comma list from: phi,phidot,L_norm,mu,p,c")
    g.add_argument("--c", type=float, help="rate constant for the residual columns")
    g.add_argument("--samples", type=int, default=25, help="CSV rows")
    g.add_argument("--tol", type=float, default=1e-10, help="integrator tolerance")
    g.add_argument("--parallelogram", help="'u;v;w0;eps,...' loop experiment")
    g.add_argument("--csv", help="write the time series here (stdout otherwise)")
    g.add_argument("--out", help="write the JSON summary here")
    g.set_defaults(func=cmd_geodesic)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, LexError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ChartExit, OutOfChart) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NotConstantCurvature as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FinslerError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
