"""Job lists of the three benchmark workloads.

Every job is a call into finslerlab's public API (or, for ``cli-cold``, a
fresh ``python -m finslerlab.cli`` process) at inputs drawn from the
benchmark's own RNG.  A job returns a *digest*: a flat dict of the few
numbers, flags and strings its outputs reduce to.  ``Job.check`` applies
the physics checks to a digest and returns the problems it found.

Inputs stay inside the chart by geometric rules, never by trying them:

* states: x uniform in the ball |x| <= R' with R' = 0.4 R (R the chart's
  sample radius), y uniform on the unit sphere;
* geodesic start k of K on one metric has the shape of the middle of
  stratum k: |x| = R' ((k + 1/2) / K)^(1/n), the median radius of the k-th
  of K equal-volume shells of the ball, and cos(x, y) = 2 (k + 1/2) / K - 1
  (-1/2 and 1/2 for K = 2).  Its direction is a random unit u, and y lies
  in the plane of u and a random t orthogonal to it; odd k use -u and -t,
  so a pair samples opposite sides of a metric that is not symmetric.  The
  angle sets most of a geodesic's step count (correlation -0.5 to -0.86
  over 30 random starts per metric), so fixing the shape keeps the work of
  a pass nearly the same from seed to seed;
* on funk2-drift R' = 0.15: with drift |a| = 0.2 the bound
  F >= (sqrt(1 - r^2) - |a| + r) r' / (1 - r^2) on outward motion
  integrates to an F-length of 1.087 from r = 0.15 to the chart radius
  0.8, so a unit-length geodesic cannot leave the chart;
* flag vectors u are the part of a random vector orthogonal to y;
* parallelogram loops keep the shape of the package's own tests (sides
  u = e1, v = e2, probe w0 = (0.8, 0.3, 0...)) and put the corner x0 in
  the ball of radius 0.1 around c = (0.2, -0.2, 0...).  On funk2 the
  eps^2 coefficient of the probe defect vanishes on the line x1 = x2
  through the origin (mapped on a 9 x 9 grid of corners); every corner of
  this ball is at least 0.18 from it, where the coefficient is above
  1e-2, and a 12-corner scan (independent seed) gave probe exponents
  2.10-2.13 on funk2 and 1.93-1.96 on randers3x, inside the check's
  "within 0.2 of 2".

All functions are looked up through their modules at call time, so the
tracer's wrappers (see tracing.py) see every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from finslerlab import analysis, curvature, transport
from finslerlab.metrics import build_metric, builtin

WORKLOADS = ("tower", "dynamics", "cli-cold")

TOWER_BUNDLE = ("funk2", "funk2-drift", "quartic2", "funk3", "randers3x", "abq3", "sphere3")
TOWER_CLASSIFY = ("funk3", "randers3x")
TOWER_FIT = ("funk2", "funk2-drift", "funk3", "randers3x")
DYNAMICS_GEODESIC = ("funk2", "funk2-drift", "funk3", "randers3x", "sphere2")
DYNAMICS_PARALLELOGRAM = ("funk2", "randers3x")
GEODESICS_PER_METRIC = 2
PARALLELOGRAM_EPS = (0.04, 0.08, 0.16)

#: metrics each workload builds, and the highest jet order its jobs seed
WORKLOAD_METRICS = {
    "tower": sorted(set(TOWER_BUNDLE) | set(TOWER_CLASSIFY) | set(TOWER_FIT)),
    "dynamics": sorted(DYNAMICS_GEODESIC),
    "cli-cold": ["funk2", "funk3"],
}
WORKLOAD_MAX_ORDER = {"tower": 7, "dynamics": 4, "cli-cold": 7}

#: physics tolerances
PHYSICS_TOL = 1e-6
EXPONENT_TOL = 0.2
FUNK_FLAG = -0.25
FUNK_C = -1.0
CONSTANT_FLAG = {"funk2": FUNK_FLAG, "funk3": FUNK_FLAG, "sphere3": 1.0,
                 "quartic2": 0.0, "abq3": 0.0}  # the last two are x-independent
DRIFT_START_RADIUS = {"funk2-drift": 0.15}

BUNDLE_NORMS = ("g", "C", "I", "B", "E", "R1", "Rhh", "L", "J", "Sigma")


@dataclass
class Job:
    id: str
    run: Callable[[], dict]
    check: Callable[[dict], list] = lambda digest: []


def _unit(v):
    return v / np.linalg.norm(v)


def _ball_point(rng, n, radius):
    return _unit(rng.normal(size=n)) * radius * rng.uniform() ** (1.0 / n)


def _state(rng, metric, name):
    radius = DRIFT_START_RADIUS.get(name, 0.4 * metric.chart.sample_radius)
    x = _ball_point(rng, metric.n, radius)
    return curvature.PointState(tuple(x), tuple(_unit(rng.normal(size=metric.n))))


def _geodesic_starts(rng, metric, name, count):
    """Starts of a fixed shape in random directions; see the module docstring."""
    n = metric.n
    radius = DRIFT_START_RADIUS.get(name, 0.4 * metric.chart.sample_radius)
    u = _unit(rng.normal(size=n))
    t = _orthogonal_to(rng, u)
    starts = []
    for k in range(count):
        middle = (k + 0.5) / count
        sign = 1.0 if k % 2 == 0 else -1.0
        cos = 2.0 * middle - 1.0
        x = sign * radius * middle ** (1.0 / n) * u
        y = sign * (cos * u + math.sqrt(1.0 - cos * cos) * t)
        starts.append(curvature.PointState(tuple(x), tuple(y)))
    return starts


def _orthogonal_to(rng, y):
    v = rng.normal(size=len(y))
    v -= (v @ y) / (y @ y) * y
    return _unit(v)


def _parallelogram(rng, n):
    """Corner, sides and probe of one loop; see the module docstring."""
    eye = np.eye(n)
    w0, centre = np.zeros(n), np.zeros(n)
    w0[:2] = (0.8, 0.3)
    centre[:2] = (0.2, -0.2)
    return centre + _ball_point(rng, n, 0.1), eye[0], eye[1], w0


def _near(value, target, tol=PHYSICS_TOL):
    return value is not None and abs(value - target) <= tol


def build_metrics(names):
    return {name: build_metric(builtin(name)) for name in names}


# --------------------------------------------------------------------------
# tower


def _bundle_job(metric, name, index, state, u):
    def run():
        b = curvature.curvature_bundle(metric, state)
        K = curvature.flag_curvature(metric, state, u)
        out = {"F": b.F, "K": float(K)}
        for blk in BUNDLE_NORMS:
            out["norm." + blk] = b.block(blk).norm
        out["norm.G"] = float(np.max(np.abs(b.spray.G)))
        for key, value in b.diagnostics.items():
            out["diag." + key] = value
        return out

    def check(d):
        bad = [f"{k} = {v:.3e} > {PHYSICS_TOL}" for k, v in d.items()
               if k.startswith("diag.") and v is not None and not v <= PHYSICS_TOL]
        if name in CONSTANT_FLAG and not _near(d["K"], CONSTANT_FLAG[name]):
            bad.append(f"flag curvature {d['K']!r} != {CONSTANT_FLAG[name]}")
        return bad

    return Job(f"bundle:{name}:{index}", run, check)


def _classify_job(metric, name, index, seed):
    def run():
        v = analysis.classify(metric, seed=seed)
        out = {"flag." + k: bool(f) for k, f in v.flags.items()}
        out.update({"norm." + k: r for k, r in v.residuals.items()})
        out["consistent"] = bool(v.consistent)
        return out

    def check(d):
        return [] if not d["flag.riemannian"] else ["non-Riemannian metric classified riemannian"]

    return Job(f"classify:{name}:{index}", run, check)


def _fit_job(metric, name, states):
    def run():
        f = analysis.fit_relative_stretch(metric, points=states)
        return {"c": f.c, "residual": f.residual, "spread": f.spread, "sign": f.raw_sign}

    def check(d):
        if name in ("funk2", "funk3") and not (_near(d["c"], FUNK_C) and d["spread"] <= PHYSICS_TOL):
            return [f"funk stretch ratio c = {d['c']!r}, spread {d['spread']:.3e}"]
        return []

    return Job(f"fit:{name}", run, check)


def _constant_flag_job(metric, states):
    def run():
        r = analysis.check_constant_flag_chain(metric, points=states)
        out = {"verdict": r.verdict, "lambda": r.data["lambda"],
               "c": float(np.mean(r.data["c_values"]))}
        out.update({"resid." + k: v for k, v in r.residuals.items()})
        return out

    def check(d):
        bad = [] if d["verdict"] == "pass" else [f"constant-flag verdict {d['verdict']}"]
        if not (_near(d["lambda"], FUNK_FLAG) and _near(d["c"], FUNK_C)):
            bad.append(f"lambda {d['lambda']!r}, c {d['c']!r}")
        return bad

    return Job("constant-flag:funk3", run, check)


def _semi_c_job(metric, name, index, state):
    def run():
        r = analysis.fit_semi_c_reducible(metric, state)
        return {"p": r.p, "q": r.q, "residual": r.residual}

    def check(d):
        return [] if d["residual"] <= PHYSICS_TOL else [f"semi-C residual {d['residual']:.3e}"]

    return Job(f"semi-c:{name}:{index}", run, check)


def tower_jobs(rng, metrics):
    jobs = []
    for name in TOWER_BUNDLE:
        m = metrics[name]
        for i in range(2):
            st = _state(rng, m, name)
            jobs.append(_bundle_job(m, name, i, st, _orthogonal_to(rng, np.asarray(st.y))))
    for name in TOWER_CLASSIFY:
        for i in range(2):
            jobs.append(_classify_job(metrics[name], name, i, int(rng.integers(2**31))))
    for name in TOWER_FIT:
        m = metrics[name]
        jobs.append(_fit_job(m, name, [_state(rng, m, name) for _ in range(4)]))
    m = metrics["funk3"]
    jobs.append(_constant_flag_job(m, [_state(rng, m, "funk3") for _ in range(4)]))
    m = metrics["abq3"]
    for i in range(2):
        jobs.append(_semi_c_job(m, "abq3", i, _state(rng, m, "abq3")))
    return jobs


# --------------------------------------------------------------------------
# dynamics


def _geodesic_jobs(metric, tag, state, V0):
    solution = {}

    def geodesic():
        g = transport.integrate_geodesic(metric, state.x, state.y, 1.0, unit_speed=True)
        solution["g"] = g
        out = {"F_drift": g.F_drift, "t_final": g.t_final}
        out.update({f"x_end.{i}": v for i, v in enumerate(g.x[-1])})
        out.update({f"y_end.{i}": v for i, v in enumerate(g.y[-1])})
        return out

    def geodesic_check(d):
        return [] if d["F_drift"] <= 5e-8 else [f"F drift {d['F_drift']:.3e}"]

    def transported(mode):
        def run():
            r = transport.parallel_transport(metric, solution["g"], V0, mode=mode)
            out = {"F_drift": r.F_drift, "length_drift": r.length_drift}
            out.update({f"V_end.{i}": v for i, v in enumerate(r.V[-1])})
            return out
        return run

    def transport_check(d):
        # along a geodesic both modes keep F and the transported g-length
        return [f"{k} = {d[k]:.3e}" for k in ("F_drift", "length_drift") if not d[k] <= 1e-6]

    return [
        Job(f"geodesic:{tag}", geodesic, geodesic_check),
        Job(f"transport-linear:{tag}", transported("linear"), transport_check),
        Job(f"transport-nonlinear:{tag}", transported("nonlinear"), transport_check),
    ]


def _parallelogram_job(metric, name, x0, u, v, w0):
    def run():
        e = transport.parallelogram_holonomy(metric, x0, u, v, w0, PARALLELOGRAM_EPS)
        out = {"exponent_probe": e.exponent_probe}
        out.update({f"delta_probe.{i}": d for i, d in enumerate(e.delta_probe)})
        return out

    def check(d):
        if _near(d["exponent_probe"], 2.0, EXPONENT_TOL):
            return []
        return [f"probe exponent {d['exponent_probe']!r} not within {EXPONENT_TOL} of 2"]

    return Job(f"parallelogram:{name}", run, check)


def dynamics_jobs(rng, metrics):
    jobs = []
    for name in DYNAMICS_GEODESIC:
        m = metrics[name]
        for i, st in enumerate(_geodesic_starts(rng, m, name, GEODESICS_PER_METRIC)):
            jobs.extend(_geodesic_jobs(m, f"{name}:{i}", st, _unit(rng.normal(size=m.n))))
    for name in DYNAMICS_PARALLELOGRAM:
        m = metrics[name]
        jobs.append(_parallelogram_job(m, name, *_parallelogram(rng, m.n)))
    return jobs


# --------------------------------------------------------------------------
# cli-cold


SPECS = {
    "funk2.json": {"dimension": 2, "family": "funk", "funk_a": [0.0, 0.0]},
    "funk3.json": {"dimension": 3, "family": "funk", "funk_a": [0.0, 0.0, 0.0]},
}


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            if not prefix and k == "version":
                continue
            _flatten(obj[k], f"{prefix}{k}.", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", out)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def _fmt(v):
    return ",".join(repr(float(c)) for c in v)


@dataclass
class CliRunner:
    """Runs one CLI command per job in a fresh interpreter, in ``workdir``.

    With ``trace_dir`` set, each command runs under trace_child.py and
    leaves its per-layer counters there.  ``child_rss_kb`` collects the
    peak resident set of every command.
    """

    root: Path
    workdir: Path
    env: dict
    trace_dir: Path | None = None
    child_rss_kb: list = field(default_factory=list)
    _calls: int = 0

    def command(self, args):
        self._calls += 1
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "finslerlab.cli", *args]
        else:
            out = self.trace_dir / f"child-{self._calls:05d}.json"
            argv = [sys.executable, str(self.root / "perfbench" / "trace_child.py"), str(out), *args]
        with open(self.workdir / "stdout.txt", "wb") as so, open(self.workdir / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=so, stderr=se)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return proc.returncode

    def read(self, name):
        return (self.workdir / name).read_text()


def cli_jobs(rng, runner):
    import jsonschema

    schemas = runner.root / "src" / "finslerlab" / "schemas"
    report_schema = json.loads((schemas / "report.schema.json").read_text())
    spec_schema = json.loads((schemas / "metric_spec.schema.json").read_text())
    for name, spec in SPECS.items():
        jsonschema.validate(spec, spec_schema)
        (runner.workdir / name).write_text(json.dumps(spec))
    seed = int(rng.integers(2**31))
    x0, u, v, w0 = _parallelogram(rng, 2)
    y0 = _unit(rng.normal(size=2))
    loop = f"{_fmt(u)};{_fmt(v)};{_fmt(w0)};{_fmt(PARALLELOGRAM_EPS)}"

    def cli(args, out_file):
        """Exit code and the text the command wrote to ``out_file``."""
        (runner.workdir / out_file).unlink(missing_ok=True)
        code = runner.command([*args, "--out", out_file])
        return code, (runner.read(out_file) if code == 0 else None)

    def json_job(args, out_file):
        def run():
            code, text = cli(args, out_file)
            if text is None:
                return {"exit": code}
            doc = json.loads(text)
            jsonschema.validate(doc, report_schema)
            return _flatten(doc, "", {"exit": code})
        return run

    def verify_job(args):
        def run():
            code, text = cli([*args, "--seed", str(seed)], "verify.csv")
            d = {"exit": code}
            for row in csv.DictReader((text or "").splitlines()):
                key = f"{row['check']}.{row['point']}"
                d["value." + key] = float(row["value"])
                d["verdict." + key] = row["verdict"]
            return d
        return run

    def exit_ok(d):
        return [] if d.get("exit") == 0 else [f"exit code {d.get('exit')}"]

    def report_check(d):
        bad = exit_ok(d)
        for k, v in d.items():
            if ".diagnostics." in k and not v <= PHYSICS_TOL:
                bad.append(f"{k} = {v!r}")
            if k.endswith(".flag_sample.K") and not _near(v, FUNK_FLAG):
                bad.append(f"{k} = {v!r}")
        if not _near(d.get("fits.relative_stretch.c"), FUNK_C):
            bad.append(f"fitted c = {d.get('fits.relative_stretch.c')!r}")
        return bad

    def verify_check(expect):
        def check(d):
            bad = exit_ok(d)
            bad += [k for k, v in d.items() if k.startswith("verdict.") and v not in ("pass", "info")]
            for key, target in expect.items():
                if not _near(d.get("value." + key), target):
                    bad.append(f"{key} = {d.get('value.' + key)!r}, expected {target}")
            return bad
        return check

    def geodesic_check(d):
        bad = exit_ok(d)
        exp = d.get("parallelogram.exponent_probe")
        if not _near(exp, 2.0, EXPONENT_TOL):
            bad.append(f"probe exponent {exp!r}")
        return bad

    return [
        Job("cli:report funk3",
            json_job(["report", "funk3.json", "--samples", "3", "--seed", str(seed)], "report.json"),
            report_check),
        Job("cli:verify funk3 identities", verify_job(["verify", "funk3.json", "--suite", "identities"]),
            verify_check({})),
        Job("cli:verify funk3 constant-flag", verify_job(["verify", "funk3.json", "--suite", "constant-flag"]),
            verify_check({"lambda.all": FUNK_FLAG, "c.all": FUNK_C})),
        Job("cli:verify funk3 flows", verify_job(["verify", "funk3.json", "--suite", "flows"]),
            verify_check({"c.all": FUNK_C})),
        Job("cli:verify funk2 principal-scalar",
            verify_job(["verify", "funk2.json", "--suite", "principal-scalar"]), verify_check({})),
        Job("cli:classify funk3", json_job(["classify", "funk3.json", "--seed", str(seed)], "classify.json"), exit_ok),
        Job("cli:geodesic funk2",
            json_job(["geodesic", "funk2.json", f"--x0={_fmt(x0)}", f"--y0={_fmt(y0)}", "--t", "1.0",
                      "--unit-speed", "--flows", "phi,phidot", "--c=-1", "--csv", "flow.csv",
                      f"--parallelogram={loop}"], "geodesic.json"),
            geodesic_check),
    ]


def make_jobs(workload, seed, metrics, runner=None):
    """The job list of one pass; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "tower":
        return tower_jobs(rng, metrics)
    if workload == "dynamics":
        return dynamics_jobs(rng, metrics)
    return cli_jobs(rng, runner)


# --------------------------------------------------------------------------
# comparing digests


REL_TOL = 1e-6
ABS_TOL = 1e-9


def mismatches(digest, reference, rel=REL_TOL, abs_=ABS_TOL):
    """Keys whose values differ beyond |a - b| <= rel * max(|a|, |b|) + abs_."""
    bad = []
    for key in sorted(set(digest) | set(reference)):
        a, b = digest.get(key, "<missing>"), reference.get(key, "<missing>")
        if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
        ):
            if a != b:
                bad.append(f"{key}: {a!r} != {b!r}")
        elif not (math.isfinite(a) and math.isfinite(b)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                bad.append(f"{key}: {a!r} != {b!r}")
        elif abs(a - b) > rel * max(abs(a), abs(b)) + abs_:
            bad.append(f"{key}: {a!r} != {b!r}")
    return bad
