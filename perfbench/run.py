"""finslerlab benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload tower --seed 0 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its ``src``.  With ``--trace 0`` the run repeats
passes over the workload's job list for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs untraced passes for
``--seconds``, then one traced pass, and reports the per-layer metrics.
Every job's outputs are checked; see README.md.  The last line of stdout
is one JSON object with the metrics named in BENCHMARK.json; a fuller
record goes to ``perfbench/out/<workload>-seed<seed>-trace<t>/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is loaded, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7      # fresh-interpreter set-ups per timed run; setup_s is their median
PROBE_REPS = 3      # cold table-build and import probes per traced run
MIN_PASSES = 2      # timed passes per run, however short --seconds is
REF_SEEDS = 20      # seeds with stored reference digests (perfbench/reference)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("tower", "dynamics", "cli-cold"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed):
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "finslerlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    """One closed-loop pass over a job list."""

    wall: float = 0.0                                # raw seconds
    latencies: list = field(default_factory=list)    # seconds at nominal speed
    raw: list = field(default_factory=list)          # raw seconds
    factors: list = field(default_factory=list)      # speed factor around each job
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def run_pass(jobs, expected, require, speed, tracer=None):
    """Run every job once, each between two speed probes.

    Each digest is compared with ``expected[job.id]`` (a stored reference or
    an earlier pass); with ``require`` a job missing from ``expected`` fails.
    """
    import workloads

    out = Pass()
    before = speed.factor()
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        t1 = time.perf_counter()
        try:
            digest = job.run()
            dt = time.perf_counter() - t1
            problems = job.check(digest)
        except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
            dt = time.perf_counter() - t1
            digest, problems = None, [f"{type(exc).__name__}: {exc}"]
        after = speed.factor()
        factor = 0.5 * (before + after)
        before = after
        out.raw.append(dt)
        out.factors.append(factor)
        out.latencies.append(dt / factor)
        out.digests[job.id] = digest
        if digest is not None:
            if job.id in expected:
                problems = problems + workloads.mismatches(digest, expected[job.id])
            elif require:
                problems = problems + ["no reference digest"]
        if problems:
            out.failures.append({"job": job.id, "problems": problems[:5]})
    out.wall = time.perf_counter() - t0
    return out


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_reference(workload):
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["seeds"] if path.is_file() else {}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finslerlab" / "__init__.py").is_file():
        print(f"error: no finslerlab package under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import finslerlab

    if Path(finslerlab.__file__).resolve().parent != SRC / "finslerlab":
        print(f"error: imported finslerlab from {finslerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probes
    import tracing
    import workloads

    # One CPU for the benchmark and its children, so that the speed probe
    # runs where the jobs run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads(spec_path.read_text())
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    record = {"args": vars(args), "environment": environment(args.seed)}

    speed = SpeedProbe()
    setup_s = None
    if not args.trace:
        setup_s = probes.median_setup_s(args.workload, SETUP_REPS, env, work, HERE, speed)
    metrics = probes.setup(args.workload)
    runner = workloads.CliRunner(ROOT, work, env) if args.workload == "cli-cold" else None
    jobs = workloads.make_jobs(args.workload, args.seed, metrics, runner)
    references = load_reference(args.workload)
    stored = str(args.seed) in references

    passes, failures = [], []
    deadline = time.perf_counter() + args.seconds
    # a pass starts only if it should end by the deadline, judged by the last one
    while (len(passes) < (1 if args.trace else MIN_PASSES)
           or time.perf_counter() + passes[-1].wall <= deadline):
        first = passes[0].digests if passes else None
        expected = (references.get(str(args.seed), {}) if first is None
                    else {k: v for k, v in first.items() if v is not None})
        passes.append(run_pass(jobs, expected, first is None and stored, speed))
        failures.extend(dict(f, run=f"pass {len(passes)}") for f in passes[-1].failures)
    attempted = len(jobs) * len(passes)
    first = passes[0].digests
    peak_rss_kb = (max(runner.child_rss_kb) if runner
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if not stored and references:
        ref_seed = args.seed % REF_SEEDS
        ref_jobs = workloads.make_jobs(args.workload, ref_seed, metrics, runner)
        ref = run_pass(ref_jobs, references[str(ref_seed)], True, speed)
        attempted += len(ref_jobs)
        failures.extend(dict(f, run=f"reference seed {ref_seed}") for f in ref.failures)
    elif not references:
        failures.append({"job": "*", "run": "reference", "problems": ["no reference file"]})

    # Each job at its median time over the run's passes, at nominal speed.
    by_job = {job.id: [] for job in jobs}
    for p in passes:
        for job, dt in zip(jobs, p.latencies):
            by_job[job.id].append(dt)
    latencies = [dt for p in passes for dt in p.latencies]
    raw = [dt for p in passes for dt in p.raw]
    wall_s = sum(statistics.median(v) for v in by_job.values())
    full = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "job_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "job_ms_p90": (1e3 * quantile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "jobs": (len(jobs), "count"),
        "job_samples": (len(latencies), "count"),
        "passes": (len(passes), "count"),
        "speed_factor_median": (statistics.median(f for p in passes for f in p.factors), "ratio"),
        "pass_wall_s_raw": (statistics.median(p.wall for p in passes), "s"),
        "job_ms_p50_raw": (1e3 * statistics.median(raw), "ms"),
        "job_ms_p90_raw": (1e3 * quantile(raw, 90), "ms"),
    }

    if args.trace:
        tracer = tracing.Tracer().install()
        if runner:
            runner.trace_dir = out_dir / "children"
            runner.trace_dir.mkdir(exist_ok=True)
            for old in runner.trace_dir.glob("*.json"):
                old.unlink()
        try:
            traced = run_pass(jobs, {k: v for k, v in first.items() if v is not None},
                              False, speed, tracer)
        finally:
            tracer.uninstall()
        if runner:
            for path, job in zip(sorted(runner.trace_dir.glob("*.json")), jobs):
                tracer.merge(json.loads(path.read_text()), job.id)
        attempted += len(jobs)
        failures.extend(dict(f, run="traced pass") for f in traced.failures)
        record["traced_outputs_bitwise_equal"] = traced.digests == first
        # span and counter times are raw inside the traced pass; scale them
        # to nominal speed with that pass's median factor, like wall_s
        traced_factor = statistics.median(traced.factors)
        layer = {k: (v / traced_factor if unit == "s" else v, unit)
                 for k, (v, unit) in tracing.layer_metrics(tracer).items()}
        layer["trace.traced_wall_s"] = (sum(traced.latencies), "s")
        layer["trace.untraced_wall_s"] = (wall_s, "s")
        layer["trace.overhead_s"] = (sum(traced.latencies) - wall_s, "s")
        layer["trace.speed_factor"] = (traced_factor, "ratio")
        builds = probes.median_table_builds(PROBE_REPS, env, work, HERE, speed)
        for alg, (size, pairs) in probes.table_sizes().items():
            layer[f"jets.table_build_s.{alg}"] = (builds[alg], "s")
            layer[f"jets.table_size.{alg}"] = (size, "count")
            layer[f"jets.table_pairs.{alg}"] = (pairs, "count")
        layer["cli.import_s"] = (probes.median_import_s(PROBE_REPS, env, work, speed), "s")
        full.update(layer)
        record["hooks_missing"] = tracer.missing
        record["exact_counts"] = tracing.exact_counts(layer)
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}))
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]

    failed = len({(f["run"], f["job"]) for f in failures})
    full["fail_ratio"] = (failed / attempted, "ratio")
    record.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in full.items() if v is not None},
        pass_walls_s=[p.wall for p in passes],
        job_latency_ms={job: [1e3 * dt for dt in v] for job, v in by_job.items()},
        attempted=attempted, failed=failed, failures=failures)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))

    for k, (v, unit) in full.items():
        if v is not None:
            print(f"{k:44s} {v:>16.6g} {unit}")
    for f in failures[:20]:
        print(f"FAILED {f['run']}: {f['job']}: {'; '.join(f['problems'])}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": full[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
