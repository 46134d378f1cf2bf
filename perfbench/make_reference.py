"""Regenerate the stored reference digests of the benchmark.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each workload's job list for seeds 0 .. REF_SEEDS-1 and
writes ``perfbench/reference/<workload>.json``.  It refuses to write a
file if any job fails its physics checks.  Regenerate only in a change
that means to alter the program's outputs, and say so in that change.
"""

import json
import sys

import run  # sets the thread pins before numpy loads


def main(names):
    sys.path.insert(0, str(run.SRC))
    import probes
    import workloads

    for workload in names or workloads.WORKLOADS:
        metrics = probes.setup(workload)
        work = run.HERE / "out" / "make-reference"
        work.mkdir(parents=True, exist_ok=True)
        runner = workloads.CliRunner(run.ROOT, work, run.child_env())
        seeds, problems, speed = {}, [], run.SpeedProbe()
        for seed in range(run.REF_SEEDS):
            jobs = workloads.make_jobs(workload, seed, metrics, runner)
            p = run.run_pass(jobs, {}, False, speed)
            problems.extend(dict(f, seed=seed) for f in p.failures)
            seeds[str(seed)] = p.digests
            print(f"{workload} seed {seed}: {p.wall:.3f} s, {len(p.failures)} failed", flush=True)
        if problems:
            print(json.dumps(problems, indent=1), file=sys.stderr)
            return 1
        doc = {
            "environment": run.environment(None),
            "tolerance": {"relative": workloads.REL_TOL, "absolute": workloads.ABS_TOL},
            "seeds": seeds,
        }
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
