"""Cold probes, each run in a fresh interpreter so that nothing is warm.

    python perfbench/probes.py setup <workload>   # import, metric builds, algebra first touch
    python perfbench/probes.py tables             # cold jet-table builds, printed as JSON

The parent times ``setup`` from outside (interpreter start included) and
reads ``tables`` from the child's stdout; both are scaled to nominal
machine speed with the speed factor measured around the child.  Only public API is used: an
algebra is touched by seeding coordinate jets with ``seed_variables`` and
taking one product and one derivative.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from math import comb

TABLE_DIMS = (2, 3)   # manifold dimensions; jets live in 2n variables
TABLE_ORDERS = range(1, 8)


def _touch(n, order):
    from finslerlab.jets import JetConfig, seed_variables

    xj, yj = seed_variables([0.1] * n, [1.0] * n, JetConfig(n=n, order=order))
    (xj[0] * yj[-1]).deriv(0)


def setup(workload):
    """What a workload needs before its first job; returns the built metrics."""
    import finslerlab.cli  # noqa: F401 - importing every module is part of set-up
    import workloads

    metrics = workloads.build_metrics(workloads.WORKLOAD_METRICS[workload])
    for n in sorted({m.n for m in metrics.values()}):
        for order in range(1, workloads.WORKLOAD_MAX_ORDER[workload] + 1):
            _touch(n, order)
    return metrics


def table_builds():
    """Cold minus warm seconds of the first touch of each algebra, ascending order."""
    import finslerlab.jets  # noqa: F401 - keep the import out of the first timing

    out = {}
    for n in TABLE_DIMS:
        for order in TABLE_ORDERS:
            t0 = time.perf_counter()
            _touch(n, order)
            t1 = time.perf_counter()
            _touch(n, order)
            t2 = time.perf_counter()
            out[f"{2 * n}x{order}"] = (t1 - t0) - (t2 - t1)
    return out


def table_sizes():
    """Coefficients C(nv+K, K) and product pairs C(2nv+K, K) of each algebra."""
    return {f"{2 * n}x{k}": (comb(2 * n + k, k), comb(4 * n + k, k))
            for n in TABLE_DIMS for k in TABLE_ORDERS}


# --- parent side ---


def run_child(argv, env, cwd, speed):
    """Run one probe; returns (wall seconds, speed factor around it, stdout).

    Raises on a non-zero exit.
    """
    before = speed.factor()
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    factor = 0.5 * (before + speed.factor())
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return wall, factor, proc.stdout


def median_setup_s(workload, reps, env, cwd, here, speed):
    """Median over ``reps`` fresh set-ups, each at nominal speed."""
    argv = [sys.executable, str(here / "probes.py"), "setup", workload]
    runs = [run_child(argv, env, cwd, speed) for _ in range(reps)]
    return statistics.median(wall / factor for wall, factor, _ in runs)


def median_table_builds(reps, env, cwd, here, speed):
    argv = [sys.executable, str(here / "probes.py"), "tables"]
    runs = []
    for _ in range(reps):
        _, factor, out = run_child(argv, env, cwd, speed)
        runs.append({alg: s / factor for alg, s in json.loads(out).items()})
    return {alg: statistics.median(r[alg] for r in runs) for alg in runs[0]}


def median_import_s(reps, env, cwd, speed):
    argv = [sys.executable, "-c", "import finslerlab.cli"]
    return statistics.median(wall / factor for wall, factor, _ in
                             (run_child(argv, env, cwd, speed) for _ in range(reps)))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup(sys.argv[2])
    elif sys.argv[1:] == ["tables"]:
        print(json.dumps(table_builds()))
    else:
        sys.exit("usage: probes.py setup <workload> | probes.py tables")
