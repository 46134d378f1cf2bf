"""Self-checks of the benchmark; exits non-zero if one fails.

    python3 perfbench/selfcheck.py [--seed 0]

1. A tiny timed run and a tiny traced run of each workload print, as the
   last line, every metric BENCHMARK.json names with its unit, and no
   failed job.
2. Two traced runs of each workload give exactly the same counts
   (``jets.mul_count.*``, ``curvature.scope_count.*``,
   ``transport.rhs_calls``, ``transport.accepted_steps``), and the traced
   pass reproduces the untraced outputs bit for bit.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tower", "dynamics", "cli-cold")


def bench(root, workload, seed, trace):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    seed = p.parse_args(argv).seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in WORKLOADS:
        counts = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, None)):
            proc = bench(ROOT, workload, seed, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed jobs: {proc.stderr[-400:]}")
            if declared is not None:
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} or units differ")
            if trace:
                record = json.loads(
                    (HERE / "out" / f"{workload}-seed{seed}-trace1" / "result.json").read_text())
                counts.append(record["exact_counts"])
                if not record["traced_outputs_bitwise_equal"]:
                    problems.append(f"{tag}: traced outputs differ from untraced ones")
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: checked", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "tower", seed, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for line in problems:
        print("FAIL", line)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
