#!/usr/bin/env python3
"""Product pairs and run time of F's seed program, per built-in and algebra.

For each built-in metric and each (order, x-degree cap) algebra F is seeded
in (a tower scope's planned and full caps at orders 2-7, and the spray's
orders 2-4 at cap 1), print the product pairs one run of F's seed program
sums under the degree-aware lowering (``dense``, kept as the test oracle in
tests/oracles.py), the pairs of the support-aware program the package runs
(``support``, ``JetProgram.pairs``), and the best-of-N wall time of one run
of each on a sample state, in microseconds.

Usage:
    python3 scripts/jet_pairs.py [--repeat 5] [--seed 0]
"""

import argparse
import sys
import time
from pathlib import Path

from finslerlab import expr
from finslerlab.analysis import sample_states
from finslerlab.curvature import SEED_CAP, _plan
from finslerlab.jets import _algebra, seed_block
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import dense_program, dense_run  # noqa: E402 - the oracle lives with the tests

#: every (order, cap) a scope or spray_values seeds F in
ALGEBRAS = sorted(
    {_plan(k)["F"] for k in range(2, 8)} | {(k, SEED_CAP) for k in range(2, 8)}
    | {(2 + depth, 1) for depth in range(3)}
)


def best_us(run, repeat):
    """Best of ``repeat`` timings of ``run()``, in microseconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per program")
    ap.add_argument("--seed", type=int, default=0, help="sample-state seed")
    args = ap.parse_args()

    header = (f"{'metric':14s} {'order':>5s} {'cap':>3s} {'dense':>8s} {'support':>8s}"
              f" {'ratio':>6s} {'dense_us':>9s} {'support_us':>10s}")
    print(header)
    print("-" * len(header))
    totals = [0, 0]
    for name in BUILTIN_NAMES:
        m = build_metric(builtin(name))
        point = sample_states(m, 1, seed=args.seed)[0]
        for order, cap in ALGEBRAS:
            alg = _algebra(2 * m.n, order, cap)
            rows = seed_block(alg, point.x, point.y)
            dense, program = dense_program(m.tape, alg), expr.seed_program(m.tape, alg)
            dense_t = best_us(lambda: dense_run(m.tape, dense, rows), args.repeat)
            support_t = best_us(lambda: expr.run(m.tape, program, rows), args.repeat)
            totals[0] += dense.pairs
            totals[1] += program.pairs
            print(f"{name:14s} {order:5d} {cap:3d} {dense.pairs:8d} {program.pairs:8d}"
                  f" {program.pairs / max(dense.pairs, 1):6.3f} {dense_t:9.1f} {support_t:10.1f}")
    print(f"total pairs: dense {totals[0]}, support {totals[1]}")


if __name__ == "__main__":
    main()
