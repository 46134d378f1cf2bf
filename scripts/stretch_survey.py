#!/usr/bin/env python3
"""Survey the relative-stretch ratio across the example corpus.

For each built-in metric, fit the scalar c in Sigma = c F (C_| - C_|) over a
batch of sampled states and report the fitted value, its spread across the
batch, and the fit residual.  Metrics whose stretch tensor vanishes (locally
Minkowski, Berwald, Riemannian) have no ratio to fit; they are reported as
such rather than forced through the regression.

Usage:
    python3 scripts/stretch_survey.py [--count 20] [--seed 0]
"""

import argparse

from finslerlab import analysis
from finslerlab.errors import FinslerError, UndefinedFit
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=20, help="states per metric")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = f"{'metric':16s} {'n':>2s} {'c':>16s} {'spread':>10s} {'residual':>10s}  label"
    print(header)
    print("-" * len(header))
    for name in BUILTIN_NAMES:
        metric = build_metric(builtin(name))
        try:
            fit = analysis.fit_relative_stretch(
                metric, count=args.count, seed=args.seed
            )
        except UndefinedFit as e:
            print(f"{name:16s} {metric.n:2d} {'-':>16s} {'-':>10s} {'-':>10s}  no fit: {e}")
            continue
        except FinslerError as e:
            print(f"{name:16s} {metric.n:2d} {'-':>16s} {'-':>10s} {'-':>10s}  error: {e}")
            continue
        note = "" if fit.spread <= 1e-3 else "  [ratio not constant]"
        print(
            f"{name:16s} {metric.n:2d} {fit.c:16.12f} {fit.spread:10.2e} "
            f"{fit.residual:10.2e}  {fit.convention_label}{note}"
        )


if __name__ == "__main__":
    main()
