#!/usr/bin/env python3
"""Sweep the Laplace parameter and cross-check determinant vs point process.

One CSV row per s value: Nystrom determinant, second-order control-variate
Monte-Carlo estimate with standard error, their sigma distance, then the
plain Monte-Carlo mean and standard error, the spectra's one-point check
mean(Y) - E[Y] and two-point check mean((Y - E[Y])^2) - Var(Y) for
Y = log P, each with its standard error, and the variance ratio of the
control-variate samples to the plain ones.
"""
import argparse
import sys

from airylab.fredholm import (KernelParams, determinant_vs_point_process,
                              truncation_threshold)
from airylab.sao import SaoConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=float, nargs="+", default=[0.25, 0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--grid-n", type=int, default=2 ** 12)
    ap.add_argument("--domain-l", type=float, default=40.0)
    ap.add_argument("--factor-tol", type=float, default=1e-12)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cap = max(truncation_threshold(KernelParams(s=s, t=args.t), args.factor_tol)
              for s in args.s)
    config = SaoConfig(beta=2.0, domain_l=args.domain_l, grid_n=args.grid_n, lambda_cap=cap)
    cases = [(s, args.t, args.factor_tol) for s in args.s]
    rows = determinant_vs_point_process(cases, config, args.samples, args.seed)
    print(",".join(["s,t,det,mc_mean,mc_stderr,sigma_distance", *rows[0][1].diagnostics()]))
    for s, (det, est, sigma) in zip(args.s, rows):
        values = [s, args.t, det, est.mean, est.stderr, sigma, *est.diagnostics().values()]
        print(",".join(f"{v:.17g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
