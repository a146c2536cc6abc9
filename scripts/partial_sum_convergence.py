#!/usr/bin/env python3
"""Track partial-sum variance against its limit as the horizon grows.

Runs the default causal power kernel (or a kernel JSON) over a grid of
path lengths and writes per-n empirical variances with Monte Carlo
errors next to the limiting value.
"""
from __future__ import annotations

import argparse
import csv

import numpy as np

from mfbm import limit_target, mfbm_covariance, simulate_partial_sums
from mfbm.limits import KernelRegime, KernelSide, KernelSpec, load_kernel_spec


def default_spec() -> KernelSpec:
    side = KernelSide(KernelRegime.POWER_POS, alpha=1.0, d=0.2)
    return KernelSpec(plus=((side,),), minus=((None,),))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kernels", default=None, help="kernel JSON (default: causal power, d=0.2)")
    ap.add_argument("--n-grid", default="512,1024,2048,4096")
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise", default="gaussian", choices=("gaussian", "rademacher"))
    ap.add_argument("--out", default="partial_sum_convergence.csv")
    args = ap.parse_args()

    spec = load_kernel_spec(args.kernels) if args.kernels else default_spec()
    target = limit_target(spec)
    rows = []
    for n_text in args.n_grid.split(","):
        n = int(n_text)
        out = simulate_partial_sums(
            spec,
            n,
            [args.tau],
            seed=args.seed,
            replicates=args.replicates,
            noise=args.noise,
        )
        for i in range(spec.p):
            want = mfbm_covariance(target.params, i, i, args.tau, args.tau)
            prod = out[:, 0, i] ** 2
            got = float(prod.mean())
            se = float(prod.std(ddof=1) / np.sqrt(args.replicates))
            rows.append([n, i, got, want, se, abs(got / want - 1.0)])
            print(
                f"n={n} component {i}: variance {got:.4f} "
                f"target {want:.4f} rel err {abs(got / want - 1.0):.4f}"
            )
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["n", "component", "empirical_var", "target_var", "mc_stderr", "rel_err"]
        )
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
