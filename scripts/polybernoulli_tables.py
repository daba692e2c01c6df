#!/usr/bin/env python3
"""Print exact poly-Bernoulli tables with a three-route cross-check.

Every value is computed independently by generating-function extraction, by
the symbolic moment route, and by the Stirling closed form (through the
binomial B->C conversion for the C family); the script aborts loudly if any
pair disagrees.
"""
import argparse
import sys
import time

from akzeta.polybernoulli import poly_bernoulli_series, route_disagreement


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--variant", choices=("B", "C"), default="B")
    args = ap.parse_args()

    t0 = time.perf_counter()
    for k in range(1, args.k_max + 1):
        series = poly_bernoulli_series(args.n_max, k, args.variant)
        numbers = [series.number(n) for n in range(args.n_max + 1)]
        bad = route_disagreement(numbers, k, args.variant)
        if bad is not None:
            sys.exit(
                f"route mismatch at n={bad['n']}, k={k}: series {bad['series']}, "
                f"umbral {bad['umbral']}, stirling {bad['stirling']}"
            )
        print(f"-- k = {k} ({args.variant} family)")
        for n, val in enumerate(numbers):
            print(f"  n={n:2d}  {val}")
    print(f"all values cross-checked (series/umbral/stirling) in {time.perf_counter()-t0:.1f}s")


if __name__ == "__main__":
    main()
