#!/usr/bin/env python3
"""Print exact poly-Bernoulli tables with a three-route cross-check.

Every value is computed independently by generating-function extraction, by
the symbolic moment route, and by the Stirling closed form; the script
aborts loudly if any pair disagrees.
"""
import argparse
import sys
import time

from akzeta.polybernoulli import (
    poly_bernoulli_series,
    poly_bernoulli_stirling,
    umbral_numbers,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--variant", choices=("B", "C"), default="B")
    args = ap.parse_args()

    t0 = time.perf_counter()
    for k in range(1, args.k_max + 1):
        series = poly_bernoulli_series(args.n_max, k, args.variant)
        umbral = umbral_numbers(args.n_max, k, args.variant)
        print(f"-- k = {k} ({args.variant} family)")
        for n in range(args.n_max + 1):
            val = series.number(n)
            if umbral[n] != val:
                sys.exit(f"route mismatch at n={n}, k={k}: umbral {umbral[n]} != {val}")
            if args.variant == "B" and poly_bernoulli_stirling(n, k) != val:
                sys.exit(f"route mismatch at n={n}, k={k}: stirling != {val}")
            print(f"  n={n:2d}  {val}")
    routes = "series/umbral/stirling" if args.variant == "B" else "series/umbral"
    print(f"all values cross-checked ({routes}) in {time.perf_counter()-t0:.1f}s")


if __name__ == "__main__":
    main()
