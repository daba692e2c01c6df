#!/usr/bin/env python3
"""Reproduce the reference Arakawa-Kaneko zeta values along every route.

For each (k, m) this prints the negative-moment quadrature, the Mellin
integral, and a truncated multiple-zeta-star sum, with their mutual
discrepancies.  Everything is deterministic; the k = 3 moment batch runs on a
three-dimensional grid and takes well under a second.

    python scripts/zeta_values.py --k-max 3 --terms 20000
"""
import argparse
import time

from akzeta import zetanum


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=3, choices=(2, 3))
    ap.add_argument("--terms", type=int, default=200000, help="MZSV summation cutoff")
    args = ap.parse_args()

    print(f"{'k':>2} {'m':>2} {'moment route':>16} {'mellin route':>16} "
          f"{'mzsv sum':>16} {'|mom-mel|':>10} {'|mel-mz|':>10}")
    for k in range(2, args.k_max + 1):
        t0 = time.perf_counter()
        batch = zetanum.negative_moment_batch(k, [1, 2, 3], 0.0)
        elapsed = time.perf_counter() - t0
        for m in (1, 2, 3):
            moment = (-1) ** m * batch[m].value
            mellin = zetanum.ak_zeta_mellin(k, m)
            # zeta_k(m) = zeta*(k+1, {1}^{m-1})
            sig = (k + 1,) + (1,) * (m - 1)
            mz, bound = zetanum.mz_truncated(sig, args.terms, True)
            print(f"{k:>2} {m:>2} {moment:16.10f} {mellin:16.10f} {mz:16.10f} "
                  f"{abs(moment - mellin):10.2e} {abs(mellin - mz):10.2e}")
        print(f"   (moment batch for k={k}: {elapsed:.1f}s, "
              f"{batch[1].levels_used} refinement levels, "
              f"delta {batch[1].convergence_delta:.1e})")


if __name__ == "__main__":
    main()
