#!/usr/bin/env python3
"""Tabulate L1 norms of an exponential sum along an N-ladder.

Prints the raw integral plus the scalings the experiments track: l1/sqrt(N),
l1/sqrt(N log N), and the support-specific growth ratio (the quantity the
suite checks against its empirical floor).

    python3 scripts/l1_growth_table.py --kind mobius
    python3 scripts/l1_growth_table.py --kind mangoldt --powers 8 16
"""

import argparse
import math
import sys

from sievenorm import build_tables, coefficient_sequence, l1_norm, l2_norm_sq
from sievenorm.experiments import GROWTH_RATIOS


def fraction_of_ceiling(n: int, l1: float, l2: float) -> float:
    """Growth ratio for kinds without a theorem: l1 as a fraction of sqrt(l2)."""
    return l1 / math.sqrt(l2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", default="mobius", help="coefficient sequence kind")
    ap.add_argument(
        "--powers",
        type=int,
        nargs=2,
        default=(8, 14),
        metavar=("LO", "HI"),
        help="ladder runs over N = 2^LO .. 2^HI (default 8 14)",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-4)
    args = ap.parse_args(argv)

    lo, hi = args.powers
    if not 1 <= lo <= hi:
        ap.error("--powers wants 1 <= LO <= HI")
    ladder = [1 << k for k in range(lo, hi + 1)]
    growth_ratio = GROWTH_RATIOS.get(args.kind, fraction_of_ceiling)
    tables = build_tables(max(64, ladder[-1]))

    print(f"kind={args.kind} seed={args.seed} rel_tol={args.tol:g}")
    header = f"{'N':>8} {'l1':>12} {'l1/sqrt(N)':>12} {'l1/sqrt(NlogN)':>14} {'growth':>10}"
    print(header)
    print("-" * len(header))
    for n in ladder:
        seq = coefficient_sequence(tables, args.kind, n, seed=args.seed)
        est = l1_norm(seq, rel_tol=args.tol)
        l2 = l2_norm_sq(seq)
        row = (
            f"{n:>8d} {est.value:>12.5g} {est.value / math.sqrt(n):>12.5g} "
            f"{est.value / math.sqrt(n * math.log(n)):>14.5g} "
            f"{growth_ratio(n, est.value, l2):>10.4g}"
        )
        print(row + ("" if est.converged else "  (not converged)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
