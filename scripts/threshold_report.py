#!/usr/bin/env python3
"""Print a quick table of GME and LHV thresholds for the standard families.

The first table covers stars, paths and cycles up to ``--max-n`` vertices.
The second gives the exact p_w of the 2D cluster states grid:2x2 to grid:6x6
next to their level-2 p_F.  The third gives p_F at levels 2, 3 and 4 on
grid:LxL for L = 8 to 100: the level-3 and level-4 corrections to the
level-2 thresholds of the 2D cluster states.

Usage: python scripts/threshold_report.py [--max-n 8]
"""

import argparse

from rgstates import SizeLimitError, generate, gme_threshold, lhv_bound, lhv_threshold


def fmt(value, digits=6):
    return f"{value:.{digits}f}" if value is not None else "   none"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    print(f"{'graph':>10}  {'p_w':>8}  {'p_F':>8}  {'D':>6}  {'p_lhv':>8}")
    for family in ("star", "path", "cycle"):
        start = 3 if family == "cycle" else 2
        for n in range(start, args.max_n + 1):
            g = generate(f"{family}:{n}")
            p_w = gme_threshold(g)
            p_f = gme_threshold(g, level=2)
            try:
                d = lhv_bound(g)
            except SizeLimitError:
                d = None
            p_lhv = lhv_threshold(g, level=2, d=d) if d is not None else None
            d_text = f"{d:.4f}" if d is not None else "  n/a"
            print(f"{family + ':' + str(n):>10}  {fmt(p_w):>8}  {fmt(p_f):>8}"
                  f"  {d_text:>6}  {fmt(p_lhv):>8}")

    print()
    print(f"{'graph':>10}  {'p_w':>8}  {'p_F':>8}")
    for rows in range(2, 7):
        for cols in range(rows, 7):
            spec = f"grid:{rows}x{cols}"
            g = generate(spec)
            print(f"{spec:>10}  {fmt(gme_threshold(g)):>8}"
                  f"  {fmt(gme_threshold(g, level=2)):>8}")

    print()
    print(f"{'graph':>12}  {'p_F(2)':>11}  {'p_F(3)':>11}  {'p_F(4)':>11}")
    for side in (8, 10, 20, 50, 100):
        spec = f"grid:{side}x{side}"
        g = generate(spec)
        print(f"{spec:>12}  " + "  ".join(
            f"{fmt(gme_threshold(g, level=level), 9):>11}" for level in (2, 3, 4)))


if __name__ == "__main__":
    main()
