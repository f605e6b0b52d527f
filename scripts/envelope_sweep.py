#!/usr/bin/env python3
"""Sweep bound envelopes against measured values of the smoothed
argument function.

For a grid of (n, alpha) the script compares S_n measured from the zeta
side at a desk-scale t with the envelope main terms (report-only: the
asymptotic region is far beyond any desk-scale t, so the `region_ok`
column is expected to be False and the comparison is a sanity
observation, not a verification).

Output: CSV on stdout (n, alpha, t, lower_main, upper_main, err_scale,
observed, inside, region_ok).
"""

import argparse
import csv
import sys

from szeta import bounds as bd
from szeta.zeta_core import bundled_zeros, load_zeros


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=500.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--slack", type=float, default=10.0)
    ap.add_argument("--zeros", help="zero-ordinate table path")
    args = ap.parse_args()

    zeros = load_zeros(args.zeros) if args.zeros else bundled_zeros()
    w = csv.writer(sys.stdout)
    w.writerow(["n", "alpha", "t", "lower_main", "upper_main",
                "err_scale", "observed", "inside", "region_ok"])
    for n in (-1, 0, 1, 2):
        for alpha in (0.6, 0.7, 0.8, 0.9):
            chk = bd.check_envelope(n, alpha, args.t, args.c,
                                    zeros=zeros, slack=args.slack)
            env = chk.envelope
            w.writerow([n, f"{alpha:g}", f"{args.t:g}",
                        f"{env.lower_main:.6e}",
                        f"{env.upper_main:.6e}",
                        f"{env.err_scale:.6e}",
                        f"{chk.observed:.6e}",
                        chk.inside, chk.region_ok])


if __name__ == "__main__":
    main()
