#!/usr/bin/env python3
"""Sweep explicit-formula residuals over t for both kernel families.

For each t on a grid this evaluates the zeros-vs-primes identity with
the Poisson-kernel and odd-family extremal pairs (both signs) and
reports the residual next to its truncation-tail budget.  Useful for
eyeballing how the residual tracks the zero-table horizon.

Output: CSV on stdout (kernel, sign, t, delta, residual, zero_tail,
prime_tail).
"""

import argparse
import csv
import math
import sys

from szeta import explicit_formula as ef
from szeta.numkit import sieve_mangoldt
from szeta.odd_extremal import OddExtremalPair
from szeta.poisson_extremal import PoissonExtremalPair
from szeta.zeta_core import bundled_zeros, load_zeros


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=1.5)
    ap.add_argument("--beta", type=float, default=0.25)
    ap.add_argument("--alpha", type=float, default=0.75)
    ap.add_argument("--m", type=int, default=0)
    ap.add_argument("--t-min", type=float, default=30.0)
    ap.add_argument("--t-max", type=float, default=150.0)
    ap.add_argument("--t-step", type=float, default=20.0)
    ap.add_argument("--zeros", help="zero-ordinate table path")
    args = ap.parse_args()

    zeros = load_zeros(args.zeros) if args.zeros else bundled_zeros()
    table = sieve_mangoldt(
        int(math.ceil(math.exp(2 * math.pi * args.delta))) + 1)
    kernels = (
        ("poisson", PoissonExtremalPair(beta=args.beta,
                                        delta=args.delta)),
        ("odd", OddExtremalPair(m=args.m, alpha=args.alpha,
                                delta=args.delta)),
    )
    w = csv.writer(sys.stdout)
    w.writerow(["kernel", "sign", "t", "delta", "residual",
                "zero_tail", "prime_tail"])
    t = args.t_min
    while t <= args.t_max + 1e-9:
        for name, kernel in kernels:
            for sign in ("+", "-"):
                rep = ef.gw_evaluate(kernel, sign, t, args.delta,
                                     zeros, mangoldt=table)
                w.writerow([name, sign, f"{t:g}", f"{args.delta:g}",
                            f"{rep.residual:.6e}",
                            f"{rep.zero_tail_bound:.3e}",
                            f"{rep.prime_tail_bound:.3e}"])
        t += args.t_step


if __name__ == "__main__":
    main()
