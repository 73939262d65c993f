#!/usr/bin/env python3
"""Scan a beta grid for one order m: monodromy triviality, recursion
termination, and the Gevrey order of the power-series solution half.

Example:
    python scripts/divergence_scan.py --m 2 --beta-max 12 --order 200
"""

import argparse
from fractions import Fraction

from segreode import (
    diagnose,
    expected_termination,
    formal_f,
    residue_analysis,
    termination_order,
)
from segreode.cli import LIBRARY_ERRORS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--beta-min", type=int, default=0)
    ap.add_argument("--beta-max", type=int, default=12)
    ap.add_argument("--order", type=int, default=200,
                    help="series order for the growth fit (raised past the "
                         "degree of a polynomial f, and until the fit window "
                         "holds enough coefficients)")
    args = ap.parse_args()
    if args.m < 2:
        ap.error(f"the family needs m >= 2, got --m {args.m}")
    if args.order < 0:
        ap.error(f"--order needs to be >= 0, got {args.order}")
    if args.beta_min > args.beta_max:
        ap.error(f"the beta range {args.beta_min}..{args.beta_max} is empty")

    header = f"{'beta':>6}  {'monodromy':>10}  {'terminates':>10}  " \
             f"{'degree':>6}  {'gevrey':>8}  {'radius':>10}"
    print(header)
    print("-" * len(header))
    for beta in range(args.beta_min, args.beta_max + 1):
        try:
            mono = residue_analysis(args.m, Fraction(beta))
            # f is run to a degree it reaches, past the degree of a
            # polynomial f and far enough for the fit
            order = termination_order(args.m, beta, args.order)
            term, report = diagnose(formal_f(args.m, beta, order))
        except LIBRARY_ERRORS as exc:
            ap.error(f"beta = {beta}: {exc}")
        assert term.terminated == expected_termination(args.m, beta)
        if report is None:
            growth_str = f"{'-':>8}  {'inf':>10}"
            degree = "-" if term.degree is None else term.degree
        else:
            growth_str = f"{report.gevrey:8.3f}  {report.radius:10.3e}"
            degree = "-"
        print(f"{beta:>6}  {'trivial' if mono.trivial else 'nontrivial':>10}  "
              f"{str(term.terminated):>10}  {str(degree):>6}  {growth_str}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
