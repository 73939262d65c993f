#!/usr/bin/env python3
"""Compare the exact monodromy eigenvalue predictions with contour
integration over a (m, beta) grid and print the deviations and each
member's verdict, the one the ``monodromy`` check reads
(``NumericMonodromy.ok``); exits 1 when any member is not ok.

Example:
    python scripts/monodromy_grid.py --m 2 3 --beta-min -3 --beta-max 6
"""

import argparse

from segreode import numeric_monodromy
from segreode.cli import LIBRARY_ERRORS
from segreode.monodromy import check_contour


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, nargs="+", default=[2])
    ap.add_argument("--beta-min", type=int, default=-3)
    ap.add_argument("--beta-max", type=int, default=6)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()
    if min(args.m) < 2:
        ap.error(f"the family needs m >= 2, got --m {min(args.m)}")
    try:
        check_contour(args.radius, args.tol)
    except ValueError as exc:
        ap.error(str(exc))

    header = f"{'m':>3} {'beta':>6}  {'trivial':>8}  {'lambda':>24}  " \
             f"{'deviation':>10}  {'det dev':>10}  {'ok':>5}"
    print(header)
    print("-" * len(header))
    failed = 0
    for m in args.m:
        for beta in range(args.beta_min, args.beta_max + 1):
            try:
                num = numeric_monodromy(m, beta, args.radius, args.tol)
            except LIBRARY_ERRORS as exc:
                ap.error(f"m = {m}, beta = {beta}: {exc}")
            lam = ", ".join(f"{l.real:.3g}{l.imag:+.3g}i"
                            for l in num.exact.residue_eigenvalues)
            failed += not num.ok
            print(f"{m:>3} {beta:>6}  {str(num.exact.trivial):>8}  {lam:>24}  "
                  f"{num.deviation:10.2e}  {num.det_deviation:10.2e}  "
                  f"{str(num.ok):>5}")
    print(f"\nmembers not ok: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
