#!/usr/bin/env python3
"""End-to-end construction: real data (a, b) -> admissible ODE -> family
profile -> defining series -> real normal form, with all reality checks.

Example:
    python scripts/hypersurface_from_real_data.py --m 2 --a "1*w^0" \
        --b "1*w^2" --rect 6,12
"""

import argparse

from segreode import (
    RealData,
    SeriesError,
    build_rho,
    coeff_str,
    ode_from_real_data,
    real_normal_form,
    real_structure_test,
    realty_identity_check,
    solve_psi,
)
from segreode.cli import parse_polynomial, parse_rect


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--a", type=str, required=True,
                    help="real polynomial, e.g. '1*w^0+1/2*w^2'; a leading "
                         "minus needs --a=-1/2*w^0")
    ap.add_argument("--b", type=str, required=True,
                    help="as --a; a leading minus needs --b=-1*w^2")
    ap.add_argument("--rect", type=str, default="6,12")
    args = ap.parse_args()

    # bad input (a polynomial, rectangle or order the construction cannot
    # use) is a usage error; ConfigError is a ValueError
    try:
        nx, ny = parse_rect(args.rect)
        work = nx + ny + 2 * args.m + 2
        data = RealData(args.m, parse_polynomial(args.a, work),
                        parse_polynomial(args.b, work))
        ode = ode_from_real_data(data)
        fam = solve_psi(ode, +1, (nx, ny))
        hyper = build_rho(fam)
        structural = real_structure_test(fam)
        identity = realty_identity_check(hyper)
        nf = real_normal_form(hyper)
    except (ValueError, SeriesError) as exc:
        ap.error(str(exc))

    def cells(row):
        return ", ".join(coeff_str(row.coefficient(j))
                         for j in range(min(5, row.trunc + 1)))

    print(f"P = {ode.p!r}")
    print(f"Q = {ode.q!r}")
    print("\nprofile rows (eta-series per x power):")
    for k in range(2, min(4, nx) + 1):
        print(f"  psi_{k}: [{cells(fam.psi.row(k))}, ...]")
    assert structural.ok, "dual/conjugated families differ"
    assert identity.is_zero, "reality identity failed"
    print(f"\nnormal form sign: {nf.sign:+d}")
    for k in sorted(nf.hks):
        print(f"  h_{k}: [{cells(nf.hks[k])}, ...]")
    print("\nall reality checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
