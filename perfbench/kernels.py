"""Series kernel timings on operands taken from the workloads' artifacts.

The operands are rho of the beta-family member (2,1) (small coefficients,
sparse P and Q), rho of the explicit-dense member (dense P and Q, large
coefficients), each at rect 8x24 and at the ROADMAP's larger size 12x36,
and the formal solutions f, u of (2,1).
Each kernel is repeated until its calls add up to MIN_TOTAL_S seconds, so
one slower than that runs once; the median call time is reported in
milliseconds.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import workloads

MIN_TOTAL_S = 0.5
RECTS = ((8, 24), (12, 36))
UNIVARIATE = (40, 80, 160)


def _median_ms(fn) -> float:
    times = []
    total = 0.0
    while total < MIN_TOTAL_S:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return statistics.median(times) * 1e3


def _dense_data():
    """The explicit-dense member's real data, as ``cli._run_one`` builds it."""
    from segreode.ode import RealData
    from segreode.series import TruncSeries1

    spec = workloads.inputs("explicit-dense")
    data = workloads.run_config(spec).explicit
    return RealData(data["m"], TruncSeries1.from_json(data["a"]),
                    TruncSeries1.from_json(data["b"]))


def names() -> list:
    """Every kernel metric name, in report order."""
    out = []
    for op in ("mul2", "substitute_y"):
        for label in ("rho21", "dense"):
            out += [f"series.kernel.{op}.{label}.{nx}x{ny}"
                    for nx, ny in RECTS]
    out += [f"series.kernel.exp2.{label}.8x24" for label in ("rho21", "dense")]
    out += [f"series.kernel.mul1.n{n}" for n in UNIVARIATE]
    out += [f"series.kernel.{op}.n160" for op in ("log1", "divide1",
                                                  "pow_frac1")]
    return out


def measure() -> dict:
    from segreode.cli import FamilyContext
    from segreode.coefficients import QI
    from segreode.equiv import formal_solutions
    from segreode.series import divide

    dense = _dense_data()
    out = {}
    for nx, ny in RECTS:
        for label, ctx in (
                ("rho21", FamilyContext(2, beta=Fraction(1), rect=(nx, ny))),
                ("dense", FamilyContext(dense.m, data=dense, rect=(nx, ny)))):
            rho = ctx.hyper().rho
            rho_bar = rho.conj()
            size = f"{nx}x{ny}"
            out[f"series.kernel.mul2.{label}.{size}"] = _median_ms(
                lambda: rho * rho_bar)
            out[f"series.kernel.substitute_y.{label}.{size}"] = _median_ms(
                lambda: rho.substitute_y(rho_bar))
            if size == "8x24":
                # the exponent build_rho exponentiates
                fam = ctx.family()
                arg = fam.psi.shift_y(fam.m - 1).scale(QI(0, fam.sign))
                out[f"series.kernel.exp2.{label}.{size}"] = _median_ms(arg.exp)

    pair = formal_solutions(2, Fraction(1), max(UNIVARIATE))
    f, u = pair.f, pair.u
    for n in UNIVARIATE:
        fn, un = f.truncate(n), u.truncate(n)
        out[f"series.kernel.mul1.n{n}"] = _median_ms(lambda: fn * un)
    out["series.kernel.log1.n160"] = _median_ms(f.log)
    out["series.kernel.divide1.n160"] = _median_ms(lambda: divide(u, f))
    out["series.kernel.pow_frac1.n160"] = _median_ms(
        lambda: f.pow_frac(Fraction(1, 1 - pair.m)))
    return {name: out[name] for name in names()}
