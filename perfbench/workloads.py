"""Workload inputs, built with no ``segreode`` import.

Each workload's inputs are fixed: ``inputs`` returns plain data (ints and
``Fraction``s) and ``run_config`` turns it into the ``RunConfig`` the
pipeline receives.  They do not depend on ``--seed``, because the run time
depends strongly on the drawn values: a seeded beta for equiv-deep moved
one member's time between 3.4 and 6.2 s, and seeded signs alone moved
explicit-dense between 6.3 and 9.1 s, so a cross-seed spread read the draw
instead of the program.
"""

from __future__ import annotations

import random
from fractions import Fraction

# sha256 of each workload's serialised report (cli.emit's format).
REFERENCE_DIGEST = {
    "grid-acceptance":
        "1378abf19130d1e3fd275a859c729a6a15128350c90f668a9112f10ab2e04237",
    "equiv-deep":
        "600a9d36f063d26c43352b0e754d26ef0e6eee529725e7abaacf00676ea24b11",
    "explicit-dense":
        "03d2fc34624e5d5d507b59f15fe98423208227ac501984418055d20897563408",
}

GRID = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2))

EQUIV_DEGREE = 160
EQUIV_CHECKS = ("coupled", "selfmap", "monodromy", "growth")
# Two m = 2 members (beta with denominator 1 and 3) and one m = 3 member;
# none terminates (beta != l(l - m + 1)), so growth has a divergent series.
EQUIV_MEMBERS = ((2, Fraction(1)), (2, Fraction(-1, 3)), (3, Fraction(5, 2)))

DENSE_M = 2
DENSE_RECT = (8, 24)
DENSE_CHECKS = ("roundtrip", "reality", "realty")
DENSE_NUM = 9
DENSE_DEN = 9


def working_order(m: int, rect: tuple, degree: int) -> int:
    """The truncation FamilyContext works at (its ``work`` attribute)."""
    return max(rect[0] + rect[1] + 2 * m + 2, degree + 2 * m + 10)


def dense_data(degree: int = 40) -> dict:
    """Real data (a, b) with a(0) = 1 and every other coefficient up to the
    working order a nonzero rational p/q, |p| <= 9, 1 <= q <= 9, drawn from
    one fixed pseudo-random stream."""
    rng = random.Random("explicit-dense/0")
    work = working_order(DENSE_M, DENSE_RECT, degree)

    def draw() -> Fraction:
        while True:
            value = Fraction(rng.randint(-DENSE_NUM, DENSE_NUM),
                             rng.randint(1, DENSE_DEN))
            if value:
                return value

    a = [Fraction(1)] + [draw() for _ in range(work)]
    b = [draw() for _ in range(work + 1)]
    return {"m": DENSE_M, "a": a, "b": b}


def inputs(name: str) -> dict:
    """Plain-data inputs of a workload: families, checks, degree, rect and,
    for explicit-dense, the real data."""
    if name == "grid-acceptance":
        return {"families": [(m, Fraction(b)) for m, b in GRID],
                "checks": None, "degree": 40, "rect": (8, 24)}
    if name == "equiv-deep":
        return {"families": list(EQUIV_MEMBERS),
                "checks": list(EQUIV_CHECKS), "degree": EQUIV_DEGREE,
                "rect": (8, 24)}
    if name == "explicit-dense":
        return {"families": [], "explicit": dense_data(),
                "checks": list(DENSE_CHECKS), "degree": 40,
                "rect": DENSE_RECT}
    raise KeyError(name)


WORKLOADS = ("grid-acceptance", "equiv-deep", "explicit-dense")


def run_config(spec: dict):
    """The ``RunConfig`` for plain-data inputs (imports ``segreode``)."""
    from segreode.cli import ALL_CHECKS, RunConfig
    from segreode.coefficients import QI
    from segreode.series import TruncSeries1

    explicit = None
    if spec.get("explicit") is not None:
        data = spec["explicit"]

        def series(cells):
            return TruncSeries1([QI.of(c) for c in cells], 0,
                                len(cells) - 1).to_json()

        explicit = {"m": data["m"], "a": series(data["a"]),
                    "b": series(data["b"])}
    return RunConfig(
        families=list(spec["families"]),
        explicit=explicit,
        checks=list(spec["checks"] or ALL_CHECKS),
        degree=spec["degree"],
        rect=tuple(spec["rect"]),
        jobs=1,
    )
