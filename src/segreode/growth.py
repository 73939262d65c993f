"""Coefficient-growth diagnostics for formal series: Gevrey-order estimation
by least squares on log-magnitudes, Cauchy-Hadamard radius estimates, and
exact termination detection.

The Gevrey fit is a heuristic: it diagnoses divergence from finitely many
coefficients and never proves it.  Termination is decided exactly, by
:func:`expected_termination` and ``equiv.formal_f``.  For m = 2, 3 a trivial
monodromy is exactly a terminating f; for m >= 4 it is not ((4,-2) has
trivial monodromy and a divergent f), and there the Gevrey fit is the
pipeline's only divergence evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .series import SeriesError, TruncSeries1

# the least number of nonzero coefficients the Gevrey fit works on
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class TerminationReport:
    terminated: bool
    degree: int | None  # None: the series is identically zero up to truncation


@dataclass(frozen=True)
class GrowthReport:
    gevrey: float
    gevrey_stderr: float
    confidence: tuple      # gevrey +- 2*stderr
    fit_window: tuple
    radius: float
    n_points: int


def termination_detect(s: TruncSeries1) -> TerminationReport:
    """Exact check that all stored coefficients above some degree vanish:
    one zero coefficient at the truncation order decides it, so a series
    supported on an arithmetic progression is run to a degree it reaches
    (:func:`termination_order`)."""
    if not s.nums:
        return TerminationReport(True, None)
    last = s.nums[-1][0] - s.pole
    return TerminationReport(last < s.trunc, last)


def expected_termination(m: int, beta) -> bool:
    """Exact resonance predicate: the recursion for f terminates iff
    beta = l*(l+1)*(m-1)^2 for some integer l >= 0."""
    return _resonance_level(m, beta) is not None


def termination_order(m: int, beta, n: int) -> int:
    """The order to run the recursion for f to, at least n, so that f's last
    coefficient decides termination: f lives on degrees divisible by m-1,
    so a non-resonant n is raised to such a degree where the default fit
    window holds MIN_FIT_POINTS of them, and a resonant f is a polynomial of
    degree l*(m-1), run to max(n, l*(m-1) + 1)."""
    level = _resonance_level(m, beta)
    if level is not None:
        return max(n, level * (m - 1) + 1)
    d = m - 1
    n = -(-n // d) * d
    while n // d - (_default_fit_window(n)[0] - 1) // d < MIN_FIT_POINTS:
        n += d
    return n


def _resonance_level(m: int, beta) -> int | None:
    """The l >= 0 with beta = l*(l+1)*(m-1)^2, where f is a polynomial of
    degree l*(m-1), or None when beta is not resonant."""
    if m < 2:
        raise ValueError(f"the family needs m >= 2, got {m}")
    beta = Fraction(beta)
    if beta < 0 or beta.denominator != 1:
        return None
    t, rem = divmod(int(beta), (m - 1) ** 2)
    r = math.isqrt(1 + 4 * t)
    return (r - 1) // 2 if rem == 0 and r * r == 1 + 4 * t else None


def gevrey_estimate(s: TruncSeries1, window: tuple | None = None) -> GrowthReport:
    """Least-squares fit of log|c_k| ~ s*k*log(k) + k*log(A) + C over the
    nonzero coefficients in the window.

    s ~ 1 signals factorial-type divergence, s ~ 0 a finite radius, s ~ -1
    entire series of exponential type.  The radius estimate is the
    Cauchy-Hadamard value exp(-median(log|c_k|/k)) over the top quarter of
    the window.
    """
    n = s.trunc
    k_min, k_max = window or _default_fit_window(n)
    k_max = min(k_max, n)
    ks = []
    logs = []
    for k in range(max(k_min, 1), k_max + 1):
        c = s.coefficient(k)
        if c.is_zero:
            continue
        ks.append(float(k))
        logs.append(c.log_abs())
    if len(ks) < MIN_FIT_POINTS:
        raise SeriesError(
            f"Gevrey fit needs at least {MIN_FIT_POINTS} nonzero coefficients in "
            f"the window, found {len(ks)}"
        )
    ks_arr = np.array(ks)
    logs_arr = np.array(logs)
    design = np.column_stack([ks_arr * np.log(ks_arr), ks_arr,
                              np.ones_like(ks_arr)])
    coef, *_ = np.linalg.lstsq(design, logs_arr, rcond=None)
    fitted = design @ coef
    # MIN_FIT_POINTS > 3 leaves the three-parameter fit degrees of freedom
    sigma2 = float(np.sum((logs_arr - fitted) ** 2)) / (len(ks) - 3)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    stderr = math.sqrt(max(cov[0, 0], 0.0))
    gevrey = float(coef[0])

    top = len(ks) // 4
    rates = sorted(lg / k for k, lg in zip(ks[-top:], logs[-top:]))
    median_rate = rates[len(rates) // 2]
    if median_rate >= 700:
        radius = 0.0
    elif median_rate <= -700:
        radius = math.inf
    else:
        radius = math.exp(-median_rate)

    return GrowthReport(
        gevrey=gevrey,
        gevrey_stderr=stderr,
        confidence=(gevrey - 2 * stderr, gevrey + 2 * stderr),
        fit_window=(max(k_min, 1), k_max),
        radius=radius,
        n_points=len(ks),
    )


def _default_fit_window(n: int) -> tuple:
    return max(4, n // 8), n


def diagnose(s: TruncSeries1, window: tuple | None = None):
    """The one reading of a series' growth: its termination report, and the
    Gevrey fit over ``window`` unless it terminated (then None)."""
    term = termination_detect(s)
    return term, None if term.terminated else gevrey_estimate(s, window)
