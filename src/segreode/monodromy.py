"""Monodromy of the family ODE around its singular point: exact eigenvalue
prediction from the Fuchsian residue at infinity, triviality classification,
and an independent numerical check by contour integration of the ODE that
``ode.beta_family`` builds, the one the exact checks verify.

In the variable t = 1/w the first-order system for (z, z'w) is Fuchsian with
residue matrix [[0, -1], [-beta, m-1]], so the residue eigenvalues solve

    lambda^2 - (m-1)*lambda - beta = 0,

and the monodromy eigenvalue set is {exp(2*pi*i*lambda_j)}.  The set is
closed under inversion (the eigenvalue sum m-1 is an integer), which makes
the comparison with a numerically integrated loop independent of the loop
orientation.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._dop853 import dop853
from .ode import beta_family

TWO_PI = 2.0 * math.pi

# Largest accepted numeric eigenvalue deviation, relative to the predicted
# eigenvalue moduli (see NumericMonodromy.relative_deviation).
DEVIATION_TOL = 1e-6

# Smallest accepted integration radius: closer to the irregular singularity
# at w = 0 the system is numerically stiff.
MIN_RADIUS = 0.1


def _finite_real(x) -> bool:
    return (not isinstance(x, bool) and isinstance(x, numbers.Real)
            and math.isfinite(x))


def check_contour(radius, tol) -> None:
    """Raise ValueError for a contour numeric_monodromy does not integrate:
    a radius that is not finite or below MIN_RADIUS, or a tolerance that is
    not finite and positive (step-size control never settles on NaN)."""
    if not _finite_real(radius):
        raise ValueError(f"radius needs to be a finite number, got {radius!r}")
    if radius < MIN_RADIUS:
        raise ValueError(
            f"radius {radius} rejected: integrating closer than {MIN_RADIUS} "
            "to the irregular singularity is numerically stiff"
        )
    if not _finite_real(tol) or tol <= 0:
        raise ValueError(f"tol needs to be a finite number > 0, got {tol!r}")


@dataclass(frozen=True)
class NumericMonodromy:
    matrix: tuple
    eigenvalues: tuple
    deviation: float
    # deviation over max(1, |p0|, |p1|) for the predicted eigenvalues p0, p1:
    # the integrator's tolerance is relative, and for negative beta the
    # predicted moduli grow like exp(pi*sqrt(-4*beta - (m-1)^2)), so an
    # absolute bound would reject accurate integrations
    relative_deviation: float
    det_deviation: float
    radius: float
    tol: float
    n_evaluations: int


@dataclass(frozen=True)
class MonodromyReport:
    m: int
    beta: Fraction
    eigenvalue_sum: int          # m - 1
    eigenvalue_product: Fraction  # -beta
    discriminant: Fraction       # (m-1)^2 + 4*beta
    residue_eigenvalues: tuple   # complex pair
    predicted_eigenvalues: tuple  # exp(2*pi*i*lambda_j)
    trivial: bool
    integer_eigenvalues: tuple | None = None


def residue_analysis(m: int, beta) -> MonodromyReport:
    """Exact eigenvalues of the residue quadratic and the integer test.

    The monodromy is trivial iff both roots are integers, i.e. iff beta is an
    integer with discriminant (m-1)^2 + 4*beta a perfect square of the same
    parity as m-1; equivalently beta = l*(l-m+1) for an integer l.
    """
    if m < 2:
        raise ValueError(f"monodromy analysis needs m >= 2, got {m}")
    beta = Fraction(beta)
    disc = Fraction((m - 1) ** 2) + 4 * beta
    try:
        root = cmath.sqrt(float(disc))
        lam = ((m - 1 + root) / 2, (m - 1 - root) / 2)
        predicted = tuple(cmath.exp(2j * math.pi * l) for l in lam)
    except OverflowError as exc:
        raise ValueError(f"monodromy eigenvalues of m = {m}, beta = {beta} "
                         f"overflow a float: {exc}") from exc
    trivial = False
    integers = None
    if beta.denominator == 1 and disc >= 0:
        d_int = (m - 1) ** 2 + 4 * int(beta)
        r = math.isqrt(d_int)
        if r * r == d_int and (r - (m - 1)) % 2 == 0:
            trivial = True
            integers = ((m - 1 + r) // 2, (m - 1 - r) // 2)
    return MonodromyReport(
        m=m,
        beta=beta,
        eigenvalue_sum=m - 1,
        eigenvalue_product=-beta,
        discriminant=disc,
        residue_eigenvalues=lam,
        predicted_eigenvalues=predicted,
        trivial=trivial,
        integer_eigenvalues=integers,
    )


def _horner(coeffs, w: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def numeric_monodromy(m: int, beta, radius: float = 1.0,
                      tol: float = 1e-10) -> NumericMonodromy:
    """Integrate the fundamental 2x2 system of ``beta_family(m, beta)``, its
    P and Q read in floats, once around |w| = radius and compare the
    eigenvalue set with the exact prediction.

    Integrates with ``_dop853.dop853``, the adaptive DOP853 (Dormand-Prince
    8(5,3)) loop of ``scipy.integrate.solve_ivp`` repeated step for step on
    numpy alone, at rtol = atol = tol (rtol at least 100 eps).  On |w| = 1
    the irregular factor exp(2i/(1-m) w^{1-m}) has modulus bounded by
    e^{2/(m-1)}, so the default radius keeps the system well-conditioned;
    radii below MIN_RADIUS are rejected as stiff.
    """
    exact = residue_analysis(m, beta)
    check_contour(radius, tol)
    e = beta_family(m, beta, 2 * m - 2)
    # P = 2i - m*w^{m-1} has no cell above degree m - 1
    p_coeffs = [complex(c.real, c.imag) for c in e.p.coeffs[:m]]
    q_coeffs = [complex(c.real, c.imag) for c in e.q.coeffs]

    def rhs(theta: float, y: np.ndarray) -> np.ndarray:
        w = radius * cmath.exp(1j * theta)
        pw = _horner(p_coeffs, w) / w ** m
        qw = _horner(q_coeffs, w) / w ** (2 * m)
        dw = 1j * w
        z1, z1p, z2, z2p = y
        return np.array([
            dw * z1p,
            dw * (pw * z1p + qw * z1),
            dw * z2p,
            dw * (pw * z2p + qw * z2),
        ])

    y0 = np.array([1, 0, 0, 1], dtype=complex)
    # an overflowing member shows as an error below, not as numpy warnings
    with np.errstate(all="ignore"):
        try:
            yf, nfev = dop853(rhs, 0.0, TWO_PI, y0, tol)
        except (RuntimeError, OverflowError) as exc:
            raise RuntimeError(f"monodromy integration failed: {exc}") from exc
        matrix = np.array([[yf[0], yf[2]], [yf[1], yf[3]]])
        eigs = np.linalg.eigvals(matrix)
        det = complex(np.linalg.det(matrix))

    p0, p1 = exact.predicted_eigenvalues
    e0, e1 = eigs
    deviation = float(min(
        max(abs(e0 - p0), abs(e1 - p1)),
        max(abs(e0 - p1), abs(e1 - p0)),
    ))
    # Liouville-Ostrogradsky: det M = exp of the trace integral, which equals
    # 2*pi*i times the w^{m-1} coefficient of P, here exactly -m.
    det_expected = cmath.exp(2j * math.pi * (-m))
    det_deviation = abs(det - det_expected)
    return NumericMonodromy(
        matrix=tuple(tuple(row) for row in matrix),
        eigenvalues=tuple(eigs),
        deviation=deviation,
        relative_deviation=deviation / max(1.0, abs(p0), abs(p1)),
        det_deviation=float(det_deviation),
        radius=radius,
        tol=tol,
        n_evaluations=nfev,
    )

