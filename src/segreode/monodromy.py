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

Integer exponents lambda_1 >= lambda_2 are not enough for a trivial
monodromy.  The Frobenius recursion in t, I(lambda+N)*c_N =
-2i*(lambda+N-m+1)*c_{N-m+1} with I the quadratic above, steps by m-1, so
the series of lambda_2 meets lambda_1 when r = lambda_1 - lambda_2 is a
multiple of m-1.  At an odd multiple the factor lambda_2+N-m+1 has stopped
it; at an even one, r = 0 included, a logarithm makes the monodromy a
Jordan block (Ince, *Ordinary Differential Equations*, ch. XVI).
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

# Largest accepted deviation of the loop's trace, determinant and (trivial
# members) matrix from the prediction, over its scale (see numeric_monodromy).
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
class MonodromyReport:
    eigenvalue_sum: int          # m - 1
    eigenvalue_product: Fraction  # -beta
    discriminant: Fraction       # (m-1)^2 + 4*beta
    residue_eigenvalues: tuple   # complex pair
    predicted_eigenvalues: tuple  # exp(2*pi*i*lambda_j)
    trivial: bool
    integer_eigenvalues: tuple | None = None


@dataclass(frozen=True)
class NumericMonodromy:
    matrix: tuple
    eigenvalues: tuple
    deviation: float
    det_deviation: float
    n_evaluations: int
    exact: MonodromyReport
    ok: bool


def residue_analysis(m: int, beta) -> MonodromyReport:
    """Exact eigenvalues of the residue quadratic and the triviality test:
    trivial iff both roots are integers whose difference is not an even
    multiple of m-1, i.e. beta = l*(l-m+1) for an integer l that is not an
    odd multiple of (m-1)/2.  ``integer_eigenvalues`` is set for integer
    roots."""
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
    trivial, integers = False, None
    if beta.denominator == 1 and disc >= 0:
        r = math.isqrt(int(disc))
        if r * r == disc and (r - (m - 1)) % 2 == 0:
            trivial = r % (2 * (m - 1)) != 0
            integers = ((m - 1 + r) // 2, (m - 1 - r) // 2)
    return MonodromyReport(
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
    P and Q read in floats, once around |w| = radius, and return the loop M
    with ``residue_analysis(m, beta)`` as ``exact`` and the verdict as ``ok``.

    With p0, p1 the predicted eigenvalues and s = max(1, |p0|, |p1|) (the
    tolerance is relative, and the moduli grow like
    exp(pi*sqrt(-4*beta - (m-1)^2))), ``ok`` needs |tr M - p0 - p1|/s,
    det_deviation/s^2 and, for a trivial member, max|M - I|/s below
    DEVIATION_TOL.  Trace and determinant keep the digits a Jordan block's
    eigenvalues lose, so ``deviation`` is reported but not judged.

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

    p0, p1 = exact.predicted_eigenvalues
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
        trace_deviation = abs(np.trace(matrix) - p0 - p1)
        identity_deviation = np.abs(matrix - np.eye(2)).max()

    e0, e1 = eigs
    deviation = float(min(max(abs(e0 - p0), abs(e1 - p1)),
                          max(abs(e0 - p1), abs(e1 - p0))))
    # Liouville-Ostrogradsky: det M = exp of the trace integral, which equals
    # 2*pi*i times the w^{m-1} coefficient of P, here exactly -m.
    det_deviation = float(abs(det - cmath.exp(2j * math.pi * (-m))))
    s = max(1.0, abs(p0), abs(p1))
    ok = (trace_deviation / s < DEVIATION_TOL
          and det_deviation / s / s < DEVIATION_TOL
          and (not exact.trivial or identity_deviation / s < DEVIATION_TOL))
    return NumericMonodromy(
        matrix=tuple(tuple(row) for row in matrix),
        eigenvalues=tuple(eigs),
        deviation=deviation,
        det_deviation=det_deviation,
        n_evaluations=nfev,
        exact=exact,
        ok=bool(ok),
    )

