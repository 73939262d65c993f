"""Segre families attached to admissible ODEs.

A family of order m and sign s = +/-1 is the two-parameter family of curves
w = eta * exp(s*i*eta^{m-1} * psi(x, eta)) with profile psi = x + sum_{k>=2}
psi_k(eta) x^k; here x stands for the product of the curve variable and the
antiholomorphic parameter, and eta for the conjugated second parameter.

The profile solves a parametric Cauchy problem with data psi(0) = 0,
d(psi)/dx(0) = 1, and determines the ODE coefficients back through

    P = s*2i*psi_2 - w^{m-1}
    Q = 6*psi_3 - 8*psi_2^2 + s*2i*(m-1)*w^{m-1}*psi_2 - s*2i*w^m*psi_2'.

Everything here is exact order-by-order; no convergence claims are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import QI
from .ode import NEG_HALF_I, AdmissibleOde
from .series import (
    OnlineSeries2,
    SeriesError,
    TruncationStarvation,
    TruncSeries1,
    TruncSeries2,
    compose,
)

HALF = Fraction(1, 2)


class RealityError(SeriesError):
    """Raised when an extraction that presumes a real hypersurface meets a
    nonzero imaginary part."""


@dataclass(frozen=True)
class SegreFamily:
    """Profile psi of an admissible family; psi(0, eta) = 0 and the x-slope
    is exactly 1 at every stored eta-order."""

    m: int
    sign: int
    psi: TruncSeries2

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.m < 1:
            raise ValueError(f"order m must be >= 1, got {self.m}")
        if not self.psi.row(0).is_zero:
            raise SeriesError("psi must vanish at x = 0")
        if self.psi.nx >= 1:
            one = TruncSeries1.one(self.psi.ny)
            if self.psi.row(1) != one:
                raise SeriesError("psi must have x-slope exactly 1")

    @property
    def rect(self):
        return self.psi.rect


@dataclass(frozen=True)
class Hypersurface:
    """Complex defining series rho(x, eta) of w = rho(z*conj(z), conj(w))."""

    m: int
    sign: int
    rho: TruncSeries2

    def __post_init__(self):
        eta = TruncSeries1.var(self.rho.ny)
        if self.rho.row(0) != eta:
            raise SeriesError("rho(0, eta) must equal eta exactly")
        if self.rho.nx >= 1:
            lead = TruncSeries1.monomial(QI(0, self.sign), self.m, self.rho.ny)
            if self.rho.row(1) != lead:
                raise SeriesError(
                    "rho must have x-coefficient exactly sign*i*eta^m"
                )

    @property
    def rect(self):
        return self.rho.rect


@dataclass(frozen=True)
class RealityTest:
    ok: bool
    witness: dict | None = None


@dataclass(frozen=True)
class NormalForm:
    """Real normal form of the hypersurface, normalized so the leading
    coefficient is exactly one:

        w - conj(w) = i * u^m * (sign*x + sum_{k>=2} h_k(u) x^k),
        u = (w + conj(w))/2,  x = |z|^2.

    Equivalently 2*Im(w) = u^m*(sign*x + sum h_k x^k).  ``hks[k]`` holds h_k
    for k >= 2; ``v`` is the plain imaginary part Im(w) as a series in (x, u)
    (half of the normalized height, for the family convention rho =
    eta + sign*i*eta^m*x + ...).
    """

    sign: int
    hks: dict
    v: TruncSeries2


# ---------------------------------------------------------------------------
# the parametric Cauchy problem
# ---------------------------------------------------------------------------


def _profile_rhs(e: AdmissibleOde, sign: int, y: TruncSeries2) -> TruncSeries2:
    """Right-hand side of the profile equation for y(t, eta):

    y'' = -s*i*(y')^2*(eta^{m-1} + P(eta*E)*E^{1-m})
          + (y')^3 * t * Q(eta*E)*E^{2-2m},      E = exp(s*i*eta^{m-1}*y).
    """
    m = e.m
    si = QI(0, sign)
    x_big = y.shift_y(m - 1).scale(si)
    arg = x_big.exp().shift_y(1)
    p_at = compose(e.p, arg)
    q_at = compose(e.q, arg)
    e_1m = x_big.scale(1 - m).exp()
    e_22m = x_big.scale(2 - 2 * m).exp()
    yp = y.derivative_x()
    yp2 = yp * yp
    eta_pow = TruncSeries2.one(y.nx, y.ny).shift_y(m - 1)
    first = (yp2 * (eta_pow + p_at * e_1m)).scale(-si)
    second = (yp2 * yp * q_at * e_22m).shift_x(1)
    return first + second


def solve_psi(e: AdmissibleOde, sign: int = +1,
              rect: tuple = (8, 24)) -> SegreFamily:
    """Solve the parametric Cauchy problem degree-by-degree in the curve
    variable: k(k-1)*psi_k(eta) equals the t^{k-2} coefficient of the
    right-hand side, which only involves psi_2 .. psi_{k-1}.  The division by
    k(k-1) is exact.  :func:`_settle` computes each row of the right-hand
    side once.
    """
    nx, ny = rect
    if nx < 1:
        raise TruncationStarvation("rectangle must allow x-degree >= 1")
    if e.trunc < nx + ny:
        raise TruncationStarvation(
            f"ODE coefficients known to order {e.trunc}; rectangle "
            f"({nx}, {ny}) needs order >= {nx + ny}"
        )
    psi = _settle(lambda y: _profile_rhs(e, sign, y).shift_x(2),
                  TruncSeries2.var_x(nx, ny), 2, lambda k: k * (k - 1))
    return SegreFamily(e.m, sign, psi)


def _settle(step, start: TruncSeries2, first: int = 1, div=None):
    """The series u on the rectangle of ``start`` whose rows below ``first``
    are those of ``start`` and whose row k is row k of step(u), divided by
    ``div(k)`` when given: ``step`` runs once, on an online u, and row k of
    step(u) may read only rows < k of u.  A fixed point (``div`` None) is
    confirmed by one eager sweep, whose result it returns, or
    :class:`SeriesError`."""
    nx, ny = start.rect

    def row(k):
        d, nums = (start if k < first else image)._row(k)
        return d * (div(k) if div and k >= first else 1), nums

    u = OnlineSeries2(nx, ny, row)
    image = step(u)
    cur = u.to_series()
    image = None  # u reads image: free that cycle now, not at the next gc
    if div is not None:
        return cur
    full = step(cur)
    if full != cur:
        raise SeriesError("fixed point failed to stabilize")
    return full


# ---------------------------------------------------------------------------
# extraction and the defining series
# ---------------------------------------------------------------------------


def extract_pq(fam: SegreFamily):
    """Recover (P, Q) from psi_2, psi_3; inverse of the Cauchy solve."""
    if fam.psi.nx < 3:
        raise TruncationStarvation("extracting (P, Q) needs psi to x-degree 3")
    m, s = fam.m, fam.sign
    ny = fam.psi.ny
    psi2 = fam.psi.row(2)
    psi3 = fam.psi.row(3)
    p = psi2.scale(QI(0, 2 * s)) - TruncSeries1.monomial(1, m - 1, ny)
    q = (psi3.scale(6)
         - (psi2 * psi2).scale(8)
         + psi2.shift(m - 1).scale(QI(0, 2 * s * (m - 1)))
         - psi2.derivative().shift(m).scale(QI(0, 2 * s)))
    return p, q


def build_rho(fam: SegreFamily) -> Hypersurface:
    """rho(x, eta) = eta * exp(sign*i*eta^{m-1}*psi(x, eta))."""
    si = QI(0, fam.sign)
    rho = fam.psi.shift_y(fam.m - 1).scale(si).exp().shift_y(1)
    return Hypersurface(fam.m, fam.sign, rho)


# ---------------------------------------------------------------------------
# duality, conjugation, reality
# ---------------------------------------------------------------------------


def dual_family(fam: SegreFamily) -> SegreFamily:
    """Swap variables and parameters in the defining equation and solve back.

    The defining equation of the dual is eta = w * exp(s*i*w^{m-1}*psi(x, w));
    the fixed-point form w <- eta * exp(-s*i*w^{m-1}*psi(x, w)) settles one
    x-row per step, as psi(x, w) has x-order >= 1: :func:`_settle` computes
    row k from rows < k of w, then confirms the fixed point with one sweep
    on the full rectangle.
    """
    neg_si = QI(0, -fam.sign)

    def step(w):
        exponent = (fam.psi.substitute_y(w) * w.pow_int(fam.m - 1)).scale(neg_si)
        return exponent.exp().shift_y(1)

    w = _settle(step, TruncSeries2.var_y(*fam.psi.rect))
    log_part = w.shift_y(-1).log()
    psi_star = log_part.shift_y(-(fam.m - 1)).scale(QI(0, fam.sign))
    return SegreFamily(fam.m, -fam.sign, psi_star)


def conjugated_family(fam: SegreFamily) -> SegreFamily:
    """Conjugate the profile coefficients; the family sign flips."""
    return SegreFamily(fam.m, -fam.sign, fam.psi.conj())


def real_structure_test(fam: SegreFamily) -> RealityTest:
    """The family belongs to a real hypersurface iff its dual coincides with
    its conjugate, profile against profile, on the common rectangle."""
    dual = dual_family(fam)
    conj = conjugated_family(fam)
    diff = dual.psi - conj.psi
    if diff.is_zero:
        return RealityTest(True)
    (j, k), value = diff.first_nonzero()
    return RealityTest(False, witness={
        "cell": [j, k],
        "dual_minus_conjugated": str(value),
    })


def realty_identity_check(h) -> TruncSeries2:
    """Residual of w == rho(x, conj_rho(x, w)), as a series in (x, w).

    Accepts a Hypersurface or a raw bivariate series (so that degenerate or
    deliberately broken defining series can be probed too).
    """
    rho = h.rho if isinstance(h, Hypersurface) else h
    rho_bar = rho.conj()
    inner = rho.substitute_y(rho_bar)
    return TruncSeries2.var_y(inner.nx, inner.ny) - inner


def real_normal_form(h) -> NormalForm:
    """Extract the real normal form v = u^m*(sign*x + sum h_k(u) x^k).

    Solves u + i*v = rho(x, u - i*v) for v(x, u) by the fixed point
    v <- (rho - y)(x, u - i*v)/(2i), as rho - y has x-order >= 1:
    :func:`_settle` computes row k of v from rows < k, then one confirming
    sweep on the full rectangle, and raises :class:`SeriesError` if that
    does not return its input.  The x-rows of
    v are divided by u^m, and rho rebuilt from v by the same helper must
    match.  Any nonzero imaginary part in v means the defining series was
    not real.
    """
    rho = h.rho if isinstance(h, Hypersurface) else h
    nx, ny = rho.rect
    rho_y = rho - TruncSeries2.var_y(nx, ny)

    def step(v):
        w_bar = TruncSeries2.var_y(*v.rect) - v.scale(QI(0, 1))
        return rho_y.substitute_y(w_bar).scale(NEG_HALF_I)

    v = _settle(step, TruncSeries2.zero(nx, ny))
    theta = v.scale(2)
    for j in range(1, nx + 1):
        bad = theta.row(j).first_nonreal()
        if bad is not None:
            raise RealityError(
                f"normal form row x^{j} has imaginary coefficient {bad[1]} "
                f"at u-degree {bad[0]}"
            )
    if theta.is_zero:
        return NormalForm(0, {}, v)

    m = h.m if isinstance(h, Hypersurface) else None
    lead = theta.row(1)
    lead_ord = lead.order()
    if lead_ord is None:
        raise RealityError("normal form has no x-linear term but is nonzero")
    if m is None:
        m = lead_ord
    plus = TruncSeries1.monomial(1, m, ny)
    minus = TruncSeries1.monomial(-1, m, ny)
    if lead == plus:
        sign = +1
    elif lead == minus:
        sign = -1
    else:
        raise RealityError("x-linear term of the normal form is not ±u^m")

    hks = {}
    for k in range(2, nx + 1):
        row = theta.row(k)
        hk = row.shift(-m)
        if hk.pole > 0:
            raise RealityError(
                f"normal form row x^{k} is not divisible by u^{m}"
            )
        hks[k] = hk

    if _reconstruct(v) != rho:
        raise SeriesError("normal-form reconstruction does not match rho")
    return NormalForm(sign, hks, v)


def _reconstruct(v: TruncSeries2) -> TruncSeries2:
    """The complex defining series w = y + 2i*v(x, (w + y)/2) rebuilt from
    the real form v; the fixed point settles one x-row per step of
    :func:`_settle`, as v has x-order >= 1."""
    def step(w):
        y = TruncSeries2.var_y(*w.rect)
        return y + v.substitute_y((w + y).scale(HALF)).scale(QI(0, 2))

    return _settle(step, TruncSeries2.var_y(*v.rect))
