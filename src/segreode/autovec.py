"""Infinitesimal automorphisms A(w)*z*dz + B(w)*dw of the family
hypersurfaces, formal tangency verification, the closed-form beta = 0 model,
and the straightening-map coefficient identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import QI
from .segre import Hypersurface
from .series import (
    SeriesError,
    TruncSeries1,
    TruncSeries2,
    compose,
    divide,
)


@dataclass(frozen=True)
class VectorFieldRep:
    """The holomorphic field a(w)*z*dz + b(w)*dw."""

    a: TruncSeries1
    b: TruncSeries1

    def __post_init__(self):
        if self.a.pole != 0 or self.b.pole != 0:
            raise SeriesError("field components must be pole-free")


def build_vector_field(pair) -> VectorFieldRep:
    """w^m*dw pulled back through the gauge map (chi, tau) of the formal
    solutions: a = -chi'*tau^m/(chi*tau') = w^m*f'*u and
    b = tau^m/tau' = w^m*h with h = f*u.  Abel's identity
    (:mod:`segreode.equiv`) gives a = (w^m*h' + 2i*(h - 1))/2, so both are
    read from h with no product, claimed to the orders the quotients reach,
    n - 1 and n + m - 1."""
    m, h, n = pair.m, pair.h, pair.f.trunc
    b = h.shift(m).truncate(n + m - 1)
    h = h.truncate(n)
    a = h.derivative().shift(m).scale(QI(1, 0, 2)) \
        + (h - TruncSeries1.one(n)).scale(QI(0, 1))
    return VectorFieldRep(a.truncate(n - 1), b)


def tangency_check(field: VectorFieldRep, h: Hypersurface) -> TruncSeries2:
    """Residual of formal tangency of Re(field) to the complexified
    hypersurface {w = rho(x, eta)}:

        B(rho) - (A(rho) + conj_A(eta)) * x * d(rho)/dx - conj_B(eta) * d(rho)/d(eta),

    with conj denoting coefficient conjugation.  Zero up to the returned
    rectangle certifies tangency at that order.
    """
    rho = h.rho
    nx, ny = rho.rect
    b_at = compose(field.b, rho)
    a_at = compose(field.a, rho)
    a_bar = TruncSeries2.embed_y(field.a.conj().truncate(min(field.a.trunc, ny)),
                                 nx)
    b_bar = TruncSeries2.embed_y(field.b.conj().truncate(min(field.b.trunc, ny)),
                                 nx)
    rx = rho.derivative_x()
    ry = rho.derivative_y()
    return b_at - ((a_at + a_bar) * rx).shift_x(1) - b_bar * ry


def model_rho(m: int, x: TruncSeries2, y: TruncSeries2) -> TruncSeries2:
    """The closed-form beta = 0 defining series of order m, evaluated at
    (x, y):

        rho_0(x, y) = y * (1 + (i/2)(1-m) * y^{m-1} * L(x))^{1/(1-m)},
        L(x) = -log(1 - 2x) = 2x + 2x^2 + (8/3)x^3 + ...

    x must vanish at the origin.  No outer series is truncated, so the
    result holds on the common rectangle of x and y.
    """
    if m < 2:
        raise ValueError(f"the closed-form model needs m >= 2, got {m}")
    one = TruncSeries2.one(*x.rect)
    # (i/2)(1-m) * L(x) = (i/2)(m-1) * log(1 - 2x)
    log = (one - x.scale(2)).log()
    inner = one + (y.pow_int(m - 1) * log).scale(QI(0, m - 1, 2))
    return inner.pow_frac(Fraction(1, 1 - m)) * y


def explicit_model(m: int, rect: tuple = (8, 24)) -> Hypersurface:
    """The closed-form beta = 0 hypersurface of order m: :func:`model_rho`
    at (x, eta), computed entirely through series operations."""
    x, y = TruncSeries2.var_x(*rect), TruncSeries2.var_y(*rect)
    return Hypersurface(m, +1, model_rho(m, x, y))


@dataclass(frozen=True)
class StraighteningCheck:
    ok: bool
    computed_p: TruncSeries1
    expected_p: TruncSeries1
    witness: dict | None = None


def straightening_check(m: int,
                        rate: TruncSeries1 | None = None) -> StraighteningCheck:
    """Laurent identity behind the straightening map (z, w) -> (z, E(w)) with
    E'/E = 2i*w^{-m}: pulling Z'' = 0 back gives z'' = alpha(w) z' with

        alpha = E''/E' = r + r'/r    for the log-derivative r = E'/E,

    which must equal (2i - m*w^{m-1})/w^m exactly.  (The z-coefficient of the
    pullback vanishes identically because the z-component of the map is the
    identity.)  The rate is taken to order 16; a corrupted rate series can
    be passed in as a negative control.
    """
    if m < 2:
        raise ValueError(f"straightening check needs m >= 2, got {m}")
    if rate is None:
        rate = TruncSeries1.monomial(QI(0, 2), -m, 16)
    alpha = rate + divide(rate.derivative(), rate)
    computed_p = alpha.shift(m)
    n = computed_p.trunc
    expected_p = TruncSeries1.from_terms({0: QI(0, 2), m - 1: QI(-m)},
                                         max(n, m - 1))
    if computed_p.pole == 0 and computed_p == expected_p:
        return StraighteningCheck(True, computed_p, expected_p)
    # a failure, pole included, leaves a nonzero coefficient in the difference
    degree, value = (computed_p - expected_p).first_nonzero()
    return StraighteningCheck(False, computed_p, expected_p,
                              {"degree": degree, "value": str(value)})
