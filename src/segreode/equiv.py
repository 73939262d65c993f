"""Formal fundamental solutions of the one-parameter family, the divergent
gauge equivalence onto the beta = 0 member, the coupled parameter-side map,
and a rigidity probe for gauge self-maps that decides every degree at once.

For z'' = (2i/w^m - m/w) z' + (beta/w^2) z the fundamental pair is

    { f(w),  g(w) * w^{1-m} * exp(2i/(1-m) * w^{1-m}) },   g = w^{m-1} * u,

with f(0) = u(0) = 1.  f follows the one-step recursion

    2i*j*f_j = ((j-m+1)*j - beta) * f_{j-m+1},

so f is supported on degrees divisible by m-1 and terminates exactly when
beta = l*(l+1)*(m-1)^2 for an integer l >= 0.  u runs it with -2i, so
u = conj(f) for real beta; it carries all series content of g.

h = f*u is the 3F0(1-mu1, 1-mu2, 1/2;; -(m-1)^2*w^{2(m-1)}), mu1 + mu2 = 1,
mu1*mu2 = -beta/(m-1)^2, a Bailey-type product of two 2F0 (W. N. Bailey,
Proc. London Math. Soc. (2) 28, 1928) with low-height coefficients.  Abel's
identity (Liouville-Ostrogradsky; Ince, ODE, ch. V) is
w^m*(f*u' - f'*u) + 2i*(h - 1) = 0: log(u/f) has derivative
2i*(1/h - 1)/w^m, the gauge map (chi, tau) has chi = 1/f = u/h and
tau^m/tau' = w^m*h, both from one inverse of h, and coupled is
eta^m*tau' = tau^m*chi*conj(chi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .autovec import model_rho
from .coefficients import ONE, QI, ZERO
from .ode import AdmissibleOde, GaugeMap, beta_data, pullback_under_gauge
from .segre import Hypersurface
from .series import (
    SeriesError,
    TruncationStarvation,
    TruncSeries1,
    TruncSeries2,
    compose,
    divide,
)


@dataclass(frozen=True)
class FormalSolutionPair:
    """Halves (f, u) of the fundamental system, g = w^{m-1}*u, and h = f*u."""

    m: int
    beta: QI
    f: TruncSeries1
    u: TruncSeries1
    h: TruncSeries1


def formal_f(m: int, beta, trunc: int) -> TruncSeries1:
    """f alone, by its coefficient recursion to the given order: what the
    growth readings need, with no u and no h."""
    if m < 2:
        raise ValueError(f"the family needs m >= 2, got {m}")
    beta_q = beta_data(m, beta, 2 * m - 2).b.coefficient(2 * m - 2)
    f = [ONE] + [ZERO] * trunc
    # f lives on degrees divisible by m - 1, each coefficient a multiple of
    # the one before: after a zero (a terminated f) all are
    for j in range(m - 1, trunc + 1, m - 1):
        k = j - m + 1
        if f[k].is_zero:
            break
        f[j] = (QI(k * j) - beta_q) / QI(0, 2 * j) * f[k]
    return TruncSeries1(f, 0, trunc)


def formal_solutions(m: int, beta, trunc: int) -> FormalSolutionPair:
    """f from :func:`formal_f`, u as its conjugate, and h = f*u from its 3F0
    form to order trunc + m: the coefficient at w^{2n(m-1)} is the product
    over k < n of (beta - (m-1)^2*k*(k+1))*(2k+1)/(2k+2)."""
    f = formal_f(m, beta, trunc)
    beta_q = beta_data(m, beta, 2 * m - 2).b.coefficient(2 * m - 2)
    h, step = [ONE] + [ZERO] * (trunc + m), 2 * m - 2
    for k, j in enumerate(range(step, trunc + m + 1, step)):
        h[j] = (beta_q - (m - 1) ** 2 * k * (k + 1)) \
            * QI(2 * k + 1, 0, 2 * k + 2) * h[j - step]
    return FormalSolutionPair(m, beta_q, f, f.conj(),
                              TruncSeries1(h, 0, trunc + m))


def build_chi_tau(pair: FormalSolutionPair) -> GaugeMap:
    """The special gauge map (z, w) -> (chi(w)*z, tau(w)) onto the beta = 0
    member:

        chi = 1/f,
        tau = w * (1 + ((1-m)/2i) * w^{m-1} * log(u/f))^{1/(1-m)}.

    Both read one inverse of the low-height h: chi = u * h^{-1}, to the
    order n of f, and log(u/f) integrates 2i*(h^{-1} - 1)/w^m by Abel's
    identity, so the coefficients of tau are real.  The
    normalization u(0) = 1 pins the residual scaling freedom of the
    fundamental pair, so the map is unique in this gauge.
    """
    m, n = pair.m, pair.f.trunc
    h_inv = pair.h.inverse()
    chi = pair.u * h_inv
    dl = (h_inv - TruncSeries1.one(n + m)).shift(-m)
    # the inner series 1 + (1-m)*w^{m-1}*integral(dl), to order n + m - 1
    inner = TruncSeries1([ONE] + [ZERO] * (m - 1) + [
        c * QI(1 - m, 0, k) for k, c in enumerate(dl.coeffs[:n], 1)])
    tau = inner.pow_frac(Fraction(1, 1 - m)).shift(1)
    gm = GaugeMap(chi, tau)
    if not gm.is_special(m):
        raise SeriesError("chi/tau construction lost the special normalization")
    return gm


# ---------------------------------------------------------------------------
# coupled parameter-side map
# ---------------------------------------------------------------------------


def coupled_map_g(gauge: GaugeMap, m: int) -> GaugeMap:
    """The unique parameter-side map (xi, eta) -> (xi*lambda(eta), mu(eta))
    pairing with a special gauge map on the variable side:

        mu = g,    eta^m * g'(eta) = mu(eta)^m * f(eta) * lambda(eta).
    """
    if not gauge.is_special(m):
        raise SeriesError("coupled map needs a special gauge input")
    f, g = gauge.f, gauge.g
    lam = divide(g.derivative().shift(m), g.pow_int(m) * f)
    return GaugeMap(lam, g)


def coupled_pairing_residual(gauge: GaugeMap, m: int) -> TruncSeries1:
    """The pairing of :func:`coupled_map_g` at mu = tau, lambda = conj(chi):
    eta^m*tau' - tau^m*chi*conj(chi), known above the normalized w^m.
    chi*conj(chi) is the norm product of the chi the map holds, never read
    from h, so the residual is zero exactly when f*u = h."""
    chi, tau = gauge.f, gauge.g
    rhs = tau.pow_int(m) * chi.norm()
    if rhs.trunc <= m:
        raise TruncationStarvation(f"coupled pairing stops at w^{rhs.trunc}")
    return tau.derivative().shift(m) - rhs


# ---------------------------------------------------------------------------
# hypersurface-level verification
# ---------------------------------------------------------------------------


def verify_map_on_hypersurface(h_beta: Hypersurface, m: int,
                               gauge: GaugeMap) -> TruncSeries2:
    """Residual of the complexified mapping identity

        tau(rho_b(x, eta)) == rho_0(x * chi(rho_b(x, eta)) * conj_chi(eta),
                                    conj_tau(eta)),

    where conj denotes coefficient conjugation and rho_0 is the closed-form
    beta = 0 series of order m (:func:`model_rho`).  Zero up to the returned
    rectangle certifies that (z, w) -> (chi(w) z, tau(w)) maps the first
    hypersurface into the beta = 0 model at that order.
    """
    rho_b = h_beta.rho
    chi, tau = gauge.f, gauge.g
    ny = rho_b.ny
    if tau.trunc < ny:
        raise TruncationStarvation(
            f"gauge map known to order {tau.trunc} < eta-truncation {ny}"
        )
    lhs = compose(tau, rho_b)
    chi_at = compose(chi, rho_b)
    chi_bar = TruncSeries2.embed_y(chi.conj().truncate(ny), rho_b.nx, ny)
    first = (chi_at * chi_bar).shift_x(1)
    second = TruncSeries2.embed_y(tau.conj().truncate(ny), rho_b.nx, ny)
    return lhs - model_rho(m, first, second)


# ---------------------------------------------------------------------------
# self-map rigidity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    free_degrees: tuple  # the degrees whose stage leaves g_{d+m} free
    verified_order: int  # the identity's residual vanishes to this order

    @property
    def rigid(self) -> bool:
        return not self.free_degrees


def self_map_probe(e: AdmissibleOde, degree: int) -> ProbeReport:
    """Which degrees 1..degree leave a special gauge self-map (f, g) of e,
    pullback(e, (f, g)) = e, a free coefficient; none means rigid.

    Stage d's unknowns f_d and g_{d+m} enter P and Q at w^{d-1+m} affinely,
    and the identity solves every stage, so only the linear part counts: the
    first variation at the identity, f = 1 + phi and g = w + psi, is
    d(alpha^) = (alpha*psi)' + psi'' - 2*phi' and d(gamma^) = alpha*phi' +
    gamma'*psi + 2*gamma*psi' - phi'', which at that degree reads only P(0),
    Q(0) and, for m = 1, psi'' and phi''.  Its determinant,

        -d^2*(P(0)^2 + 4*Q(0))              for m >= 2,
        d^2*(d^2 - (P(0) + 1)^2 - 4*Q(0))   for m = 1,

    vanishes exactly at the free degrees, each with free direction g (the f
    entry, -2d, never vanishes): for m >= 2 every degree or none, for m = 1
    at most the integer d with d^2 = (P(0) + 1)^2 + 4*Q(0).

    The identity is pulled back once, at the working order degree + 2m + 8,
    and its residual must vanish to the verified order degree + m - 1;
    otherwise the pullback is broken and :class:`SeriesError` is raised.
    """
    m = e.m
    work = degree + 2 * m + 8
    if e.trunc < work:
        raise TruncationStarvation(
            f"probe to degree {degree} needs ODE coefficients to order {work}, "
            f"got {e.trunc}"
        )
    e = AdmissibleOde(m, e.p.truncate(work), e.q.truncate(work))
    pulled = pullback_under_gauge(e, GaugeMap.identity(work), m)
    verified = degree + m - 1
    low = min((r.order() for r in (pulled.p - e.p.truncate(pulled.p.trunc),
                                   pulled.q - e.q.truncate(pulled.q.trunc))
               if not r.is_zero), default=verified + 1)
    if low <= verified:
        raise SeriesError(f"probe invariant broken: the identity's residual "
                          f"at order {low} should be zero")
    p0, q0 = e.p.coefficient(0), e.q.coefficient(0)
    if m >= 2:
        free = range(1, degree + 1) if (p0 * p0 + 4 * q0).is_zero else ()
    else:
        sq = (p0 + 1) * (p0 + 1) + 4 * q0
        d = math.isqrt(sq.a) if sq.is_real and sq.d == 1 and sq.a > 0 else 0
        free = (d,) if 0 < d <= degree and d * d == sq.a else ()
    return ProbeReport(tuple(free), verified)
