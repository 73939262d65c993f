"""Formal fundamental solutions of the one-parameter family, the divergent
gauge equivalence onto the beta = 0 member, the coupled parameter-side map,
and a degree-by-degree rigidity probe for gauge self-maps.

For z'' = (2i/w^m - m/w) z' + (beta/w^2) z the fundamental pair is

    { f(w),  g(w) * w^{1-m} * exp(2i/(1-m) * w^{1-m}) },   g = w^{m-1} * u,

with f(0) = u(0) = 1.  Both power-series halves satisfy the one-step
recursion (with 2i replaced by -2i for u)

    2i*j*f_j = ((j-m+1)*j - beta) * f_{j-m+1},

so f is supported on degrees divisible by m-1 and terminates exactly when
beta = l*(l+1)*(m-1)^2 for an integer l >= 0.  The exponential and w^{1-m}
factors never enter a series slot; u carries all series content of g.

Abel's identity for the pair (Liouville-Ostrogradsky; Ince, ODE, ch. V) is
w^m*(f*u' - f'*u) + 2i*(f*u - 1) = 0, with u = conj(f) for real beta.  So
the gauge map (chi, tau) has tau^m/tau' = w^m*f*u: the automorphism field is
two products of the pair, and coupled is eta^m*tau' = tau^m*chi*conj(chi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .autovec import model_rho
from .coefficients import QI
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
    """Power-series halves (f, u) of the fundamental system; g = w^{m-1}*u."""

    m: int
    beta: QI
    f: TruncSeries1
    u: TruncSeries1


def formal_solutions(m: int, beta, trunc: int) -> FormalSolutionPair:
    """Run the coefficient recursion for f and u up to the given order."""
    if m < 2:
        raise ValueError(f"the family needs m >= 2, got {m}")
    beta_q = beta_data(m, beta, 2 * m - 2).b.coefficient(2 * m - 2)

    def run(two_i: QI):
        coeffs = [QI(1)] + [QI(0)] * trunc
        # f and u live on degrees divisible by m - 1, each coefficient a
        # multiple of the one before: after a zero (a terminated f) all are
        for j in range(m - 1, trunc + 1, m - 1):
            k = j - m + 1
            if coeffs[k].is_zero:
                break
            coeffs[j] = (QI(k * j) - beta_q) / (two_i * j) * coeffs[k]
        return TruncSeries1(coeffs, 0, trunc)

    return FormalSolutionPair(m, beta_q, run(QI(0, 2)), run(QI(0, -2)))


def build_chi_tau(pair: FormalSolutionPair) -> GaugeMap:
    """The special gauge map (z, w) -> (chi(w)*z, tau(w)) onto the beta = 0
    member:

        chi = 1/f,
        tau = w * (1 + ((1-m)/2i) * w^{m-1} * log(u/f))^{1/(1-m)}.

    The normalization u(0) = 1 pins the residual scaling freedom of the
    fundamental pair, so the map is unique in this gauge.
    """
    m = pair.m
    n = pair.f.trunc
    chi = divide(TruncSeries1.one(n), pair.f)
    lg = divide(pair.u, pair.f).log()
    scale = QI(0, m - 1, 2)  # (1-m)/(2i)
    inner = TruncSeries1.one(lg.trunc + m - 1) \
        + lg.scale(scale).shift(m - 1)
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
    eta^m*tau' - tau^m*chi*conj(chi), known above the normalized w^m."""
    chi, tau = gauge.f, gauge.g
    rhs = tau.pow_int(m) * chi * chi.conj()
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
class ProbeStage:
    degree: int
    dimension: int  # 1: the stage leaves g_{d+m} free


@dataclass(frozen=True)
class ProbeReport:
    stages: tuple
    rigid: bool          # every stage pinned both unknowns
    verified_order: int  # residuals vanish to this coefficient order


def self_map_probe(e: AdmissibleOde, degree: int) -> ProbeReport:
    """Solve pullback(e, (f, g)) = e for a special gauge (f, g) degree by
    degree.

    At stage d the new unknowns are f_d and g_{d+m}; the residual coefficients
    of P at w^{d-1+m} and of Q at w^{d-1+m} are affine in them (nonlinear
    corrections and later unknowns only reach higher orders).  The identity
    solves every stage, so the affine part vanishes and the rank of the 2x2
    linear part either pins both unknowns or leaves free directions.  Its
    entry a11, the change of P from f_d = 1, is -2d at every stage, as
    P^ = P - 2w^m*f'/f under f = 1 + w^d; so a stage is rigid iff its
    determinant is nonzero, and otherwise has dimension 1 with free
    direction g.  An a11 other than -2d raises :class:`SeriesError`.

    The identity's residual is pulled back once, at the working order, and
    must vanish to the verified order degree + m - 1; otherwise the pullback
    is broken and :class:`SeriesError` is raised.  A stage reads only one
    coefficient.  A pullback through a gauge known to order T >= 2m + 1
    claims order T - 1 (below 2m + 1 the w^{-2m} pole part of gamma(g)
    starves it), so the two perturbed pullbacks of stage d run at
    T = max(d + m, 2m + 1); a claim that fell short would raise
    :class:`TruncationStarvation`.
    """
    m = e.m
    work = degree + 2 * m + 8
    if e.trunc < work:
        raise TruncationStarvation(
            f"probe to degree {degree} needs ODE coefficients to order {work}, "
            f"got {e.trunc}"
        )
    e = AdmissibleOde(m, e.p.truncate(work), e.q.truncate(work))

    def residual_pair(trunc: int, ft: dict, gt: dict):
        gauge = GaugeMap(TruncSeries1.from_terms({0: QI(1), **ft}, trunc),
                         TruncSeries1.from_terms({1: QI(1), **gt}, trunc))
        pulled = pullback_under_gauge(e, gauge, m)
        return pulled.p - e.p.truncate(pulled.p.trunc), \
            pulled.q - e.q.truncate(pulled.q.trunc)

    rp, rq = residual_pair(work, {}, {})
    verified = degree + m - 1
    for low in range(verified + 1):
        if not (rp.coefficient(low).is_zero and rq.coefficient(low).is_zero):
            raise SeriesError(
                f"probe invariant broken: the identity's residual at order "
                f"{low} should be zero"
            )

    stages = []
    for d in range(1, degree + 1):
        crit = d - 1 + m
        order = max(d + m, 2 * m + 1)
        rp1, rq1 = residual_pair(order, {d: QI(1)}, {})
        rp2, rq2 = residual_pair(order, {}, {d + m: QI(1)})
        a11 = rp1.coefficient(crit)
        if a11 != QI(-2 * d):
            raise SeriesError(
                f"probe invariant broken: f_{d} = 1 changes P at order {crit} "
                f"by {a11}, not {-2 * d}"
            )
        det = a11 * rq2.coefficient(crit) \
            - rp2.coefficient(crit) * rq1.coefficient(crit)
        stages.append(ProbeStage(d, 1 if det.is_zero else 0))
    rigid = all(st.dimension == 0 for st in stages)
    return ProbeReport(tuple(stages), rigid, verified)
