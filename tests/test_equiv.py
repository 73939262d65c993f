import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from conftest import ABEL_MEMBERS, family_hyper

from segreode import (
    QI,
    AdmissibleOde,
    GaugeMap,
    RealData,
    SeriesError,
    TruncationStarvation,
    TruncSeries1,
    beta_family,
    build_chi_tau,
    conjugate_ode,
    coupled_map_g,
    coupled_pairing_residual,
    divide,
    formal_solutions,
    ode_from_real_data,
    pullback_under_gauge,
    self_map_probe,
    verify_map_on_hypersurface,
)
from segreode import equiv

RECT = (6, 12)


# -- the coefficient recursion ---------------------------------------------------


def test_solution_values_beta1():
    pair = formal_solutions(2, 1, 24)
    assert pair.f.coefficient(0) == QI(1)
    assert pair.f.coefficient(1) == QI(0, 1, 2)
    assert pair.f.coefficient(2) == QI(1, 0, 8)


def test_solution_terminates_beta2():
    pair = formal_solutions(2, 2, 30)
    assert pair.f == TruncSeries1.from_terms({0: 1, 1: QI(0, 1)}, 30)


def _u_by_recursion(m, beta, trunc):
    """u from its own recursion, f's with -2i for 2i:
    -2i*j*u_j = ((j-m+1)*j - beta) * u_{j-m+1}."""
    beta = QI.of(Fraction(beta))
    coeffs = [QI(1)] + [QI(0)] * trunc
    for j in range(m - 1, trunc + 1, m - 1):
        k = j - m + 1
        coeffs[j] = (QI(k * j) - beta) / QI(0, -2 * j) * coeffs[k]
    return TruncSeries1(coeffs, 0, trunc)


def test_u_is_conjugate_for_real_beta():
    for m, beta in ((2, 1), (2, 3), (2, Fraction(5, 2)), (3, Fraction(5, 2)),
                    (4, 1)):
        pair = formal_solutions(m, beta, 20)
        assert pair.u == _u_by_recursion(m, beta, 20) == pair.f.conj()
        assert pair.u.trunc == 20


@pytest.mark.parametrize("m,beta,n", [
    (2, 1, 80), (2, Fraction(-1, 3), 80), (3, Fraction(5, 2), 80), (4, 1, 81),
    (3, 24, 60), (2, 40200, 210), (5, Fraction(7, 3), 120), (2, 0, 40)])
def test_h_is_the_3F0_product_of_f_and_u(m, beta, n):
    """h = f*u exactly, to the order trunc + m it is known to, and h is
    zero off the multiples of 2(m - 1)."""
    pair = formal_solutions(m, beta, n)
    assert pair.h.trunc == n + m
    longer = formal_solutions(m, beta, n + m)
    product = longer.f * _u_by_recursion(m, beta, n + m)
    assert product.trunc == n + m and product == pair.h
    assert pair.f * pair.u == pair.h
    assert all(c.is_zero for deg, c in pair.h.items() if deg % (2 * m - 2))


def solution_residuals(pair):
    """Residuals certifying the pair: f against the family ODE, u against the
    conjugated one (the equation satisfied by g*w^{1-m}*exp(...) once the
    exponential factor is peeled off)."""
    e = beta_family(pair.m, pair.beta, pair.f.trunc + 2 * pair.m)

    def residual(s, ode):
        return (s.derivative().derivative()
                - ode.alpha() * s.derivative() - ode.gamma() * s)

    return residual(pair.f, e), residual(pair.u, conjugate_ode(e))


@pytest.mark.parametrize("m,beta", [(2, 0), (2, 1), (2, Fraction(1, 2)),
                                    (3, 1), (3, 4), (4, 2)])
def test_solution_residuals_vanish(m, beta):
    pair = formal_solutions(m, beta, 30)
    rf, ru = solution_residuals(pair)
    assert rf.is_zero
    assert ru.is_zero


@pytest.mark.parametrize("m,beta", [(2, 0), (2, 1), (3, 2)])
def test_wronskian_liouville_normalization(m, beta):
    # with z1 = f and z2 = u*exp(2i/(1-m) w^{1-m}), the Wronskian is
    # exp(...) * S with S = f*u' - f'*u + 2i*w^{-m}*f*u, and the classical
    # first-order Wronskian equation forces S = 2i*w^{-m} exactly
    pair = formal_solutions(m, beta, 30)
    s = pair.f * pair.u.derivative() - pair.f.derivative() * pair.u \
        + (pair.f * pair.u).shift(-m).scale(QI(0, 2))
    assert s == TruncSeries1.monomial(QI(0, 2), -m, s.trunc)


def test_support_on_multiples_of_m_minus_1():
    for m in (2, 3, 4):
        pair = formal_solutions(m, 7, 30)
        for deg, c in pair.f.items():
            if deg % (m - 1) != 0:
                assert c.is_zero


@pytest.mark.parametrize("m", [2, 3])
def test_termination_iff_resonant(m):
    resonant = {l * (l + 1) * (m - 1) ** 2 for l in range(6)}
    for beta in range(0, 35):
        pair = formal_solutions(m, beta, 40)
        terminated = all(
            c.is_zero for deg, c in pair.f.items() if deg > 6 * (m - 1)
        )
        assert terminated == (beta in resonant), (m, beta)


def test_solutions_truncation_monotonicity():
    small = formal_solutions(2, 1, 16)
    large = formal_solutions(2, 1, 48)
    assert small.f == large.f
    assert small.u == large.u


def test_rejects_small_m():
    with pytest.raises(ValueError):
        formal_solutions(1, 1, 10)


# -- the gauge map ------------------------------------------------------------------


def test_chi_tau_beta0_is_identity():
    gm = build_chi_tau(formal_solutions(2, 0, 24))
    assert gm.f == TruncSeries1.one(gm.f.trunc)
    assert gm.g == TruncSeries1.var(gm.g.trunc)


def test_tau_quadratic_term_vanishes():
    for beta in (1, 2, 5):
        gm = build_chi_tau(formal_solutions(2, beta, 24))
        assert gm.g.coefficient(2).is_zero
        assert gm.is_special(2)


def _tau_by_quotient(pair):
    """tau = w*(1 + ((1-m)/2i)*w^{m-1}*log(u/f))^{1/(1-m)} by division and
    log, the construction tau had before it was read from h."""
    m = pair.m
    lg = divide(pair.u, pair.f).log()
    inner = TruncSeries1.one(lg.trunc + m - 1) \
        + lg.scale(QI(0, m - 1, 2)).shift(m - 1)
    return inner.pow_frac(Fraction(1, 1 - m)).shift(1)


@pytest.mark.parametrize("n", [40, 160])
@pytest.mark.parametrize("m,beta", ABEL_MEMBERS)
def test_tau_equals_the_quotient_construction(m, beta, n):
    """tau from one inverse of h equals tau from log(u/f), coefficient for
    coefficient and truncation for truncation."""
    tau = build_chi_tau(formal_solutions(m, beta, n)).g
    oracle = _tau_by_quotient(formal_solutions(m, beta, n))
    assert tau.trunc == oracle.trunc == n + m
    assert tau == oracle


# the acceptance grid, the Abel members not in it, a trivial-monodromy member
# with a divergent f, (2, -5) and the terminating (3, 8), at two orders; and
# the three benchmark members at degree 160
CHI_MEMBERS = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2),
               (2, Fraction(-1, 3)), (3, Fraction(5, 2)), (4, 1), (4, -2),
               (2, -5), (3, 8)]


@pytest.mark.parametrize("m,beta,n", [
    (m, beta, n) for n in (20, 80) for m, beta in CHI_MEMBERS
] + [(2, 1, 160), (2, Fraction(-1, 3), 160), (3, Fraction(5, 2), 160)])
def test_chi_is_reciprocal_of_f(m, beta, n):
    """chi = u * h^{-1} is divide(1, f), numerator for numerator and to the
    same order.  tau^m starts at w^m, so w^{n-m} is the top cell of chi the
    pairing reads: added to chi, it leaves the coupled witness -2 at w^n."""
    pair = formal_solutions(m, beta, n)
    gauge = build_chi_tau(pair)
    chi, quotient = gauge.f, divide(TruncSeries1.one(n), pair.f)
    assert (chi.den, chi.nums, chi.pole, chi.trunc) \
        == (quotient.den, quotient.nums, quotient.pole, n)
    assert chi * pair.f == TruncSeries1.one(n)
    bad = GaugeMap(chi + TruncSeries1.monomial(1, n - m, n), gauge.g)
    assert coupled_pairing_residual(bad, m).first_nonzero() == (n, QI(-2))


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_pullback_recovers_family_member(beta):
    gauge = build_chi_tau(formal_solutions(2, beta, 40))
    e0 = beta_family(2, 0, 48)
    eb = beta_family(2, beta, 48)
    pulled = pullback_under_gauge(e0, gauge, 2)
    assert pulled.trunc >= 20
    assert pulled.p == eb.p
    assert pulled.q == eb.q


def test_pullback_m3():
    gauge = build_chi_tau(formal_solutions(3, 2, 40))
    pulled = pullback_under_gauge(beta_family(3, 0, 48), gauge, 3)
    eb = beta_family(3, 2, 48)
    assert pulled.p == eb.p and pulled.q == eb.q


# -- Abel's identity ------------------------------------------------------------------


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("m,beta", ABEL_MEMBERS)
def test_abel_identity_for_the_formal_solutions(m, beta, n):
    """w^m*(f*u' - f'*u) + 2i*(f*u - 1) = 0 on the common truncation, and
    u = conj(f) for real beta."""
    pair = formal_solutions(m, beta, n)
    f, u = pair.f, pair.u
    lhs = (f * u.derivative() - f.derivative() * u).shift(m) \
        + (f * u - TruncSeries1.one(n)).scale(QI(0, 2))
    assert lhs.trunc == n and lhs.is_zero
    assert u == f.conj() and u.trunc == f.trunc


@pytest.mark.parametrize("m,beta", ABEL_MEMBERS)
def test_coupled_pairing_holds_to_the_degree(m, beta):
    """eta^m*tau' = tau^m*chi*conj(chi) to the order f is known, where the
    quotient lambda of coupled_map_g reaches only the order minus 2m."""
    gauge = build_chi_tau(formal_solutions(m, beta, 80))
    residual = coupled_pairing_residual(gauge, m)
    assert residual.trunc == 80 and residual.is_zero
    assert coupled_map_g(gauge, m).f.trunc == 80 - 2 * m


@pytest.mark.parametrize("m", [2, 3])
def test_coupled_pairing_needs_a_degree_above_m(m):
    """At degree m the pairing reaches no coefficient above the normalized
    w^m; at m + 1 it reads 2*Re(chi_1) = 0."""
    with pytest.raises(TruncationStarvation):
        coupled_pairing_residual(build_chi_tau(formal_solutions(m, 1, m)), m)
    gauge = build_chi_tau(formal_solutions(m, 1, m + 1))
    assert coupled_pairing_residual(gauge, m).is_zero
    bad = GaugeMap(gauge.f + TruncSeries1.monomial(1, 1, m + 1), gauge.g)
    assert coupled_pairing_residual(bad, m).first_nonzero() == (m + 1, QI(-2))


# -- coupled parameter map ------------------------------------------------------------


def _coupled_residual(f_map, g_map, m):
    """Defining-equation residual eta^m*g' - mu^m*f*lambda of the pairing
    of a variable-side map (f, g) with a parameter-side map (lambda, mu)."""
    return f_map.g.derivative().shift(m) \
        - g_map.g.pow_int(m) * f_map.f * g_map.f


def test_coupled_identity():
    gm = GaugeMap.identity(16)
    paired = coupled_map_g(gm, 2)
    assert paired.f == TruncSeries1.one(16 - 2)
    assert paired.g == TruncSeries1.var(16)


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_coupled_map_is_conjugate(beta):
    gauge = build_chi_tau(formal_solutions(2, beta, 32))
    paired = coupled_map_g(gauge, 2)
    assert paired.f == gauge.f.conj()
    assert paired.g == gauge.g.conj()
    assert _coupled_residual(gauge, paired, 2).is_zero


def test_coupled_defining_equation_general_input():
    w = TruncSeries1.var(20)
    g = divide(w, TruncSeries1.one(20) - w.pow_int(2))
    gauge = GaugeMap(TruncSeries1.one(20), g)
    paired = coupled_map_g(gauge, 2)
    assert paired.g == g
    assert _coupled_residual(gauge, paired, 2).is_zero


def test_coupled_pairing_catches_what_the_quotient_cannot():
    """With chi_3 changed by 1, lambda = eta^m*tau'/(tau^m*chi) still
    solves its own defining equation, so that residual stays zero; the
    pairing's residual changes at w^5 by -(1 + 1) = -2."""
    gauge = build_chi_tau(formal_solutions(2, 1, 24))
    bad = GaugeMap(gauge.f + TruncSeries1.monomial(1, 3, 24), gauge.g)
    assert _coupled_residual(bad, coupled_map_g(bad, 2), 2).is_zero
    assert coupled_pairing_residual(bad, 2).first_nonzero() == (5, QI(-2))


def test_coupled_requires_special_gauge():
    f = TruncSeries1.from_terms({0: 2}, 10)
    with pytest.raises(SeriesError):
        coupled_map_g(GaugeMap(f, TruncSeries1.var(10)), 2)


# -- hypersurface-level verification ----------------------------------------------------


def test_map_identity_on_beta0():
    h0 = family_hyper(2, "0", *RECT)
    res = verify_map_on_hypersurface(h0, 2, GaugeMap.identity(30))
    assert res.is_zero


def test_map_beta1_to_beta0():
    h1 = family_hyper(2, "1", *RECT)
    gauge = build_chi_tau(formal_solutions(2, 1, 30))
    res = verify_map_on_hypersurface(h1, 2, gauge)
    assert res.rect == RECT
    assert res.is_zero


def test_map_identity_with_wrong_beta_leaves_witness():
    h1 = family_hyper(2, "1", *RECT)
    res = verify_map_on_hypersurface(h1, 2, GaugeMap.identity(30))
    (j, k), value = res.first_nonzero()
    # the profiles first differ in the x^3 row: delta(psi_3) = beta*eta^2/6
    assert (j, k) == (3, 4)
    assert value == QI(0, 1, 6)


# -- rigidity probe -----------------------------------------------------------------------


def test_probe_beta0_rigid():
    report = self_map_probe(beta_family(2, 0, 26), 12)
    assert report.rigid
    assert report.verified_order >= 12


def test_probe_beta1_rigid():
    report = self_map_probe(beta_family(2, 1, 26), 12)
    assert report.rigid


def test_probe_flat_equation_detects_freedom():
    flat = AdmissibleOde(1, TruncSeries1.zero(24), TruncSeries1.zero(24))
    report = self_map_probe(flat, 6)
    assert not report.rigid
    assert report.free_degrees == (1,)
    # degree 1 leaves g free: the full affine solve finds the same
    assert _self_map_probe_oracle(flat, 6).stages[0].free_directions == ("g",)


# -- the probe against its full-order oracle ---------------------------------------


@dataclass(frozen=True)
class _OracleStage:
    degree: int
    dimension: int
    f_coeff: QI
    g_coeff: QI
    consistent: bool
    free_directions: tuple = ()


@dataclass(frozen=True)
class _OracleReport:
    stages: tuple
    rigid: bool
    identity: bool
    verified_order: int


def _self_map_probe_oracle(e, degree):
    """The probe as a full affine solve, every pullback at the working
    order: three pullbacks per stage, the unperturbed one included, and one
    more for the verified order.  Each stage solves for f_d and g_{d+m}
    against the residual of the gauge settled so far."""
    m = e.m
    work = degree + 2 * m + 8
    if e.trunc < work:
        raise TruncationStarvation(
            f"probe to degree {degree} needs ODE coefficients to order {work}, "
            f"got {e.trunc}"
        )

    f_terms = {0: QI(1)}
    g_terms = {1: QI(1)}

    def residual_pair(fd, ge, d):
        ft = dict(f_terms)
        gt = dict(g_terms)
        if not fd.is_zero:
            ft[d] = fd
        if not ge.is_zero:
            gt[d + m] = ge
        gauge = GaugeMap(TruncSeries1.from_terms(ft, work),
                         TruncSeries1.from_terms(gt, work))
        pulled = pullback_under_gauge(e, gauge, m)
        return pulled.p - e.p.truncate(pulled.p.trunc), \
            pulled.q - e.q.truncate(pulled.q.trunc)

    stages = []
    identity = True
    rigid = True
    for d in range(1, degree + 1):
        crit = d - 1 + m
        rp0, rq0 = residual_pair(QI(0), QI(0), d)
        rp1, rq1 = residual_pair(QI(1), QI(0), d)
        rp2, rq2 = residual_pair(QI(0), QI(1), d)
        for low in range(min(crit, rp0.trunc)):
            if not (rp0.coefficient(low).is_zero and rq0.coefficient(low).is_zero):
                raise SeriesError(
                    f"probe invariant broken at stage {d}: residual at order "
                    f"{low} should be zero"
                )
        a11 = rp1.coefficient(crit) - rp0.coefficient(crit)
        a12 = rp2.coefficient(crit) - rp0.coefficient(crit)
        a21 = rq1.coefficient(crit) - rq0.coefficient(crit)
        a22 = rq2.coefficient(crit) - rq0.coefficient(crit)
        b1 = -rp0.coefficient(crit)
        b2 = -rq0.coefficient(crit)

        det = a11 * a22 - a12 * a21
        free = ()
        if not det.is_zero:
            fd = (b1 * a22 - a12 * b2) / det
            ge = (a11 * b2 - b1 * a21) / det
            dim = 0
        else:
            rows = [(a11, a12, b1), (a21, a22, b2)]
            pivot = next((r for r in rows if not (r[0].is_zero and r[1].is_zero)),
                         None)
            if pivot is None:
                consistent = b1.is_zero and b2.is_zero
                dim = 2
                fd = ge = QI(0)
                free = ("f", "g")
            else:
                other = rows[1] if pivot is rows[0] else rows[0]
                consistent = (pivot[0] * other[2] - other[0] * pivot[2]).is_zero \
                    and (pivot[1] * other[2] - other[1] * pivot[2]).is_zero \
                    and (pivot[0] * other[1] - other[0] * pivot[1]).is_zero
                dim = 1
                if not pivot[0].is_zero:
                    fd = pivot[2] / pivot[0]
                    ge = QI(0)
                    free = ("g",)
                else:
                    ge = pivot[2] / pivot[1]
                    fd = QI(0)
                    free = ("f",)
            if not consistent:
                stages.append(_OracleStage(d, dim, QI(0), QI(0), False, free))
                return _OracleReport(tuple(stages), False, False, d - 1)
        if dim > 0:
            rigid = False
        if not (fd.is_zero and ge.is_zero):
            identity = False
            if not fd.is_zero:
                f_terms[d] = fd
            if not ge.is_zero:
                g_terms[d + m] = ge
        stages.append(_OracleStage(d, dim, fd, ge, True, free))

    rp, rq = residual_pair(QI(0), QI(0), degree + 1)
    verified = degree + m - 1
    for low in range(min(verified, rp.trunc) + 1):
        if not (rp.coefficient(low).is_zero and rq.coefficient(low).is_zero):
            verified = low - 1
            break
    return _OracleReport(tuple(stages), rigid, identity, verified)


def _random_real_ode(m, trunc, seed):
    """Real data (a, b) with a(0) = 1 and small random rationals elsewhere."""
    rng = random.Random(f"probe/{m}/{seed}")

    def draw():
        return QI(rng.randint(-4, 4), 0, rng.randint(1, 4))

    a = TruncSeries1([QI(1)] + [draw() for _ in range(trunc)], 0, trunc)
    b = TruncSeries1([draw() for _ in range(trunc + 1)], 0, trunc)
    return ode_from_real_data(RealData(m, a, b))


def _random_complex_ode(m, trunc, seed):
    rng = random.Random(f"probe-complex/{m}/{seed}")

    def series():
        return TruncSeries1([QI(rng.randint(-3, 3), rng.randint(-3, 3),
                                rng.randint(1, 3)) for _ in range(trunc + 1)],
                            0, trunc)

    return AdmissibleOde(m, series(), series())


def _probe_cases():
    # the six grid members and the three equiv-deep members, at the order
    # the pipeline builds them: max(rect sum + 2m + 2, degree + 2m + 10)
    for m, beta in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)):
        yield f"grid-{m},{beta}", lambda m=m, beta=beta: beta_family(
            m, beta, 50 + 2 * m), 12
    for m, beta in ((2, Fraction(1)), (2, Fraction(-1, 3)), (3, Fraction(5, 2))):
        yield f"deep-{m},{beta}", lambda m=m, beta=beta: beta_family(
            m, beta, 170 + 2 * m), 12
    for m in (1, 2, 3, 4):
        for degree in (1, 5, 12):
            yield f"real-m{m}-d{degree}", lambda m=m, degree=degree: \
                _random_real_ode(m, degree + 2 * m + 8, degree), degree
        yield f"complex-m{m}", lambda m=m: _random_complex_ode(m, 2 * m + 13, 0), 5
    yield "flat-m1", lambda: AdmissibleOde(1, TruncSeries1.zero(24),
                                           TruncSeries1.zero(24)), 6
    # m = 1 with (P(0) + 1)^2 + 4 Q(0) = (2i)^2 + 20 = 4^2: degree 4 is free
    yield "real-m1-a1-b5", lambda: ode_from_real_data(RealData(
        1, TruncSeries1.one(24), TruncSeries1.from_terms({0: 5}, 24))), 12
    yield "family-4,1", lambda: beta_family(4, 1, 40), 12
    # P(0)^2 + 4 Q(0) = 0 makes the stage-1 system singular
    yield "singular-m2", lambda: AdmissibleOde(
        2, TruncSeries1.from_terms({0: 2, 1: -2}, 24),
        TruncSeries1.from_terms({0: -1, 3: 1}, 24)), 6


@pytest.mark.parametrize("make,degree", [c[1:] for c in _probe_cases()],
                         ids=[c[0] for c in _probe_cases()])
def test_probe_matches_full_order_oracle(make, degree):
    """The closed-form probe frees the degrees where the full affine solve
    finds dimension 1, and the affine solve never leaves the identity: every
    stage is consistent with zero coefficients."""
    e = make()
    report = self_map_probe(e, degree)
    oracle = _self_map_probe_oracle(e, degree)
    assert [st.degree for st in oracle.stages] == list(range(1, degree + 1))
    assert report.free_degrees == tuple(
        st.degree for st in oracle.stages if st.dimension == 1)
    # a free degree leaves g free, and no other stage leaves anything
    assert all(st.free_directions == (
        ("g",) if st.degree in report.free_degrees else ())
        for st in oracle.stages)
    assert (report.rigid, report.verified_order) == (oracle.rigid,
                                                      oracle.verified_order)
    assert oracle.identity
    assert all(st.consistent and st.f_coeff.is_zero and st.g_coeff.is_zero
               for st in oracle.stages)


@pytest.mark.parametrize("sq, degree, free", [
    (16, 4, (4,)), (16, 3, ()), (1, 4, (1,)), (0, 4, ()), (-16, 4, ()),
    (2, 4, ()), (Fraction(9, 4), 4, ()), (QI(16, 16), 4, ())])
def test_probe_m1_frees_only_the_integer_root(sq, degree, free):
    """For m = 1 the one degree that can be free is the integer d >= 1 with
    d^2 = (P(0) + 1)^2 + 4*Q(0), and only up to the probed degree: the full
    affine solve agrees for each kind of value d^2 can take."""
    e = AdmissibleOde(1, TruncSeries1.from_terms({0: -1}, 24),
                      TruncSeries1.from_terms({0: QI.of(sq) / 4}, 24))
    assert self_map_probe(e, degree).free_degrees == free
    assert tuple(st.degree for st in _self_map_probe_oracle(e, degree).stages
                 if st.dimension == 1) == free


def test_probe_raises_when_the_identity_leaves_a_residual(monkeypatch):
    """A pullback that moves the identity breaks the invariant every stage
    relies on."""
    pullback = equiv.pullback_under_gauge

    def perturbed(target, gauge, m):
        pulled = pullback(target, gauge, m)
        bump = TruncSeries1.monomial(QI(0, 1, 7), m + 3, pulled.q.trunc)
        return AdmissibleOde(m, pulled.p, pulled.q + bump)

    monkeypatch.setattr(equiv, "pullback_under_gauge", perturbed)
    with pytest.raises(SeriesError, match="identity's residual at order 5"):
        self_map_probe(beta_family(2, 1, 40), 12)


def _perturbed_stage_matrix(e, d):
    """Stage d's (a11, a12, a21, a22) from two perturbed pullbacks, f_d = 1
    and g_{d+m} = 1, read at w^{d-1+m}.  A pullback through a gauge known
    to order T >= 2m + 1 claims order T - 1 (below 2m + 1 the w^{-2m} pole
    part of gamma(g) starves it), so both run at T = max(d + m, 2m + 1)."""
    m = e.m
    order = max(d + m, 2 * m + 1)
    crit = d - 1 + m

    def change(ft, gt):
        gauge = GaugeMap(TruncSeries1.from_terms({0: QI(1), **ft}, order),
                         TruncSeries1.from_terms({1: QI(1), **gt}, order))
        pulled = pullback_under_gauge(e, gauge, m)
        return (pulled.p - e.p.truncate(pulled.p.trunc)).coefficient(crit), \
            (pulled.q - e.q.truncate(pulled.q.trunc)).coefficient(crit)

    (a11, a21), (a12, a22) = change({d: QI(1)}, {}), change({}, {d + m: QI(1)})
    return a11, a12, a21, a22


def test_probe_stage_entries_match_perturbed_pullbacks():
    """The determinant the probe decides by, -d^2*(P(0)^2 + 4*Q(0)) for
    m >= 2 and d^2*(d^2 - (P(0) + 1)^2 - 4*Q(0)) for m = 1, is that of the
    stage matrix the perturbed pullbacks give, whose f entry -2d never
    vanishes, on every probe case."""
    for name, make, degree in _probe_cases():
        e = make()
        p0, q0 = e.p.coefficient(0), e.q.coefficient(0)
        for d in range(1, degree + 1):
            a11, a12, a21, a22 = _perturbed_stage_matrix(e, d)
            assert a11 == QI(-2 * d), (name, d)
            if e.m >= 2:
                det = -d * d * (p0 * p0 + 4 * q0)
            else:
                det = d * d * (d * d - (p0 + 1) * (p0 + 1) - 4 * q0)
            assert a11 * a22 - a12 * a21 == det, (name, d)


def test_rigid_probe_pulls_back_the_identity_once(monkeypatch):
    """The verdict reads P(0) and Q(0), so the probe pulls back only the
    identity, once, at the working order degree + 2m + 8: the check on the
    pullback machinery."""
    gauges = []
    pullback = equiv.pullback_under_gauge

    def counting(target, gauge, m):
        gauges.append(gauge)
        return pullback(target, gauge, m)

    monkeypatch.setattr(equiv, "pullback_under_gauge", counting)
    report = self_map_probe(beta_family(2, 1, 40), 12)
    assert report.rigid
    assert [(g.f.trunc, g.g.trunc) for g in gauges] == [(12 + 4 + 8,) * 2]
    assert gauges[0].f == TruncSeries1.one(24)
    assert gauges[0].g == TruncSeries1.var(24)
