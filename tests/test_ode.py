from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreode import (
    QI,
    AdmissibleOde,
    GaugeMap,
    PoleOverflow,
    RealData,
    SeriesError,
    TruncationStarvation,
    TruncSeries1,
    beta_family,
    check_real_structure,
    compose,
    conjugate_ode,
    ode_from_real_data,
    pullback_under_gauge,
)

N = 14

real_coeffs = st.builds(QI, st.integers(-6, 6), st.just(0), st.integers(1, 6))


def real_series(trunc=6):
    return st.lists(real_coeffs, min_size=trunc + 1, max_size=trunc + 1).map(
        lambda cs: TruncSeries1(cs, 0, trunc)
    )


def special_gauge(m=2, trunc=12):
    small = st.builds(QI, st.integers(-3, 3), st.integers(-3, 3),
                      st.integers(1, 4))
    def build(f_tail, g_tail):
        f = TruncSeries1([QI(1)] + f_tail, 0, trunc)
        g_terms = {1: QI(1)}
        for i, c in enumerate(g_tail):
            g_terms[m + 1 + i] = c
        g = TruncSeries1.from_terms(g_terms, trunc)
        return GaugeMap(f, g)
    return st.builds(build,
                     st.lists(small, min_size=trunc, max_size=trunc),
                     st.lists(small, min_size=trunc - m, max_size=trunc - m))


def test_family_m2():
    e = beta_family(2, 1, N)
    assert e.p == TruncSeries1.from_terms({0: QI(0, 2), 1: -2}, N)
    assert e.q == TruncSeries1.from_terms({2: 1}, N)


def test_family_m3():
    e = beta_family(3, Fraction(1, 2), N)
    assert e.p == TruncSeries1.from_terms({0: QI(0, 2), 2: -3}, N)
    assert e.q == TruncSeries1.from_terms({4: QI(1, 0, 2)}, N)


def test_family_polynomial_degrees():
    for m in (2, 3, 4):
        e = beta_family(m, 5, 20)
        assert e.p.first_nonzero()[0] == 0
        assert max(d for d, c in e.p.items() if not c.is_zero) == m - 1
        assert e.q.first_nonzero()[0] == 2 * m - 2


def test_zero_data():
    e = ode_from_real_data(RealData(2, TruncSeries1.zero(N),
                                    TruncSeries1.zero(N)))
    assert e.p == TruncSeries1.from_terms({1: -2}, N)
    assert e.q.is_zero


def test_real_data_rejects_complex():
    with pytest.raises(SeriesError):
        RealData(2, TruncSeries1.constant(QI(0, 1), N), TruncSeries1.zero(N))


def test_check_real_structure_family():
    rs = check_real_structure(beta_family(2, 1, N))
    assert rs.ok
    assert rs.a == TruncSeries1.one(rs.a.trunc)
    assert rs.b == TruncSeries1.from_terms({2: 1}, rs.b.trunc)


def test_check_real_structure_violation_witness():
    e = AdmissibleOde(1, TruncSeries1.one(N), TruncSeries1.zero(N))
    rs = check_real_structure(e)
    assert not rs.ok
    assert rs.witness == {"series": "a", "degree": 0, "value": "-1i"}


@given(real_series(), real_series(), st.integers(1, 3))
def test_build_then_check_roundtrip(a, b, m):
    data = RealData(m, a, b)
    rs = check_real_structure(ode_from_real_data(data))
    assert rs.ok
    assert rs.a == a
    assert rs.b == b


def test_conjugate_involution():
    e = beta_family(2, 3, N)
    assert conjugate_ode(conjugate_ode(e)) == e
    assert conjugate_ode(e).p.coefficient(0) == QI(0, -2)


def test_pullback_identity():
    e = beta_family(2, 1, N)
    pulled = pullback_under_gauge(e, GaugeMap.identity(N), 2)
    assert pulled.p == e.p and pulled.q == e.q


def test_pullback_flat_stays_flat():
    z0 = AdmissibleOde(1, TruncSeries1.zero(N), TruncSeries1.zero(N))
    pulled = pullback_under_gauge(z0, GaugeMap.identity(N), 1)
    assert pulled.p.is_zero and pulled.q.is_zero


def test_pullback_pole_overflow():
    e = beta_family(2, 1, N)
    with pytest.raises(PoleOverflow):
        pullback_under_gauge(e, GaugeMap.identity(N), 1)


def compose_gauges(outer, inner):
    """outer after inner: (z, w) -> inner -> outer."""
    return GaugeMap(inner.f * compose(outer.f, inner.g),
                    compose(outer.g, inner.g))


@given(special_gauge(), special_gauge())
def test_pullback_contravariant_functorial(g1, g2):
    e = beta_family(2, 1, 20)
    once = pullback_under_gauge(pullback_under_gauge(e, g1, 2), g2, 2)
    composed = pullback_under_gauge(e, compose_gauges(g1, g2), 2)
    assert once.p == composed.p
    assert once.q == composed.q


small_complex = st.builds(QI, st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10), st.integers(1, 3),
       st.lists(real_coeffs, min_size=20, max_size=20),
       st.lists(real_coeffs, min_size=21, max_size=21),
       st.lists(small_complex, min_size=13, max_size=13),
       st.lists(small_complex, min_size=12, max_size=12))
def test_pullback_claims_are_sound(m, n, k, a_tail, b, f_tail, g_tail):
    """A special gauge known to order n and the same gauge known to n + k
    pull back random real data to the same cells up to the order claimed
    at n; that claim is at least n - 1 once n >= 2m + 1, and below that the
    pullback either claims soundly or raises TruncationStarvation."""
    data = RealData(m, TruncSeries1([QI(1)] + a_tail, 0, 20),
                    TruncSeries1(b, 0, 20))
    e = ode_from_real_data(data)

    def pulled(trunc):
        g_terms = {1: QI(1)}
        g_terms.update((m + 1 + i, c) for i, c in enumerate(g_tail)
                       if m + 1 + i <= trunc)
        gauge = GaugeMap(TruncSeries1([QI(1)] + f_tail[:trunc], 0, trunc),
                         TruncSeries1.from_terms(g_terms, trunc))
        assert gauge.is_special(m)
        return pullback_under_gauge(e, gauge, m)

    try:
        small = pulled(n)
    except TruncationStarvation:
        assert n < 2 * m + 1
        return
    big = pulled(n + k)
    if n >= 2 * m + 1:
        assert small.trunc >= n - 1
    assert small.trunc <= big.trunc
    assert small.p == big.p.truncate(small.trunc)
    assert small.q == big.q.truncate(small.trunc)


def test_gauge_compose_and_specialness():
    gm = GaugeMap.identity(10)
    assert gm.is_special(3)
    f = TruncSeries1.from_terms({0: 1, 1: QI(0, 1)}, 10)
    g = TruncSeries1.from_terms({1: 1, 2: 1}, 10)
    gm2 = GaugeMap(f, g)
    assert not gm2.is_special(2)
    assert compose_gauges(gm2, GaugeMap.identity(10)).f == f


def test_gauge_validation():
    with pytest.raises(SeriesError):
        GaugeMap(TruncSeries1.zero(4), TruncSeries1.var(4))
    with pytest.raises(SeriesError):
        GaugeMap(TruncSeries1.one(4), TruncSeries1.one(4))


def test_ode_json_roundtrip():
    e = beta_family(3, Fraction(-2, 3), N)
    assert AdmissibleOde.from_json(e.to_json()) == e
