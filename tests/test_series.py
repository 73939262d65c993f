import functools
import json
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import family_hyper, family_profile
from segreode import (
    QI,
    SeriesError,
    TruncSeries1,
    TruncSeries2,
    TruncationStarvation,
    build_chi_tau,
    coeff_str,
    compose,
    divide,
    explicit_model,
    formal_solutions,
    model_rho,
    parse_coeff,
)
from segreode.coefficients import ONE, ZERO
from segreode.series import OnlineSeries2, _horner, _powers, _sum

N = 10


def _online(s):
    """s itself if it is online, else an online series reading its rows."""
    return s if isinstance(s, OnlineSeries2) else OnlineSeries2(
        s.nx, s.ny, s._row)


qi_values = st.builds(QI, st.integers(-9, 9), st.integers(-9, 9),
                      st.integers(1, 9))


def series1(trunc=8):
    return st.lists(qi_values, min_size=trunc + 1, max_size=trunc + 1).map(
        lambda cs: TruncSeries1(cs, 0, trunc)
    )


def units1(trunc=8):
    return st.lists(qi_values, min_size=trunc, max_size=trunc).map(
        lambda cs: TruncSeries1([QI(1)] + cs, 0, trunc)
    )


def nilpotent1(trunc=8):
    return st.lists(qi_values, min_size=trunc, max_size=trunc).map(
        lambda cs: TruncSeries1([QI(0)] + cs, 0, trunc)
    )


# -- coefficients -----------------------------------------------------------


def test_qi_normalization():
    c = QI(2, -4, -6)
    assert (c.a, c.b, c.d) == (-1, 2, 3)
    assert QI(0, 0, 5) == QI(0)


def test_qi_arithmetic():
    i = QI(0, 1)
    assert i * i == QI(-1)
    assert (QI(1, 1) / QI(1, 1)) == QI(1)
    assert QI(1, 0, 2) + Fraction(1, 2) == QI(1)
    assert 2 * QI(1, 0, 2) == QI(1)
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


@given(qi_values, qi_values)
def test_qi_lowest_terms_invariant(a, b):
    for c in (a + b, a - b, a * b):
        assert math.gcd(c.a, c.b, c.d) == 1
        assert c.d > 0
    if not b.is_zero:
        q = a / b
        assert math.gcd(q.a, q.b, q.d) == 1
        assert q * b == a


# zeros drawn often: ZERO, an unreduced 0/d, zero real or imaginary parts
zero_heavy_qi = st.one_of(
    st.just(ZERO),
    st.builds(QI, st.just(0), st.just(0), st.integers(-9, 9).filter(bool)),
    st.builds(QI, st.integers(-9, 9), st.just(0), st.integers(1, 9)),
    st.builds(QI, st.just(0), st.integers(-9, 9), st.integers(1, 9)),
    qi_values)


def _fraction_pair(v):
    if isinstance(v, QI):
        return Fraction(v.a, v.d), Fraction(v.b, v.d)
    return Fraction(v), Fraction(0)


@given(zero_heavy_qi,
       st.one_of(zero_heavy_qi, st.integers(-3, 3),
                 st.fractions(-3, 3, max_denominator=5)),
       st.booleans())
def test_qi_zero_operands_keep_exact_values(a, b, swap):
    """+, - and * with zero operands, an int or a Fraction on either side
    (swap reaches __radd__, __rsub__ and __rmul__), equal the Fraction-pair
    values and stay in lowest terms."""
    x, y = (b, a) if swap else (a, b)
    (xr, xi), (yr, yi) = _fraction_pair(x), _fraction_pair(y)
    for c, want in ((x + y, (xr + yr, xi + yi)), (x - y, (xr - yr, xi - yi)),
                    (x * y, (xr * yr - xi * yi, xr * yi + xi * yr))):
        assert isinstance(c, QI)
        assert _fraction_pair(c) == want
        assert math.gcd(c.a, c.b, c.d) == 1 and c.d > 0


def _counting_qi(monkeypatch):
    built = []
    init = QI.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(QI, "__init__", counting_init)
    return built


def test_sparse_product_builds_no_zero_cells(monkeypatch):
    """rho of (2,1) is sparse; rho*rho stores only the nonzero cells of the
    product, as reduced integer numerator rows, and builds no QI; reading
    its cells builds one QI per nonzero cell, none for its zero cells."""
    rho = family_hyper(2, "1", 8, 24).rho
    built = _counting_qi(monkeypatch)
    square = rho * rho
    assert not built
    cells = [c for row in square.rows for c in row]
    monkeypatch.undo()
    nonzero = sum(1 for c in cells if c)
    assert len(built) == nonzero == sum(len(nums) for _, nums in square._rows)
    assert nonzero < len(cells)
    _assert_layout(square)


def test_conj_and_neg_build_no_qi_for_real_or_zero_cells(monkeypatch):
    """rho of (2,1) is sparse with i-multiple cells; its conjugate and its
    negation build no QI, keep the denominator of each row of rho and give
    the cells of the arithmetic definitions; on QI, a real value is its own
    conjugate and zero its own negation."""
    rho = family_hyper(2, "1", 8, 24).rho
    cells = [c for row in rho.rows for c in row]
    half, zero = QI(3, 0, 2), QI(0, 0, 5)
    built = _counting_qi(monkeypatch)
    conj, neg = rho.conj(), -rho
    real = (half.conj(), ZERO.conj(), -ZERO, -zero)
    monkeypatch.undo()
    assert not built
    dens = [[d for d, _ in s._rows] for s in (conj, neg, rho)]
    assert dens[0] == dens[1] == dens[2]
    for s in (conj, neg):
        _assert_layout(s)
    assert real[0] is half and all(z is ZERO for z in real[1:])
    assert [c for row in conj.rows for c in row] == [
        QI(c.a, -c.b, c.d) for c in cells]
    assert [c for row in neg.rows for c in row] == [
        QI(-c.a, -c.b, c.d) for c in cells]


@pytest.mark.parametrize("text", ["3/2", "-1/2+3i", "2i", "-2/3i", "1-1/2i",
                                  "0", "-7", "1+1i"])
def test_coeff_grammar_roundtrip(text):
    assert coeff_str(parse_coeff(text)) == text


def test_coeff_parse_rejects_junk():
    for bad in ["", "i", "1+", "1**i", "1.5"]:
        with pytest.raises(ValueError):
            parse_coeff(bad)


# -- ring operations ---------------------------------------------------------


def test_difference_of_squares():
    w = TruncSeries1.var(N)
    one = TruncSeries1.one(N)
    p = (one + w) * (one - w)
    assert p.coefficient(0) == QI(1)
    assert p.coefficient(1).is_zero
    assert p.coefficient(2) == QI(-1)


def test_laurent_pole_cancellation():
    w = TruncSeries1.var(N)
    winv = TruncSeries1.monomial(1, -1, N)
    q = winv * w
    assert q.pole == 0
    assert q == TruncSeries1.one(q.trunc)


def test_bivariate_square():
    one = TruncSeries2.one(2, 2)
    x = TruncSeries2.var_x(2, 2)
    y = TruncSeries2.var_y(2, 2)
    s = (one + x + y) * (one + x + y)
    expect = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    for (j, k), v in expect.items():
        assert s.coefficient(j, k) == QI(v)


@given(series1(), series1(), series1())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(series1(), st.sampled_from([0.5, 2.0, 1j, 1 + 2j]))
def test_backend_mixing_rejected(a, value):
    """Series are exact only: float and complex scalars and cells raise."""
    with pytest.raises(SeriesError):
        a * value
    with pytest.raises(SeriesError):
        a / value
    with pytest.raises(SeriesError):
        TruncSeries1.constant(value, 2)
    with pytest.raises(SeriesError):
        TruncSeries1([QI(1), value], 0, 1)
    with pytest.raises(SeriesError):
        TruncSeries2([[QI(1), value]], 0, 1)


# -- division ----------------------------------------------------------------


def test_geometric_series():
    w = TruncSeries1.var(N)
    g = divide(TruncSeries1.one(N), TruncSeries1.one(N) - w)
    assert all(g.coefficient(k) == QI(1) for k in range(g.trunc + 1))


def test_monomial_quotient():
    w = TruncSeries1.var(N)
    q = divide(w * w, w)
    assert q == TruncSeries1.var(q.trunc)


def test_termwise_laurent_quotient():
    num = TruncSeries1.from_terms({0: QI(0, 2), 1: -2}, N)
    den = TruncSeries1.var(N) * TruncSeries1.var(N)
    q = divide(num, den)
    assert q.pole == 2
    assert q.coefficient(-2) == QI(0, 2)
    assert q.coefficient(-1) == QI(-2)
    assert q.coefficient(0).is_zero


@given(series1(), units1())
def test_divide_is_mul_inverse(a, b):
    q = divide(a, b)
    assert q * b == a


def test_divide_by_zero_series():
    with pytest.raises(ZeroDivisionError):
        divide(TruncSeries1.one(N), TruncSeries1.zero(N))


# -- exp/log and fractional powers -------------------------------------------


def test_exp_series():
    e = TruncSeries1.var(N).exp()
    for k in range(N + 1):
        assert e.coefficient(k) == QI(1, 0, math.factorial(k))


def test_log_series():
    l = (TruncSeries1.one(N) + TruncSeries1.var(N)).log()
    for k in range(1, N + 1):
        assert l.coefficient(k) == QI((-1) ** (k + 1), 0, k)


@given(units1())
def test_exp_log_inverse(u):
    assert u.log().exp() == u


def test_log_conjugate_quotient():
    # log(conj(f)/f) for f = 1 + (i/2)w + (1/8)w^2: linear term -i, square 0
    f = TruncSeries1.from_terms({0: 1, 1: QI(0, 1, 2), 2: QI(1, 0, 8)}, 4)
    l = divide(f.conj(), f).log()
    assert l.coefficient(1) == QI(0, -1)
    assert l.coefficient(2).is_zero


def test_binomial_sqrt():
    h = (TruncSeries1.one(N) + TruncSeries1.var(N)).pow_frac(Fraction(1, 2))
    assert h.coefficient(1) == QI(1, 0, 2)
    assert h.coefficient(2) == QI(-1, 0, 8)


def test_fractional_power_roundtrip():
    u = TruncSeries1.one(N) + TruncSeries1.monomial(QI(1, 0, 2), 2, N)
    inv = u.pow_frac(Fraction(-1))
    assert inv.coefficient(2) == QI(-1, 0, 2)
    assert inv.pow_frac(Fraction(-1)) == u


@given(units1())
def test_square_root_squares_back(u):
    assert u.pow_frac(Fraction(1, 2)).pow_frac(Fraction(2)) == u


def test_log_requires_unit():
    with pytest.raises(SeriesError):
        (TruncSeries1.var(N)).log()
    with pytest.raises(SeriesError):
        TruncSeries1.constant(2, N).exp()
    with pytest.raises(SeriesError):
        TruncSeries1.monomial(1, -1, N).exp()


@pytest.mark.parametrize("u", [
    TruncSeries1.one(N) + TruncSeries1.monomial(1, -1, N),
    TruncSeries1.constant(2, N) + TruncSeries1.var(N),
    TruncSeries1.var(N),
])
def test_pow_frac_requires_unit_like_log(u):
    """A pole, or u(0) != 1, makes pow_frac raise the error log raises."""
    with pytest.raises(SeriesError) as log_error:
        u.log()
    with pytest.raises(SeriesError) as pow_error:
        u.pow_frac(Fraction(1, 2))
    assert type(pow_error.value) is type(log_error.value)
    assert str(pow_error.value) == str(log_error.value) \
        == "log requires constant term exactly 1"


# -- recurrence kernels against the product-based oracles --------------------


def _divide_oracle(a, b):
    """Newton inversion of the unit part of b, then one product."""
    v = b.order()
    unit = b.shift(-v)
    n = unit.trunc
    y = TruncSeries1.constant(ONE / unit.coefficient(0), n)
    two = TruncSeries1.constant(2, n)
    correct = 0
    while correct < n:
        y = y * (two - unit * y)
        correct = 2 * correct + 1
    return (a * y).shift(-v)


def _power_sum_oracle(acc, base, coeff):
    """acc + sum_{k=1..trunc} coeff(k) * base^k, one product per power."""
    power = TruncSeries1.one(base.trunc)
    for k in range(1, base.trunc + 1):
        power = power * base
        acc = acc + power.scale(coeff(k))
    return acc


def _exp_oracle(f):
    return _power_sum_oracle(TruncSeries1.one(f.trunc), f,
                             lambda k: QI(1, 0, math.factorial(k)))


def _log_oracle(u):
    return _power_sum_oracle(TruncSeries1.zero(u.trunc),
                             u - TruncSeries1.one(u.trunc),
                             lambda k: QI(1 if k % 2 else -1, 0, k))


def _pow_frac_oracle(u, alpha):
    return _exp_oracle(_log_oracle(u).scale(alpha))


def _same_cells(got, expect):
    assert (got.pole, got.trunc) == (expect.pole, expect.trunc)
    assert got.coeffs == expect.coeffs


sparse_qi = st.one_of(st.just(ZERO), qi_values)

# 1/(1-m) for m = 2, 3, other negative exponents, and a few positive ones
ALPHAS = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(-3, 2),
                     Fraction(-2, 5), Fraction(0), Fraction(1, 3),
                     Fraction(5, 2)]),
    st.fractions(-3, 3, max_denominator=6))


@st.composite
def laurent1(draw, max_pole=3, max_trunc=8, head=sparse_qi, min_pole=0,
             body=sparse_qi):
    """Gaussian-rational Laurent series with pole min_pole..max_pole, trunc
    0..max_trunc, first stored cell drawn from ``head`` and the others from
    ``body``."""
    pole = draw(st.integers(min_pole, max_pole))
    trunc = draw(st.integers(0, max_trunc))
    cells = [draw(head)] + [draw(body) for _ in range(trunc + pole)]
    return TruncSeries1(cells, pole, trunc)


def with_head(head, max_trunc=8):
    """Power series (pole 0, trunc 0..max_trunc) with constant term ``head``."""
    return laurent1(max_pole=0, max_trunc=max_trunc, head=st.just(head))


_T0 = TruncSeries1([QI(3, 1, 2)], 0, 0)
_T1 = TruncSeries1([QI(2), QI(0, -1, 3)], 0, 1)
_LAURENT = TruncSeries1([QI(1, 1), ZERO, QI(-2, 0, 3), QI(0, 1)], 2, 1)


@given(laurent1(), laurent1(max_pole=2))
@example(_T0, _T0)
@example(_T1, _T1)
@example(_LAURENT, _T1.shift(1))
@example(_T1, _LAURENT)
@example(_LAURENT, _T0)
def test_divide_matches_newton_oracle(a, b):
    """Laurent numerators and denominators, units with any constant term,
    denominators of positive order: same cells, pole and truncation, or the
    same error."""
    if b.order() is None:
        with pytest.raises(ZeroDivisionError):
            divide(a, b)
        return
    try:
        expect = _divide_oracle(a, b)
    except SeriesError as exc:
        with pytest.raises(type(exc)) as err:
            divide(a, b)
        assert str(err.value) == str(exc)
        return
    _same_cells(divide(a, b), expect)


@given(with_head(ZERO))
@example(TruncSeries1.zero(0))
@example(TruncSeries1([ZERO, QI(1, -2, 3)], 0, 1))
def test_exp_matches_power_sum_oracle(f):
    _same_cells(f.exp(), _exp_oracle(f))


@given(with_head(ONE))
@example(TruncSeries1.one(0))
@example(TruncSeries1([ONE, QI(1, -2, 3)], 0, 1))
def test_log_matches_power_sum_oracle(u):
    _same_cells(u.log(), _log_oracle(u))


_UNIT = TruncSeries1([ONE, QI(1, 1, 2), ZERO, QI(-3, 0, 5), QI(0, 2)], 0, 4)


@given(with_head(ONE, max_trunc=7), ALPHAS)
@example(TruncSeries1.one(0), Fraction(-1))
@example(TruncSeries1([ONE, QI(0, 1)], 0, 1), Fraction(-1, 2))
@example(_UNIT, Fraction(-1))
@example(_UNIT, Fraction(-1, 2))
@example(_UNIT, Fraction(-3, 2))
def test_pow_frac_matches_log_exp_oracle(u, alpha):
    _same_cells(u.pow_frac(alpha), _pow_frac_oracle(u, alpha))


def test_recurrences_make_no_series_products(monkeypatch):
    u = TruncSeries1.from_terms({0: 1, 1: QI(1, 2), 3: QI(-1, 0, 3)}, 12)
    f = u - TruncSeries1.one(12)
    b = TruncSeries1.from_terms({-1: 2, 2: QI(0, 1)}, 12)
    calls = []
    mul = TruncSeries1.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncSeries1, "__mul__", counted)
    results = (divide(u, b), b.inverse(), f.exp(), u.log(),
               u.pow_frac(Fraction(-1, 2)))
    assert not calls
    monkeypatch.undo()
    expect = (_divide_oracle(u, b), _divide_oracle(TruncSeries1.one(13), b),
              _exp_oracle(f), _log_oracle(u),
              _pow_frac_oracle(u, Fraction(-1, 2)))
    for got, want in zip(results, expect):
        _same_cells(got, want)


def _extended(draw, s):
    """s with 1 to 3 random cells appended beyond its truncation."""
    extra = draw(st.integers(1, 3))
    cells = list(s.coeffs) + [draw(sparse_qi) for _ in range(extra)]
    return TruncSeries1(cells, s.pole, s.trunc + extra)


def _assert_sound(small, big):
    """The larger run covers the smaller one's claim and agrees on it."""
    assert small.trunc <= big.trunc
    assert small == big


@given(st.data(), laurent1(),
       laurent1(max_pole=2, head=qi_values.filter(bool)))
def test_divide_claim_is_sound(data, a, b):
    a_big = _extended(data.draw, a)
    b_big = _extended(data.draw, b)
    try:
        small = divide(a, b)
    except SeriesError:
        return
    _assert_sound(small, divide(a_big, b_big))


@given(st.data(), with_head(ZERO))
def test_exp_claim_is_sound(data, f):
    _assert_sound(f.exp(), _extended(data.draw, f).exp())


@given(st.data(), with_head(ONE))
def test_log_claim_is_sound(data, u):
    _assert_sound(u.log(), _extended(data.draw, u).log())


@given(st.data(), with_head(ONE), ALPHAS)
def test_pow_frac_claim_is_sound(data, u, alpha):
    _assert_sound(u.pow_frac(alpha), _extended(data.draw, u).pow_frac(alpha))


@given(st.data(), laurent1(), laurent1())
def test_mul_claim_is_sound(data, a, b):
    try:
        small = a * b
    except SeriesError:
        return
    _assert_sound(small, _extended(data.draw, a) * _extended(data.draw, b))


@given(st.data(), st.integers(-3, 4))
def test_pow_int_claim_is_sound(data, n):
    """Negative powers invert first, so their base has a nonzero first cell,
    as a divisor does."""
    head = sparse_qi if n >= 0 else qi_values.filter(bool)
    a = data.draw(laurent1(max_pole=2, max_trunc=6, head=head))
    try:
        small = a.pow_int(n)
    except SeriesError:
        return
    _assert_sound(small, _extended(data.draw, a).pow_int(n))


# w^-1 + 1 + 3w^2 known to w^5, and a pole-free series known to w^6
_POWER_BASES1 = (TruncSeries1.from_terms({-1: 1, 0: 1, 2: 3}, 5),
                 TruncSeries1.from_terms({0: QI(1, 2), 1: QI(0, -1, 3), 4: 2}, 6))
_POWER_BASE2 = TruncSeries2([[QI(1), QI(0, 2), ZERO], [QI(-1, 1, 3), ZERO, QI(5)]],
                            1, 2)


@pytest.mark.parametrize("n", range(5))
def test_pow_int_is_the_left_to_right_product(n):
    """pow_int(n) has the cells, pole and truncation (the rectangle) of
    s * s * ... * s with n factors, and of one for n = 0, on a pole series,
    a pole-free one and an eager and an online bivariate series."""
    for s in _POWER_BASES1:
        _same_cells(s.pow_int(n), functools.reduce(operator.mul, [s] * n)
                    if n else TruncSeries1.one(s.trunc))
    for s in (_POWER_BASE2, _online(_POWER_BASE2)):
        got = s.pow_int(n)
        expect = (functools.reduce(operator.mul, [s] * n) if n
                  else TruncSeries2.one(*s.rect))
        assert isinstance(got, type(s))
        _same_rect_cells(_online(got).to_series(), _online(expect).to_series())


@given(st.data(), laurent1())
def test_derivative_claim_is_sound(data, a):
    try:
        small = a.derivative()
    except SeriesError:
        return
    _assert_sound(small, _extended(data.draw, a).derivative())


@given(st.data(), laurent1(), st.integers(-4, 4))
def test_shift_claim_is_sound(data, a, k):
    try:
        small = a.shift(k)
    except SeriesError:
        return
    _assert_sound(small, _extended(data.draw, a).shift(k))


@given(st.data(), laurent1(max_pole=2, head=qi_values.filter(bool)))
def test_inverse_claim_is_sound(data, a):
    try:
        small = a.inverse()
    except SeriesError:
        return
    _assert_sound(small, _extended(data.draw, a).inverse())


# -- bivariate row recurrences against the power-sum oracles ------------------


def _power_sum2_oracle(acc, base, coeff):
    """acc + sum_{k=1..nx+ny} coeff(k) * base^k, one product per power."""
    power = TruncSeries2.one(base.nx, base.ny)
    for k in range(1, base.nx + base.ny + 1):
        power = power * base
        acc = acc + power.scale(coeff(k))
    return acc


def _exp2_oracle(f):
    return _power_sum2_oracle(TruncSeries2.one(f.nx, f.ny), f,
                              lambda k: QI(1, 0, math.factorial(k)))


def _log2_oracle(u):
    one = TruncSeries2.one(u.nx, u.ny)
    return _power_sum2_oracle(TruncSeries2.zero(u.nx, u.ny), u - one,
                              lambda k: QI(1 if k % 2 else -1, 0, k))


def _pow_frac2_oracle(u, alpha):
    return _exp2_oracle(_log2_oracle(u).scale(alpha))


def _same_rect_cells(got, expect):
    assert got.rect == expect.rect
    assert got.rows == expect.rows


@st.composite
def series2(draw, head, max_nx=3, max_ny=5):
    """Bivariate series on a rectangle up to (max_nx, max_ny) with constant
    term ``head``.  The first 0, 1 or 2 x-rows and y-columns are zero apart
    from the head, so f(0, y) - head and f(x, 0) - head are random or zero,
    and the x- and y-orders of f - head are 0, >= 1 or >= 2."""
    nx = draw(st.integers(0, max_nx))
    ny = draw(st.integers(0, max_ny))
    rows = _rows(draw, nx, ny, True)
    for j in range(min(draw(st.integers(0, 2)), nx + 1)):
        rows[j] = [ZERO] * (ny + 1)
    for l in range(min(draw(st.integers(0, 2)), ny + 1)):
        for row in rows:
            row[l] = ZERO
    rows[0][0] = head
    return TruncSeries2(rows, nx, ny)


_ROW2 = TruncSeries2([[ZERO, QI(1, 2), ZERO, QI(0, -1, 3)]], 0, 3)
_COL2 = TruncSeries2([[ZERO], [QI(2)], [QI(1, 1, 2)]], 2, 0)
_ONE2 = TruncSeries2.one(0, 0)


@given(series2(ZERO))
@example(_ROW2)
@example(_COL2)
@example(TruncSeries2.zero(0, 0))
def test_exp2_matches_power_sum_oracle(f):
    _same_rect_cells(f.exp(), _exp2_oracle(f))


@given(series2(ONE))
@example(_ROW2 + _ONE2)
@example(_COL2 + TruncSeries2.one(2, 0))
@example(_ONE2)
def test_log2_matches_power_sum_oracle(u):
    _same_rect_cells(u.log(), _log2_oracle(u))


@given(series2(ONE, max_nx=2, max_ny=4), ALPHAS)
@example(_ROW2 + _ONE2, Fraction(-1, 2))
@example(_COL2 + TruncSeries2.one(2, 0), Fraction(-1))
@example(_ONE2, Fraction(5, 2))
def test_pow_frac2_matches_log_exp_oracle(u, alpha):
    _same_rect_cells(u.pow_frac(alpha), _pow_frac2_oracle(u, alpha))


def test_exp2_matches_oracle_on_family_exponent():
    """The exponent build_rho exponentiates: i * eta * psi for (2, 1)."""
    psi = family_profile(2, "1", 4, 8).psi
    f = psi.shift_y(1).scale(QI(0, 1))
    _same_rect_cells(f.exp(), _exp2_oracle(f))


@pytest.mark.parametrize("op", ["log", "pow_frac"])
def test_log2_and_pow_frac2_require_unit(op):
    u = TruncSeries2.constant(2, 2, 3) + TruncSeries2.var_y(2, 3)
    with pytest.raises(SeriesError, match="log requires constant term exactly 1"):
        u.log() if op == "log" else u.pow_frac(Fraction(1, 2))
    with pytest.raises(SeriesError, match="exp requires zero constant term"):
        u.exp()


def test_bivariate_recurrences_make_no_series_products(monkeypatch):
    x = TruncSeries2.var_x(3, 6)
    y = TruncSeries2.var_y(3, 6)
    f = x.scale(QI(1, 1, 2)) + (x * y).scale(QI(0, -2)) + y.pow_int(3)
    u = TruncSeries2.one(3, 6) + f
    calls = _counting_mul(monkeypatch, TruncSeries2, OnlineSeries2)
    results = (f.exp(), u.log(), u.pow_frac(Fraction(-1, 2)))
    assert not calls
    monkeypatch.undo()
    expect = (_exp2_oracle(f), _log2_oracle(u),
              _pow_frac2_oracle(u, Fraction(-1, 2)))
    for got, want in zip(results, expect):
        _same_rect_cells(got, want)


def _padded2(draw, s, nx, ny):
    """s on the rectangle (nx, ny), which holds its own, with random cells
    outside the original rectangle."""
    rows = _rows(draw, nx, ny, True)
    for j, row in enumerate(s.rows):
        rows[j][: s.ny + 1] = row
    return TruncSeries2(rows, nx, ny)


def _extended2(draw, s):
    """s on a rectangle grown by 0 to 2 in each direction and by at least 1
    in one, with random cells outside the original rectangle."""
    a, b = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 0), (0, 2)]))
    return _padded2(draw, s, s.nx + a, s.ny + b)


def _assert_sound2(small, big):
    assert small.nx <= big.nx and small.ny <= big.ny
    assert small == big


@given(st.data(), series2(ZERO))
def test_exp2_claim_is_sound(data, f):
    _assert_sound2(f.exp(), _extended2(data.draw, f).exp())


@given(st.data(), series2(ONE))
def test_log2_claim_is_sound(data, u):
    _assert_sound2(u.log(), _extended2(data.draw, u).log())


@given(st.data(), series2(ONE), ALPHAS)
def test_pow_frac2_claim_is_sound(data, u, alpha):
    _assert_sound2(u.pow_frac(alpha),
                   _extended2(data.draw, u).pow_frac(alpha))


# bivariate series with any constant term
any_series2 = sparse_qi.flatmap(series2)


# -- the product kernel against a naive double sum ---------------------------


def _mul1_oracle(a, b):
    """(cells, pole, trunc) of a * b by a double sum over the cells, on the
    truncation min(a.trunc - b.pole, b.trunc - a.pole)."""
    pole = a.pole + b.pole
    trunc = min(a.trunc - b.pole, b.trunc - a.pole)
    cells = [ZERO] * max(0, trunc + pole + 1)
    for da, ca in a.items():
        for db, cb in b.items():
            if da + db <= trunc:
                cells[da + db + pole] += ca * cb
    return cells, pole, trunc


def _cells2(s):
    return [((j, l), c) for j, row in enumerate(s.rows)
            for l, c in enumerate(row)]


def _mul2_oracle(a, b):
    """a * b by a double sum over the cells, on the common rectangle."""
    nx, ny = min(a.nx, b.nx), min(a.ny, b.ny)
    rows = [[ZERO] * (ny + 1) for _ in range(nx + 1)]
    for (j1, l1), c1 in _cells2(a):
        for (j2, l2), c2 in _cells2(b):
            if j1 + j2 <= nx and l1 + l2 <= ny:
                rows[j1 + j2][l1 + l2] += c1 * c2
    return TruncSeries2(rows, nx, ny)


# a zero row between nonzero ones, and a rectangle wider than it is tall
_GAP2 = TruncSeries2([[QI(1), QI(0, 2)], [ZERO, ZERO], [QI(-1, 1, 3), ZERO]],
                     2, 1)
_WIDE2 = TruncSeries2([[ZERO, QI(1, 0, 2), QI(3), QI(0, -1, 5)],
                       [QI(2, 1), ZERO, ZERO, QI(1)]], 1, 3)


@given(laurent1(), laurent1())
@example(_LAURENT, _T1)
@example(_LAURENT, TruncSeries1([QI(2), ZERO, QI(0, -1, 3), ZERO], 0, 3))
@example(_T0, TruncSeries1([ZERO, ZERO, QI(1, 1)], 0, 2))
def test_mul1_matches_double_sum_oracle(a, b):
    cells, pole, trunc = _mul1_oracle(a, b)
    if trunc < 0:  # no series holds a negative truncation
        with pytest.raises(TruncationStarvation):
            a * b
        return
    _same_cells(a * b, TruncSeries1(cells, pole, trunc))


real_qi = st.builds(QI, st.integers(-9, 9), st.just(0), st.integers(1, 9))
imag_qi = st.builds(QI, st.just(0), st.integers(-9, 9), st.integers(1, 9))
# mixed cells, purely real, purely imaginary, real and imaginary cells side by
# side (chi for m = 2), and zero cells; every kind may also draw zero
CELL_KINDS = (qi_values, real_qi, imag_qi, st.one_of(real_qi, imag_qi),
              st.just(ZERO))


@given(st.sampled_from(CELL_KINDS).flatmap(
    lambda cell: laurent1(head=cell, body=st.one_of(st.just(ZERO), cell))))
@example(_LAURENT)
@example(TruncSeries1([QI(1, 1), ZERO, QI(0, 2), QI(3), QI(0, -1)], 2, 2))
@example(TruncSeries1([QI(0, 3), QI(1), QI(0, -1, 2)], 2, 0))  # raises
@example(TruncSeries1([QI(1), QI(0, 1, 2), QI(-1, 0, 8), QI(0, -1, 16)]))
def test_norm_is_the_product_with_the_conjugate(s):
    """norm() has the den, numerators, pole and truncation of s * conj(s),
    all of it real, and raises what that product raises."""
    try:
        expect = s * s.conj()
    except TruncationStarvation as exc:
        with pytest.raises(TruncationStarvation) as err:
            s.norm()
        assert str(err.value) == str(exc)
        return
    got = s.norm()
    assert (got.den, got.nums, got.pole, got.trunc) \
        == (expect.den, expect.nums, expect.pole, expect.trunc)
    assert all(i == 0 for _, _, i in got.nums)


@given(any_series2, any_series2)
@example(_GAP2, _WIDE2)
@example(_GAP2, _GAP2)
@example(_ROW2, _COL2)
def test_mul2_matches_double_sum_oracle(a, b):
    _same_rect_cells(a * b, _mul2_oracle(a, b))


@given(st.data(), any_series2, any_series2)
def test_mul2_claim_is_sound(data, a, b):
    _assert_sound2(a * b, _extended2(data.draw, a) * _extended2(data.draw, b))


@given(st.data(), any_series2, st.integers(0, 4))
def test_pow_int2_claim_is_sound(data, a, n):
    _assert_sound2(a.pow_int(n), _extended2(data.draw, a).pow_int(n))


@given(st.data(), any_series2)
def test_derivative_x_claim_is_sound(data, a):
    try:
        small = a.derivative_x()
    except SeriesError:
        return
    _assert_sound2(small, _extended2(data.draw, a).derivative_x())


@given(st.data(), any_series2)
def test_derivative_y_claim_is_sound(data, a):
    try:
        small = a.derivative_y()
    except SeriesError:
        return
    _assert_sound2(small, _extended2(data.draw, a).derivative_y())


# -- the numerator-row layout against a cell-wise QI oracle -------------------

# cells with denominators up to 50, so the common denominators grow large
wide_qi = st.builds(QI, st.integers(-60, 60), st.integers(-60, 60),
                    st.integers(1, 50))


@st.composite
def layout_series(draw, max_nx=3, max_ny=5):
    """A series on a random rectangle, dense or sparse, with cell
    denominators up to 50."""
    nx, ny = draw(st.integers(0, max_nx)), draw(st.integers(0, max_ny))
    cell = draw(st.sampled_from([wide_qi, st.one_of(st.just(ZERO), wide_qi),
                                 st.one_of(st.just(ZERO), st.just(ZERO),
                                           st.just(ZERO), wide_qi)]))
    return TruncSeries2([[draw(cell) for _ in range(ny + 1)]
                         for _ in range(nx + 1)], nx, ny)


def _grid(s):
    return [list(row) for row in s.rows]


def _grid_mul(ga, gb, nx, ny):
    out = [[ZERO] * (ny + 1) for _ in range(nx + 1)]
    for j1 in range(nx + 1):
        for l1 in range(ny + 1):
            for j2 in range(nx + 1 - j1):
                for l2 in range(ny + 1 - l1):
                    out[j1 + j2][l1 + l2] += ga[j1][l1] * gb[j2][l2]
    return out


def _grid_power_sum(g, nx, ny, coeff):
    """sum_{k=0..nx+ny} coeff(k) * g^k cell by cell, for g(0, 0) = 0."""
    power = [[ONE if j == l == 0 else ZERO for l in range(ny + 1)]
             for j in range(nx + 1)]
    out = [[coeff(0) * c for c in row] for row in power]
    for k in range(1, nx + ny + 1):
        power = _grid_mul(power, g, nx, ny)
        out = [[o + coeff(k) * c for o, c in zip(ro, rp)]
               for ro, rp in zip(out, power)]
    return out


def _grid_exp(g, nx, ny):
    return _grid_power_sum(g, nx, ny, lambda k: QI(1, 0, math.factorial(k)))


def _grid_log1p(g, nx, ny):
    return _grid_power_sum(g, nx, ny, lambda k: QI((-1) ** (k + 1), 0, k)
                           if k else ZERO)


def _assert_layout(s):
    """One stored row (d, nums) per x-row, each with d > 0, gcd(d, every
    numerator of the row) = 1, and only its nonzero cells, by rising column,
    inside the rectangle."""
    assert len(s._rows) == s.nx + 1
    for d, nums in s._rows:
        assert d > 0
        assert math.gcd(d, *[x for _, r, i in nums for x in (r, i)]) == 1
        cols = [l for l, _, _ in nums]
        assert cols == sorted(set(cols)) and all(0 <= l <= s.ny for l in cols)
        assert all(r or i for _, r, i in nums)


def _layout_cases(a, b, c, j):
    """(operation on a and b, cell-wise QI oracle cells, rectangle)."""
    nx, ny = min(a.nx, b.nx), min(a.ny, b.ny)
    ga, gb = _grid(a), _grid(b)
    zip2 = lambda op: [[op(ga[k][l], gb[k][l]) for l in range(ny + 1)]
                       for k in range(nx + 1)]
    k0 = TruncSeries2.constant(a.coefficient(0, 0), *a.rect)
    k1 = k0 - TruncSeries2.one(*a.rect)
    gf = _grid(a - k0)
    log = _grid_log1p(gf, *a.rect)
    half = [[x * QI(-1, 0, 2) for x in row] for row in log]
    cases = [
        (lambda a, b: a + b, zip2(lambda x, y: x + y), (nx, ny)),
        (lambda a, b: a - b, zip2(lambda x, y: x - y), (nx, ny)),
        (lambda a, b: a * b, _grid_mul(ga, gb, nx, ny), (nx, ny)),
        (lambda a, b: a.pow_int(2), _grid_mul(ga, ga, *a.rect), a.rect),
        (lambda a, b: a.scale(c), [[c * x for x in r] for r in ga], a.rect),
        (lambda a, b: a.conj(), [[x.conj() for x in r] for r in ga], a.rect),
        (lambda a, b: -a, [[-x for x in r] for r in ga], a.rect),
        (lambda a, b: a.shift_x(j),
         ([[ZERO] * (a.ny + 1)] * j + ga)[: a.nx + 1], a.rect),
        (lambda a, b: a.shift_y(j),
         [([ZERO] * j + r)[: a.ny + 1] for r in ga], a.rect),
        (lambda a, b: a.restrict(nx, ny), [r[: ny + 1] for r in ga[: nx + 1]],
         (nx, ny)),
        (lambda a, b: (a - k0).exp(), _grid_exp(gf, *a.rect), a.rect),
        (lambda a, b: _online(a - k1).to_series().log(), log, a.rect),
        (lambda a, b: _online(a - k1).to_series().pow_frac(Fraction(-1, 2)),
         _grid_exp(half, *a.rect), a.rect),
    ]
    if a.nx:
        cases.append((lambda a, b: a.derivative_x(),
                      [[x * k for x in ga[k]] for k in range(1, a.nx + 1)],
                      (a.nx - 1, a.ny)))
    if a.ny:
        cases += [(lambda a, b: a.derivative_y(),
                   [[x * l for l, x in enumerate(r) if l] for r in ga],
                   (a.nx, a.ny - 1)),
                  (lambda a, b: a.shift_y(1).shift_y(-1),
                   [r[: a.ny] for r in ga], (a.nx, a.ny - 1))]
    return cases


@settings(max_examples=60, deadline=None)
@given(layout_series(), layout_series(), wide_qi, st.integers(0, 2))
def test_layout_matches_cellwise_oracle(a, b, c, j):
    """Every bivariate operation, eager and online, gives the oracle's
    reduced cells and stores them in the numerator-row layout; the queries
    that read the stored rows give the oracle's answers."""
    for op, cells, rect in _layout_cases(a, b, c, j):
        nonzero = [((k, l), x) for k, row in enumerate(cells)
                   for l, x in enumerate(row) if x]
        for got in (op(a, b), op(_online(a), _online(b))):
            if isinstance(got, OnlineSeries2):
                got = got.to_series()
            _assert_layout(got)
            assert got.rect == rect
            assert [list(r) for r in got.rows] == cells
            assert all(math.gcd(x.a, x.b, x.d) == 1 and x.d > 0
                       for row in got.rows for x in row)
            assert got == TruncSeries2(cells)
            assert got.is_zero == (not nonzero)
            assert got.y_order() == min((l for (_, l), _ in nonzero),
                                        default=None)
            assert got.first_nonzero() == min(
                nonzero, key=lambda c: (sum(c[0]), c[0][0]), default=None)


@st.composite
def layout_series1(draw, max_pole=3, head=None, min_pole=0):
    """A Laurent series with pole min_pole..max_pole, trunc 0..8 (1..8 for a
    positive min_pole), dense or sparse, with cell denominators up to 50 and
    first stored cell drawn from ``head`` when given."""
    pole = draw(st.integers(min_pole, max_pole))
    trunc = draw(st.integers(1 if min_pole else 0, 8))
    cell = draw(st.sampled_from([wide_qi, st.one_of(st.just(ZERO), wide_qi),
                                 st.one_of(st.just(ZERO), st.just(ZERO),
                                           st.just(ZERO), wide_qi)]))
    cells = [draw(cell) for _ in range(trunc + pole + 1)]
    if head is not None:
        cells[0] = draw(head)
    return TruncSeries1(cells, pole, trunc)


def _normalized1(cells, pole, trunc):
    """(cells, pole, trunc) with the zero cells below the first nonzero one
    dropped while the pole is positive; no series has a negative trunc."""
    if trunc < 0:
        raise TruncationStarvation(f"truncation order {trunc} < 0")
    while pole > 0 and cells[0].is_zero:
        cells, pole = cells[1:], pole - 1
    return list(cells), pole, trunc


def _window1(s, pole, trunc):
    return [s.coefficient(d) for d in range(-pole, trunc + 1)]


def _zip1_oracle(a, b, op):
    pole, trunc = max(a.pole, b.pole), min(a.trunc, b.trunc)
    return _normalized1([op(x, y) for x, y in zip(_window1(a, pole, trunc),
                                                  _window1(b, pole, trunc))],
                        pole, trunc)


def _compose1_oracle(outer, inner):
    """outer(inner) for outer = w^-p * sum_k c_k w^k, by cell-wise products:
    sum_k c_k * inner^k on the truncation min(n, (T + p + 1) * v - 1), then
    times the inverse that _divide_oracle takes, p times; with n = inner.trunc,
    T = outer.trunc and v the order of inner, that is min(n - (p + 1) * v,
    (T + 1) * v - 1) for p >= 1."""
    n, p = inner.trunc, outer.pole
    v = inner.order() or n + 1
    top = min(n, (outer.trunc + p + 1) * v - 1)
    power = [ONE] + [ZERO] * n
    acc = [outer.coefficient(-p) * x for x in power]
    for k in range(1, outer.trunc + p + 1):
        power = [sum((power[j] * inner.coefficient(l - j) for j in range(l + 1)),
                     ZERO) for l in range(n + 1)]
        acc = [x + outer.coefficient(k - p) * y for x, y in zip(acc, power)]
    result = acc[: top + 1], 0, top
    if p:
        inverse = _divide_oracle(TruncSeries1.one(n), inner)
        for _ in range(p):
            result = _normalized1(*_mul1_oracle(TruncSeries1(*result), inverse))
    return result


def _series1(s):
    return list(s.coeffs), s.pole, s.trunc


def _layout1_cases(a, b, p, u, f, o, g, c, k, alpha):
    """(operation, its cell-wise oracle) on a and b, a pole series p, a unit
    u, a series f with zero constant term, a pole-free series o and a series
    g of order 1 to 3."""
    t = min(k, a.trunc)
    shifted = max(a.pole - k, 0)
    return [
        (lambda: a + b, lambda: _zip1_oracle(a, b, operator.add)),
        (lambda: a - b, lambda: _zip1_oracle(a, b, operator.sub)),
        (lambda: a * b, lambda: _normalized1(*_mul1_oracle(a, b))),
        (lambda: a.scale(c), lambda: _normalized1(
            [c * x for x in a.coeffs], a.pole, a.trunc)),
        (lambda: a.conj(), lambda: ([x.conj() for x in a.coeffs], a.pole,
                                    a.trunc)),
        (lambda: -a, lambda: ([-x for x in a.coeffs], a.pole, a.trunc)),
        (lambda: a.shift(k), lambda: _normalized1(
            _window1(a, shifted + k, a.trunc), shifted, a.trunc + k)),
        (lambda: a.shift(-k), lambda: _normalized1(
            _window1(a, a.pole, a.trunc), a.pole + k, a.trunc - k)),
        (lambda: a.truncate(t), lambda: _normalized1(
            _window1(a, a.pole, t), a.pole, t)),
        (lambda: p.derivative(), lambda: (
            [(d + 1) * p.coefficient(d + 1) for d in range(-p.pole - 1, p.trunc)],
            p.pole + 1, p.trunc - 1)),
        (lambda: divide(a, b), lambda: _series1(_divide_oracle(a, b))),
        (lambda: b.inverse(), lambda: _series1(
            _divide_oracle(TruncSeries1.one(b.trunc + b.pole), b))),
        (lambda: f.exp(), lambda: _series1(_exp_oracle(f))),
        (lambda: u.log(), lambda: _series1(_log_oracle(u))),
        (lambda: u.pow_frac(alpha), lambda: _series1(_pow_frac_oracle(u, alpha))),
        (lambda: compose(o, f), lambda: _compose1_oracle(o, f)),
        (lambda: compose(p, g), lambda: _compose1_oracle(p, g)),
    ]


def _assert_layout1(s):
    """den > 0, gcd(den, every numerator) = 1, only nonzero cells by rising
    index inside 0..trunc + pole, and the pole normalized."""
    assert s.den > 0
    assert math.gcd(s.den, *[x for _, r, i in s.nums for x in (r, i)]) == 1
    ls = [l for l, _, _ in s.nums]
    assert ls == sorted(set(ls)) and all(0 <= l <= s.trunc + s.pole for l in ls)
    assert all(r or i for _, r, i in s.nums)
    assert s.pole == 0 or ls[:1] == [0]


@settings(max_examples=60, deadline=None)
@given(layout_series1(), layout_series1(head=wide_qi.filter(bool)),
       layout_series1(head=wide_qi.filter(bool), min_pole=1),
       layout_series1(max_pole=0, head=st.just(ONE)),
       layout_series1(max_pole=0, head=st.just(ZERO)),
       layout_series1(max_pole=0),
       st.builds(TruncSeries1.shift,
                 layout_series1(max_pole=0, head=wide_qi.filter(bool)),
                 st.integers(1, 3)),
       wide_qi, st.integers(0, 4), ALPHAS)
def test_layout1_matches_cellwise_oracle(a, b, p, u, f, o, g, c, k, alpha):
    """Every univariate operation gives the cell-wise oracle's reduced
    cells, pole and truncation, stores them in the numerator-row layout, and
    builds no QI until a cell is read."""
    ops, expect = [], []
    for op, oracle in _layout1_cases(a, b, p, u, f, o, g, c, k, alpha):
        try:
            want = oracle()
        except SeriesError as exc:
            with pytest.raises(type(exc)):
                op()
            continue
        ops.append(op)
        expect.append(want)
    with pytest.MonkeyPatch.context() as mp:
        built = _counting_qi(mp)
        results = [op() for op in ops]
        assert not built
    for got, (cells, pole, trunc) in zip(results, expect):
        _assert_layout1(got)
        assert (list(got.coeffs), got.pole, got.trunc) == (cells, pole, trunc)


# -- composition -------------------------------------------------------------


def test_compose_simple():
    outer = TruncSeries1.one(N) + TruncSeries1.var(N)
    inner = TruncSeries1.var(N).pow_int(2)
    c = compose(outer, inner)
    assert c.coefficient(0) == QI(1) and c.coefficient(2) == QI(1)


def test_compose_linear_substitution_bivariate():
    p = TruncSeries1.from_terms({0: QI(0, 2), 1: -2}, 8)
    inner = TruncSeries2.var_y(1, 1) * (
        TruncSeries2.one(1, 1) + TruncSeries2.var_x(1, 1).scale(QI(0, 1))
    )
    c = compose(p, inner)
    assert c.coefficient(0, 0) == QI(0, 2)
    assert c.coefficient(0, 1) == QI(-2)
    assert c.coefficient(1, 1) == QI(0, -2)


def test_exp_log_compose_roundtrip():
    t = TruncSeries1.var(N)
    expm1 = t.exp() - TruncSeries1.one(N)
    log1p = (TruncSeries1.one(N) + t).log()
    assert compose(log1p, expm1) == t


def _inverse_oracle(g):
    """h with g(h(w)) = w, by the fixed point h <- h - (g(h) - w)/g'(0),
    which fixes one more coefficient per sweep."""
    w = TruncSeries1.var(g.trunc)
    inv1 = ONE / g.coefficient(1)
    h = w.scale(inv1)
    for _ in range(g.trunc):
        h = h - (compose(g, h) - w).scale(inv1)
    return h


@given(nilpotent1().filter(lambda g: not g.coefficient(1).is_zero))
def test_compose_with_inverse(g):
    h = _inverse_oracle(g)
    assert compose(g, h) == TruncSeries1.var(min(g.trunc, h.trunc))
    assert compose(h, g) == TruncSeries1.var(min(g.trunc, h.trunc))


def test_compositional_inverse_examples():
    """Closed-form inverse pairs compose to the identity both ways."""
    w = TruncSeries1.var(N)
    moebius = divide(w, TruncSeries1.one(N) - w)
    back = divide(w, TruncSeries1.one(N) + w)
    assert compose(moebius, back) == w and compose(back, moebius) == w
    # the inverse of w + w^3 has the Fuss-Catalan coefficients
    # (-1)^k * C(3k, k)/(2k + 1) at w^(2k+1): w - w^3 + 3w^5 - 12w^7 + 55w^9
    g = w + w.pow_int(3)
    h = TruncSeries1.from_terms(
        {2 * k + 1: (-1) ** k * math.comb(3 * k, k) // (2 * k + 1)
         for k in range(5)}, N)
    assert compose(g, h) == w and compose(h, g) == w


@given(st.data(), laurent1(max_pole=0), with_head(ZERO))
def test_compose_claim_is_sound(data, outer, inner):
    _assert_sound(compose(outer, inner),
                  compose(_extended(data.draw, outer),
                          _extended(data.draw, inner)))


# inner series of order 1 to 3, whose inverse powers a pole part takes
orders_one_to_three = st.builds(
    TruncSeries1.shift,
    laurent1(max_pole=0, max_trunc=7, head=qi_values.filter(bool)),
    st.integers(1, 3))


@given(st.data(), laurent1(min_pole=1), orders_one_to_three)
def test_compose_with_pole_part_claim_is_sound(data, outer, inner):
    outer_big = _extended(data.draw, outer)
    inner_big = _extended(data.draw, inner)
    try:
        small = compose(outer, inner)
    except SeriesError:
        # 1/inner known to below w^0: nothing left to claim
        return
    _assert_sound(small, compose(outer_big, inner_big))


def _y_row0(s):
    """s with row 0 replaced by y: g = y + delta, delta of x-order >= 1."""
    row0 = [ONE if l == 1 else ZERO for l in range(s.ny + 1)]
    return TruncSeries2([row0] + [list(r) for r in s.rows[1:]], s.nx, s.ny)


# inner series g with g(0, y) = y, as bivariate compose needs: delta = g - y
# has x-order 1 or >= 2, y^0 terms or none, or is zero
y_inners = series2(ZERO).map(_y_row0)


def _compose_1_2_oracle(outer, inner):
    """The power-sum composition: the rectangle capped by total degree,
    nx + ny <= (outer.trunc + 1) * v - 1 with v the total order of inner,
    then sum_k outer_k * inner^k over every power up to min(trunc, nx + ny)."""
    if outer.pole > 0:
        raise SeriesError("pole-part composition with a bivariate inner series")
    if not inner.rows[0][0].is_zero:
        raise SeriesError("inner series must have zero constant term")
    fn = inner.first_nonzero()
    v_tot = (fn[0][0] + fn[0][1]) if fn else (inner.nx + inner.ny + 1)
    cap = (outer.trunc + 1) * v_tot - 1
    nx, ny = inner.nx, inner.ny
    if nx + ny > cap:
        ny = cap - nx
        if ny < 0:
            raise TruncationStarvation(
                f"outer truncation {outer.trunc} cannot cover the rectangle "
                f"({inner.nx}, {inner.ny})"
            )
    base = inner.restrict(nx, ny)
    acc = TruncSeries2.constant(outer.coefficient(0), nx, ny)
    power = TruncSeries2.one(nx, ny)
    for k in range(1, min(outer.trunc, nx + ny) + 1):
        power = power * base
        acc = acc + power.scale(outer.coefficient(k))
    return acc


_X2 = TruncSeries2.var_x(3, 4)
_Y2 = TruncSeries2.var_y(3, 4)


@given(laurent1(max_pole=0), y_inners)
@example(TruncSeries1.from_terms({0: 2, 1: QI(0, 1), 3: -1}, 5), _Y2)
@example(TruncSeries1.from_terms({1: 1, 2: QI(1, 1, 2)}, 4), _Y2 + _X2)
@example(TruncSeries1.from_terms({1: 1, 2: 3}, 5), _Y2 + _X2 * _X2)
@example(TruncSeries1.from_terms({1: 1, 2: 3}, 2), _Y2 + _X2 * _X2)
@example(TruncSeries1.var(1),
         TruncSeries2([[ZERO], [ZERO], [QI(0, 1)], [ONE]], 3, 0))
def test_compose_bivariate_matches_power_sum_oracle(outer, inner):
    """Same cells and rectangle as the power sum, or the same error, for
    every g with g(0, y) = y: delta of x-order 1 or 2, with and without y^0
    terms, delta = 0, and outer truncations below nx + ny."""
    try:
        expect = _compose_1_2_oracle(outer, inner)
    except SeriesError as exc:
        with pytest.raises(type(exc)) as err:
            compose(outer, inner)
        assert str(err.value) == str(exc)
        return
    _same_rect_cells(compose(outer, inner), expect)


@pytest.mark.parametrize("m, beta", [(2, "0"), (2, "1"), (2, "2"),
                                     (3, "0"), (3, "1"), (3, "2")])
def test_compose_bivariate_matches_oracle_on_family_rho(m, beta):
    """chi(rho) and tau(rho) as check_map forms them, at degree 40 on the
    (8, 24) rectangle of each grid family."""
    rho = family_hyper(m, beta, 8, 24).rho
    gauge = build_chi_tau(formal_solutions(m, beta, 40))
    for outer in (gauge.f, gauge.g):
        _same_rect_cells(compose(outer, rho), _compose_1_2_oracle(outer, rho))


@pytest.mark.parametrize("g", [
    _Y2.scale(2),
    _Y2 + _Y2 * _Y2,
    _X2,
    _X2 + _Y2 * _Y2,
])
def test_compose_bivariate_needs_identity_at_x0(g):
    with pytest.raises(SeriesError, match="g\\(0, y\\) = y"):
        compose(TruncSeries1.from_terms({1: 1, 2: QI(0, 1)}, 12), g)


@given(st.data(), laurent1(max_pole=0), y_inners)
def test_compose_bivariate_claim_is_sound(data, outer, inner):
    """outer(inner(x, y)) with inner(0, y) = y.

    The claim is capped by total degree, nx + ny <= outer.trunc, so a larger
    inner can claim less unless the larger outer is known to the total
    degree of its rectangle: it is padded that far here."""
    inner_big = _y_row0(_extended2(data.draw, inner))
    extra = max(1, inner_big.nx + inner_big.ny - outer.trunc)
    outer_big = TruncSeries1(
        list(outer.coeffs) + [data.draw(sparse_qi) for _ in range(extra)],
        0, outer.trunc + extra)
    try:
        small = compose(outer, inner)
    except SeriesError:
        # outer too short to cover row 0 of the rectangle: nothing claimed
        return
    _assert_sound2(small, compose(outer_big, inner_big))


def _zero_row0(s):
    return TruncSeries2([[ZERO] * (s.ny + 1)] + [list(r) for r in s.rows[1:]],
                        s.nx, s.ny)


# -- the closed-form beta = 0 model against full bivariate substitution -------


def _compose2_oracle(outer, first, second):
    """Full bivariate substitution outer(first(x, y), second(y)): Horner in
    first over the rows of outer, each row summed against the powers of the
    univariate second.  first must have x-order >= 1 and second must vanish
    at the origin."""
    vx = next((j for j, row in enumerate(first.rows)
               if any(not c.is_zero for c in row)), first.nx + 1)
    if vx < 1:
        raise SeriesError("first substituted series must have x-order >= 1")
    if second.pole != 0 or not second.coefficient(0).is_zero:
        raise SeriesError("second substituted series must vanish at the origin")
    vy = second.order() or (second.trunc + 1)
    nx = min(first.nx, (outer.nx + 1) * vx - 1)
    ny = min(first.ny, second.trunc, (outer.ny + 1) * vy - 1)
    # outer rows above nx // vx meet first^j of x-order > nx
    rows = outer.rows[: min(outer.nx, nx // vx) + 1]
    top = max((j for j, row in enumerate(rows)
               if any(not c.is_zero for c in row)), default=0)
    rows = rows[: top + 1]
    cols = max((l for row in rows for l, c in enumerate(row[: ny + 1])
                if not c.is_zero), default=0)
    spowers = [TruncSeries1.one(ny)]
    spowers.extend(_powers(second.truncate(ny), cols))
    sums = [TruncSeries2([sum((p.scale(c) for c, p in zip(row, spowers) if c),
                              TruncSeries1.zero(ny)).coeffs], 0, ny)._row(0)
            for row in rows]
    return _horner(top, lambda j: lambda i: (1, []) if i else sums[j],
                   _online(first), nx, ny).to_series()


@given(st.data(), st.integers(2, 4), st.integers(1, 3))
def test_model_rho_matches_substitution_into_explicit_model(data, m, nx):
    """model_rho at (X, Y) is the explicit model's rho with X and Y
    substituted, for X of x-order >= 1 and Y of y-order 1.  A Hypersurface
    holds eta^m in its x-row, so ny >= m."""
    ny = data.draw(st.integers(m, m + 3))
    x = _zero_row0(TruncSeries2(_rows(data.draw, nx, ny, True), nx, ny))
    second = TruncSeries1(
        [ZERO, data.draw(qi_values.filter(bool))]
        + [data.draw(sparse_qi) for _ in range(ny - 1)], 0, ny)
    got = model_rho(m, x, TruncSeries2.embed_y(second, nx))
    _same_rect_cells(got, _compose2_oracle(explicit_model(m, (nx, ny)).rho,
                                           x, second))


@pytest.mark.parametrize("m, beta", [(2, 1), (3, 2)])
def test_model_rho_matches_substitution_on_the_map(m, beta):
    """The map check's X = x*chi(rho)*conj_chi(eta) and Y = conj_tau(eta)."""
    rho = family_hyper(m, str(beta), 6, 12).rho
    gauge = build_chi_tau(formal_solutions(m, beta, 30))
    chi_bar = TruncSeries2.embed_y(gauge.f.conj().truncate(12), 6)
    x = (compose(gauge.f, rho) * chi_bar).shift_x(1)
    second = gauge.g.conj().truncate(12)
    got = model_rho(m, x, TruncSeries2.embed_y(second, 6))
    _same_rect_cells(got, _compose2_oracle(explicit_model(m, (6, 12)).rho,
                                           x, second))


@given(st.data(), st.integers(2, 4), series2(ZERO), any_series2)
def test_model_rho_claim_is_sound(data, m, x, y):
    _assert_sound2(model_rho(m, x, y),
                   model_rho(m, _extended2(data.draw, x),
                             _extended2(data.draw, y)))


def _counting_mul(monkeypatch, *classes):
    """Count the products of the given classes in one list; a bivariate
    product is a TruncSeries2 or an OnlineSeries2 product (the Taylor shift
    multiplies online)."""
    calls = []

    def counting(mul):
        def counted(self, other):
            calls.append(1)
            return mul(self, other)
        return counted

    for cls in classes:
        monkeypatch.setattr(cls, "__mul__", counting(cls.__mul__))
    return calls


def _polynomial_outer(degree, trunc):
    return TruncSeries1.from_terms(
        {k: QI(k, 1 - k, k + 1) for k in range(degree + 1)}, trunc)


def _inner2(nx, ny):
    """y + x*y/2 - i*x/3: delta of x-order 1 with y^0 terms, so no power
    below the total degree nx + ny vanishes on the rectangle."""
    x = TruncSeries2.var_x(nx, ny)
    y = TruncSeries2.var_y(nx, ny)
    return y + (x * y).scale(QI(1, 2)) + x.scale(QI(0, -1, 3))


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_compose_polynomial_outer_stops_powering(monkeypatch, degree):
    """A degree-d outer polynomial costs univariate compose at most d - 1
    products (the first power is the inner series itself), however long its
    truncation, and equals the sum over all powers."""
    outer = _polynomial_outer(degree, 12)
    inner = TruncSeries1.from_terms({1: 1, 2: QI(1, 2), 4: QI(0, -1, 3)}, 12)
    expect = _power_sum_oracle(TruncSeries1.constant(outer.coefficient(0), 12),
                               inner, outer.coefficient)
    calls = _counting_mul(monkeypatch, TruncSeries1)
    got = compose(outer, inner)
    assert len(calls) <= degree - 1
    monkeypatch.undo()
    _same_cells(got, expect)


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 39])
def test_compose_bivariate_polynomial_outer_products(monkeypatch, degree):
    """Bivariate compose is a Taylor shift in delta = g - y of x-order vx:
    a degree-d outer costs at most min(d, nx // vx) products.  At d = 39 all
    40 outer coefficients are nonzero: nx = 4 products on the (4, 6) inner,
    where summing powers up to nx + ny takes 9."""
    outer = _polynomial_outer(degree, max(12, degree))
    inner = _inner2(4, 6)
    calls = _counting_mul(monkeypatch, TruncSeries2, OnlineSeries2)
    got = compose(outer, inner)
    assert len(calls) <= min(degree, 4)  # vx = 1
    monkeypatch.undo()
    _same_rect_cells(got, _compose_1_2_oracle(outer, inner))


# -- substitution in y ----------------------------------------------------------


def _substitute_y_oracle(f, g):
    """The power-table substitution: sum_j x^j * sum_l f_{j,l} * g^l with every
    power of g built once, on the rectangle substitute_y claims."""
    fn = g.first_nonzero()
    v_tot = (fn[0][0] + fn[0][1]) if fn else (g.nx + g.ny + 1)
    nx = min(f.nx, g.nx)
    ny = min(f.ny, g.ny)
    if g.y_order() == 0:
        tot_cap = (f.ny + 1) * v_tot - 1
        if nx + ny > tot_cap:
            ny = tot_cap - nx
    gt = g.restrict(nx, ny)
    powers = [TruncSeries2.one(nx, ny)]
    for _ in range(min(f.ny, nx + ny)):
        powers.append(powers[-1] * gt)
    acc = TruncSeries2.zero(nx, ny)
    for j in range(nx + 1):
        combo = TruncSeries2.zero(nx, ny)
        for l, c in enumerate(f.rows[j][: len(powers)]):
            combo = combo + powers[l].scale(c)
        acc = acc + combo.shift_x(j)
    return acc


def _rows(draw, nx, ny, density, cell=qi_values):
    cell = st.one_of(st.just(ZERO), cell) if density else st.just(ZERO)
    return [[draw(cell) for _ in range(ny + 1)] for _ in range(nx + 1)]


@st.composite
def substitution_pairs(draw, max_nx=4, max_ny=6, cell=qi_values):
    """(f, g) with g(0, y) = y; delta = g - y has x-order 1 or 2 and has y^0
    terms or not; nonzero cells are drawn from ``cell``."""
    f_nx, g_nx = (draw(st.sampled_from(range(1, max_nx + 1))) for _ in "fg")
    f_ny, g_ny = (draw(st.sampled_from(range(1, max_ny + 1))) for _ in "fg")
    x_order = draw(st.integers(1, 2))
    y0_terms = draw(st.booleans())
    f = TruncSeries2(_rows(draw, f_nx, f_ny, True, cell), f_nx, f_ny)
    rows = _rows(draw, g_nx, g_ny, True, cell)
    rows[0] = [ONE if l == 1 else ZERO for l in range(g_ny + 1)]
    rows[1: x_order] = [[ZERO] * (g_ny + 1) for _ in rows[1: x_order]]
    if not y0_terms:
        for row in rows[1:]:
            row[0] = ZERO
    elif x_order <= g_nx and all(row[0].is_zero for row in rows[1:]):
        rows[x_order][0] = ONE
    return f, TruncSeries2(rows, g_nx, g_ny)


@given(substitution_pairs())
def test_substitute_y_matches_power_table_oracle(pair):
    f, g = pair
    if g.y_order() == 0 and min(f.nx, g.nx) > f.ny:
        with pytest.raises(SeriesError):
            f.substitute_y(g)
        return
    got = f.substitute_y(g)
    expect = _substitute_y_oracle(f, g)
    assert got.rect == expect.rect
    assert got.rows == expect.rows


@settings(max_examples=60, deadline=None)
@given(substitution_pairs(cell=wide_qi))
def test_substitute_y_layout_matches_power_table_oracle(pair):
    """substitute_y by an eager and an online g, on denominators up to 50,
    gives the cells of _substitute_y_oracle in the numerator-row layout."""
    f, g = pair
    if g.y_order() == 0 and min(f.nx, g.nx) > f.ny:
        return
    want = _substitute_y_oracle(f, g)
    for got in (f.substitute_y(g), f.substitute_y(_online(g)).to_series()):
        _assert_layout(got)
        assert got.restrict(*want.rect).rows == want.rows


def test_substitute_y_matches_oracle_on_family_rho():
    rho = family_hyper(2, "1", 6, 12).rho
    got = rho.substitute_y(rho.conj())
    assert got.rows == _substitute_y_oracle(rho, rho.conj()).rows


def test_substitute_y_claimed_rectangles():
    """Full common rectangle for y-order >= 1; ny = min(g.ny, f.ny - nx) when
    delta has y^0 terms (the raw-series realty case y + x on (4, 6))."""
    x = TruncSeries2.var_x(4, 6)
    y = TruncSeries2.var_y(4, 6)
    g = y + x * y
    assert (y * y).substitute_y(g).rect == (4, 6)
    broken = y + x
    res = broken.substitute_y(broken.conj())
    assert res.rect == (4, 2)
    assert res.rows == _substitute_y_oracle(broken, broken.conj()).rows
    assert res.coefficient(1, 0) == QI(2)


@settings(max_examples=60, deadline=None)
@given(substitution_pairs(), series2(ZERO), series2(ZERO),
       st.integers(4, 12).flatmap(series1))
def test_online_operations_match_eager(pair, a, b, outer):
    """An OnlineSeries2 gives the cells and rectangles of the eager
    operations: products, sums, the row-local operations, exp, and
    substitute_y and compose by an online g; when delta has y^0 terms the
    online substitute_y leaves out the total-degree cap, so its cells are
    compared on the eager rectangle."""
    oa, ob = _online(a), _online(b)
    cases = [(oa * ob, a * b), (a * ob, a * b), (oa * b, a * b),
             (oa + b, a + b), (a - ob, a - b),
             (oa.shift_y(2).scale(QI(1, -1, 2)), a.shift_y(2).scale(QI(1, -1, 2))),
             (oa.shift_x(1).conj(), a.shift_x(1).conj()), (oa.exp(), a.exp()),
             (oa.pow_int(2), a.pow_int(2)), (-oa, -a)]
    if a.nx:
        cases.append((oa.derivative_x(), a.derivative_x()))
    for got, want in cases:
        _same_rect_cells(got.to_series(), want)
    f, g = pair
    try:
        want = f.substitute_y(g)
    except TruncationStarvation:
        return
    got = f.substitute_y(_online(g)).to_series()
    assert got.restrict(*want.rect).rows == want.rows
    if g.y_order():
        assert got.rect == want.rect
    try:
        want = compose(outer, g)
    except TruncationStarvation:
        return
    _same_rect_cells(compose(outer, _online(g)).to_series(), want)


@settings(max_examples=60, deadline=None)
@given(substitution_pairs(cell=wide_qi), layout_series(), layout_series())
def test_eager_and_online_results_store_the_same_rows(pair, a, b):
    """A product, a sum, exp and substitute_y, computed eagerly and computed
    on online inputs then gathered by to_series(), store the same reduced
    numerator rows; an online substitute_y by a g with y^0 terms has no
    total-degree cap, so its rows are compared on the eager rectangle."""
    f, g = pair
    k0 = TruncSeries2.constant(a.coefficient(0, 0), *a.rect)
    oa, ob = _online(a), _online(b)
    cases = [(lambda: a * b, lambda: oa * ob), (lambda: a * b, lambda: a * ob),
             (lambda: a + b, lambda: oa + ob),
             (lambda: (a - k0).exp(), lambda: (oa - k0).exp()),
             (lambda: f.substitute_y(g), lambda: f.substitute_y(_online(g)))]
    for eager, online in cases:
        try:
            want = eager()
        except TruncationStarvation:
            continue
        got = online().to_series()
        _assert_layout(got)
        assert got.restrict(*want.rect)._rows == want._rows


def test_eager_times_online_is_the_online_product():
    """A product with an online factor is online, whichever side that factor
    is on, and gives the eager product's cells and rectangle."""
    x = TruncSeries2.var_x(2, 2)
    a = x + TruncSeries2.var_y(3, 1).scale(QI(1, 2))
    for got in (x * _online(a), _online(a) * x, x * _online(x)):
        assert isinstance(got, OnlineSeries2)
    _same_rect_cells((x * _online(a)).to_series(), x * a)
    _same_rect_cells((_online(a) * x).to_series(), a * x)
    _same_rect_cells((x * _online(x)).to_series(), x * x)


def test_online_product_skips_the_partner_of_a_zero_row():
    """u = x: row 2 of x*u and of u*x is 1 and reads rows <= 1 of u; row 2
    of u itself is read only by a factor whose row 0 is nonzero."""
    x = TruncSeries2.var_x(3, 2)
    reads = []
    u = OnlineSeries2(3, 2, lambda k: reads.append(k) or x._row(k))
    for p in (_online(x) * u, u * x):
        assert p[2] == [ONE, ZERO, ZERO] and max(reads) == 1
    assert (u * TruncSeries2.one(3, 2))[2] == list(x[2]) and max(reads) == 2


def test_online_row_read_while_computed_raises():
    u = OnlineSeries2(2, 1, lambda k: u._row(k))
    with pytest.raises(SeriesError, match="read while it is being computed"):
        u[0]


def test_online_row_that_raised_raises_again():
    """A row whose computation raised leaves the series readable: the next
    read retries it and raises the same error, not a false re-entry."""
    x = TruncSeries2.var_x(2, 2) + TruncSeries2.var_y(2, 2)
    u = OnlineSeries2(2, 2, lambda k: x._row(k))
    p = u.shift_y(-1) * u.shift_y(-1)
    for _ in range(2):
        with pytest.raises(SeriesError, match=r"not divisible by y\^1"):
            p[1]


def test_online_rows_are_computed_once(monkeypatch):
    """A row-local online series keeps its rows: reading a row again sums
    nothing."""
    x = TruncSeries2.var_x(2, 2) + TruncSeries2.var_y(2, 2)
    u = OnlineSeries2(2, 2, lambda k: x._row(k))
    calls = []
    monkeypatch.setattr("segreode.series._sum",
                        lambda *a: calls.append(1) or _sum(*a))
    s = u + u
    first = s[1]
    summed = len(calls)
    assert s[1] == first and summed and len(calls) == summed


@pytest.mark.parametrize("g", [
    TruncSeries2.var_y(3, 4).scale(2),
    TruncSeries2.var_y(3, 4) + TruncSeries2.var_y(3, 4).pow_int(2),
    TruncSeries2.var_y(3, 4) + TruncSeries2.one(3, 4),
    TruncSeries2.var_x(3, 4),
])
def test_substitute_y_needs_identity_at_x0(g):
    f = TruncSeries2.var_y(3, 4) + TruncSeries2.var_x(3, 4)
    with pytest.raises(SeriesError):
        f.substitute_y(g)


@st.composite
def extended_substitution(draw):
    """(f, g) and random extensions of both beyond their truncation; f's
    extension is long enough in y that the larger result covers the smaller
    one's rectangle."""
    f, g = draw(substitution_pairs(max_nx=3, max_ny=4))
    a = draw(st.integers(0, 2))
    b = draw(st.integers(0, 2))
    f_big = _rows(draw, f.nx + a, f.ny + b + g.nx + a, True)
    for j, row in enumerate(f.rows):
        f_big[j][: f.ny + 1] = row
    g_big = _rows(draw, g.nx + a, g.ny + b, True)
    for j, row in enumerate(g.rows):
        g_big[j][: g.ny + 1] = row
    g_big[0] = [ONE if l == 1 else ZERO for l in range(g.ny + b + 1)]
    return f, g, TruncSeries2(f_big), TruncSeries2(g_big)


@given(extended_substitution())
def test_substitute_y_claim_is_sound(case):
    """Cells beyond the truncation of f and g never change the claimed
    rectangle of the smaller substitution."""
    f, g, f_big, g_big = case
    if g.y_order() == 0 and min(f.nx, g.nx) > f.ny:
        return
    small = f.substitute_y(g)
    big = f_big.substitute_y(g_big)
    assert small.nx <= big.nx and small.ny <= big.ny
    assert small == big


# -- truncation discipline -----------------------------------------------------


def test_coefficients_beyond_truncation_are_unknown():
    s = TruncSeries1.one(4)
    with pytest.raises(SeriesError):
        s.coefficient(5)


def test_equality_uses_common_truncation():
    a = TruncSeries1.one(8)
    b = TruncSeries1.one(4)
    assert a == b
    c = TruncSeries1.from_terms({0: 1, 4: 5}, 4)
    assert a != c


def test_truncation_monotonicity():
    w_small = TruncSeries1.var(6)
    w_big = TruncSeries1.var(14)
    inv_small = divide(TruncSeries1.one(6), TruncSeries1.one(6) - w_small)
    inv_big = divide(TruncSeries1.one(14), TruncSeries1.one(14) - w_big)
    assert inv_small == inv_big  # compares on the common truncation


def test_derivative_drops_truncation():
    s = TruncSeries1.var(6).exp()
    d = s.derivative()
    assert d.trunc == 5
    assert d == s.truncate(5)


def test_pole_cap_enforced():
    from segreode.series import POLE_CAP, PoleOverflow
    with pytest.raises(PoleOverflow):
        TruncSeries1.monomial(1, -(POLE_CAP + 1), 0)


# -- serialization --------------------------------------------------------------


def test_series1_json_roundtrip():
    s = TruncSeries1.from_terms({-2: QI(0, 2), 0: QI(1, 0, 3), 3: -2}, 5)
    blob = json.dumps(s.to_json())
    back = TruncSeries1.from_json(json.loads(blob))
    assert back == s and back.pole == s.pole and back.trunc == s.trunc


def test_series2_json_roundtrip():
    s = TruncSeries2.var_y(2, 3) + TruncSeries2.var_x(2, 3).scale(QI(0, 1, 2))
    back = TruncSeries2.from_json(s.to_json())
    assert back == s and back.rect == s.rect


def test_json_rejects_mixed_backends():
    blob = {"pole": 0, "trunc": 1, "coeffs": ["1", [0.0, 1.0]]}
    with pytest.raises(ValueError):
        TruncSeries1.from_json(blob)
