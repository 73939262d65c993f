import pytest
from conftest import ABEL_MEMBERS, family_hyper

from segreode import (
    QI,
    SeriesError,
    TruncSeries1,
    VectorFieldRep,
    build_chi_tau,
    build_vector_field,
    divide,
    explicit_model,
    formal_solutions,
    straightening_check,
    tangency_check,
)

RECT = (6, 12)
N = 30


def _field(m, beta):
    return build_vector_field(formal_solutions(m, beta, N))


def _field_through_gauge(pair):
    """The field w^m*dw pulled back through (z, w) -> (chi(w)*z, tau(w)) by
    its quotients, a = -chi'*tau^m/(chi*tau') and b = tau^m/tau'."""
    gauge = build_chi_tau(pair)
    chi, tau = gauge.f, gauge.g
    tau_m = tau.pow_int(pair.m)
    tau_p = tau.derivative()
    return VectorFieldRep(-divide(chi.derivative() * tau_m, chi * tau_p),
                          divide(tau_m, tau_p))


def _field_by_products(pair):
    """The field as the two products a = w^m*f'*u and b = w^m*f*u of the
    formal solutions, truncated where the quotients through (chi, tau)
    reach."""
    m, f, u = pair.m, pair.f, pair.u
    n = f.trunc
    return VectorFieldRep((f.derivative() * u).shift(m).truncate(n - 1),
                          (f * u).shift(m).truncate(n + m - 1))


@pytest.mark.parametrize("n", [40, 160])
@pytest.mark.parametrize("m,beta", ABEL_MEMBERS)
def test_field_equals_the_products_of_the_formal_solutions(m, beta, n):
    """The field read from h = f*u is the two products w^m*f'*u and
    w^m*f*u, coefficient for coefficient and truncation for truncation."""
    pair = formal_solutions(m, beta, n)
    field = build_vector_field(pair)
    oracle = _field_by_products(pair)
    assert (field.a.trunc, field.b.trunc) == (oracle.a.trunc, oracle.b.trunc) \
        == (n - 1, n + m - 1)
    assert field.a == oracle.a and field.b == oracle.b


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("m,beta", ABEL_MEMBERS)
def test_field_equals_the_pullback_through_the_gauge(m, beta, n):
    """The field read from h is the quotients through (chi, tau),
    coefficient for coefficient and truncation for truncation."""
    pair = formal_solutions(m, beta, n)
    field = build_vector_field(pair)
    oracle = _field_through_gauge(pair)
    assert (field.a.trunc, field.b.trunc) == (oracle.a.trunc, oracle.b.trunc) \
        == (n - 1, n + m - 1)
    assert field.a == oracle.a and field.b == oracle.b


def test_field_beta0_closed_form():
    field = _field(2, 0)
    assert field.a.is_zero
    assert field.b == TruncSeries1.monomial(1, 2, field.b.trunc)


@pytest.mark.parametrize("m,beta", [(2, 1), (2, 2), (3, 1)])
def test_field_dw_component_vanishes_to_order_m(m, beta):
    field = _field(m, beta)
    assert field.b.order() == m
    assert field.b.coefficient(m) == QI(1)


def test_field_zdz_leading_coefficient():
    field = _field(2, 1)
    assert field.a.coefficient(0).is_zero and field.a.coefficient(1).is_zero
    assert field.a.coefficient(2) == QI(0, 1, 2)


@pytest.mark.parametrize("beta_str", ["0", "1"])
def test_tangency_on_own_hypersurface(beta_str):
    field = _field(2, int(beta_str))
    h = family_hyper(2, beta_str, *RECT)
    res = tangency_check(field, h)
    assert res.is_zero


def test_tangency_m3():
    field = _field(3, 1)
    res = tangency_check(field, family_hyper(3, "1", *RECT))
    assert res.is_zero


def test_tangency_mismatch_has_witness():
    field = _field(2, 1)
    res = tangency_check(field, family_hyper(2, "0", *RECT))
    assert not res.is_zero
    assert res.first_nonzero() is not None


def test_dw_field_not_tangent():
    field = VectorFieldRep(TruncSeries1.zero(N), TruncSeries1.one(N))
    res = tangency_check(field, family_hyper(2, "0", *RECT))
    (j, k), _ = res.first_nonzero()
    assert j <= 1


def test_rotation_field_always_tangent():
    rot = VectorFieldRep(TruncSeries1.constant(QI(0, 1), N),
                         TruncSeries1.zero(N))
    for spec in [(2, "0"), (2, "1"), (3, "1")]:
        assert tangency_check(rot, family_hyper(spec[0], spec[1], *RECT)).is_zero


def test_explicit_model_values():
    h = explicit_model(2, RECT)
    ny = h.rho.ny
    assert h.rho.row(0) == TruncSeries1.var(ny)
    assert h.rho.row(1) == TruncSeries1.monomial(QI(0, 1), 2, ny)
    assert h.rho.row(2) == TruncSeries1.from_terms({2: QI(0, 1), 3: -1}, ny)


@pytest.mark.parametrize("rect", [(6, 12), (8, 24)], ids=["6x12", "8x24"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_explicit_model_matches_solved_family(m, rect):
    """The link the map check relies on: the closed-form model is the
    solved beta = 0 hypersurface, cell for cell and rectangle for
    rectangle."""
    model = explicit_model(m, rect).rho
    solved = family_hyper(m, "0", *rect).rho
    assert model.rect == solved.rect == rect
    assert model.rows == solved.rows


def test_model_field_tangent():
    field = VectorFieldRep(TruncSeries1.zero(N),
                           TruncSeries1.monomial(1, 2, N))
    assert tangency_check(field, explicit_model(2, RECT)).is_zero


def test_model_rejects_m1():
    with pytest.raises(ValueError):
        explicit_model(1, RECT)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_straightening_identity(m):
    chk = straightening_check(m)
    assert chk.ok
    assert chk.computed_p == chk.expected_p


def test_straightening_negative_control():
    # dropping the 2i from the log-derivative breaks the identity
    bad_rate = TruncSeries1.monomial(1, -2, 16)
    chk = straightening_check(2, rate=bad_rate)
    assert not chk.ok
    assert chk.witness == {"degree": 0, "value": "1-2i"}


def test_field_component_validation():
    with pytest.raises(SeriesError):
        VectorFieldRep(TruncSeries1.monomial(1, -1, 4), TruncSeries1.zero(4))
