from fractions import Fraction

import pytest
from conftest import family_hyper, family_profile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segreode import (
    QI,
    RealData,
    RealityError,
    SegreFamily,
    SeriesError,
    TruncationStarvation,
    TruncSeries1,
    TruncSeries2,
    beta_family,
    build_rho,
    check_real_structure,
    compose,
    conjugate_ode,
    conjugated_family,
    dual_family,
    explicit_model,
    extract_pq,
    real_normal_form,
    real_structure_test,
    realty_identity_check,
    solve_psi,
)
from segreode.segre import _profile_rhs, _reconstruct, _settle

RECT = (6, 12)
GRID = [(2, "0"), (2, "1"), (2, "2"), (3, "0"), (3, "1")]


def _ode(m, beta_str):
    return beta_family(m, Fraction(beta_str), RECT[0] + RECT[1] + 2 * m + 2)


# -- the Cauchy solve ----------------------------------------------------------


def test_profile_values_beta0():
    fam = family_profile(2, "0", *RECT)
    psi2, psi3 = fam.psi.row(2), fam.psi.row(3)
    # frozen from P = 2i - 2w, Q = 0 through the slope relations
    assert psi2 == TruncSeries1.from_terms({0: 1, 1: QI(0, 1, 2)}, psi2.trunc)
    assert psi3 == TruncSeries1.from_terms(
        {0: QI(4, 0, 3), 1: QI(0, 1), 2: QI(-1, 0, 3)}, psi3.trunc)


def test_profile_oracle_relations():
    # independent oracle: psi_2 = (P + w^{m-1})/(2i), and psi_3 from the
    # second relation solved directly
    for m, beta_str in GRID:
        e = _ode(m, beta_str)
        fam = family_profile(m, beta_str, *RECT)
        ny = fam.psi.ny
        w_pow = TruncSeries1.monomial(1, m - 1, e.p.trunc)
        psi2_oracle = (e.p + w_pow).scale(QI(0, -1, 2))
        assert fam.psi.row(2) == psi2_oracle
        psi2 = fam.psi.row(2)
        six_psi3 = (e.q + (psi2 * psi2).scale(8)
                    - psi2.shift(m - 1).scale(QI(0, 2 * (m - 1)))
                    + psi2.derivative().shift(m).scale(QI(0, 2)))
        assert fam.psi.row(3) == six_psi3.scale(Fraction(1, 6))


def test_unit_slope_every_order():
    for m, beta_str in GRID:
        fam = family_profile(m, beta_str, *RECT)
        assert fam.psi.row(1) == TruncSeries1.one(fam.psi.ny)
        assert fam.psi.row(0).is_zero


def profile_residual(e, fam):
    """y'' minus the profile right-hand side; zero up to truncation iff the
    family is associated with the ODE."""
    ypp = fam.psi.derivative_x().derivative_x()
    return ypp - _profile_rhs(e, fam.sign, fam.psi)


def inverse_ode_residual(e, fam):
    """Substitute the family into the inverse ODE, cleared of denominators:

    rho_xx * rho^{2m} + P(rho)*rho^m*(rho_x)^2 + Q(rho)*(rho_x)^3*x == 0,

    a verification path independent of the profile equation.
    """
    rho = build_rho(fam).rho
    rx = rho.derivative_x()
    rxx = rx.derivative_x()
    m = e.m
    return (rxx * rho.pow_int(2 * m)
            + compose(e.p, rho) * rho.pow_int(m) * rx * rx
            + (compose(e.q, rho) * rx * rx * rx).shift_x(1))


def test_profile_residual_zero():
    for m, beta_str in GRID[:3]:
        e = _ode(m, beta_str)
        fam = family_profile(m, beta_str, *RECT)
        assert profile_residual(e, fam).is_zero


def test_inverse_ode_residual_zero():
    for m, beta_str in [(2, "0"), (2, "1"), (3, "1")]:
        e = _ode(m, beta_str)
        fam = family_profile(m, beta_str, *RECT)
        assert inverse_ode_residual(e, fam).is_zero


def test_solve_needs_generous_ode_truncation():
    e = beta_family(2, 1, 10)
    with pytest.raises(TruncationStarvation):
        solve_psi(e, +1, (8, 24))


# -- extraction round trip -------------------------------------------------------


@pytest.mark.parametrize("m,beta_str", GRID)
def test_roundtrip_extract(m, beta_str):
    e = _ode(m, beta_str)
    p, q = extract_pq(family_profile(m, beta_str, *RECT))
    assert p == e.p
    assert q == e.q


def test_extract_negative_sign_family():
    e = _ode(2, "1")
    fam_neg = solve_psi(e, -1, RECT)
    p, q = extract_pq(fam_neg)
    assert p == e.p
    assert q == e.q


def test_extract_from_conjugated_family_is_conjugated():
    e = _ode(2, "1")
    fam = family_profile(2, "1", *RECT)
    p_c, q_c = extract_pq(conjugated_family(fam))
    assert p_c == e.p.conj()
    assert q_c == e.q.conj()


def test_solve_psi_truncation_monotonicity():
    e = _ode(2, "1")
    small = solve_psi(e, +1, (4, 8))
    large = solve_psi(e, +1, (6, 12))
    assert small.psi == large.psi  # compares on the common rectangle


def test_extract_flat_profile():
    # psi = x with m=1, positive sign: P = -1, Q = 0
    psi = TruncSeries2.var_x(4, 6)
    fam = SegreFamily(1, +1, psi)
    p, q = extract_pq(fam)
    assert p == TruncSeries1.constant(-1, p.trunc)
    assert q.is_zero


def test_extract_needs_x_degree_3():
    psi = TruncSeries2.var_x(2, 6)
    with pytest.raises(TruncationStarvation):
        extract_pq(SegreFamily(1, +1, psi))


# -- defining series ---------------------------------------------------------------


def test_rho_shape_invariants():
    for m, beta_str in GRID:
        h = family_hyper(m, beta_str, *RECT)
        ny = h.rho.ny
        assert h.rho.row(0) == TruncSeries1.var(ny)
        assert h.rho.row(1) == TruncSeries1.monomial(QI(0, 1), m, ny)


def test_rho_second_row_beta0():
    h = family_hyper(2, "0", *RECT)
    row2 = h.rho.row(2)
    assert row2 == TruncSeries1.from_terms({2: QI(0, 1), 3: -1}, row2.trunc)


# -- dual and conjugated families ----------------------------------------------------


def test_dual_profile_shift():
    for m, beta_str in GRID:
        fam = family_profile(m, beta_str, *RECT)
        dual = dual_family(fam)
        assert dual.sign == -fam.sign
        shift = TruncSeries1.monomial(QI(0, m - 1), m - 1, fam.psi.ny)
        expected = fam.psi.row(2) - shift
        assert dual.psi.row(2) == expected


def test_dual_shift_law_without_real_structure():
    # the profile shift under duality holds for any admissible ODE, also one
    # with no real structure (where dual and conjugated families differ)
    work = RECT[0] + RECT[1] + 6
    p = TruncSeries1.from_terms({0: QI(1, 1), 1: QI(2, -3)}, work)
    q = TruncSeries1.from_terms({0: QI(0, 1), 2: QI(5)}, work)
    from segreode import AdmissibleOde
    e = AdmissibleOde(2, p, q)
    fam = solve_psi(e, +1, RECT)
    dual = dual_family(fam)
    shift = TruncSeries1.monomial(QI(0, 1), 1, fam.psi.ny)
    assert dual.psi.row(2) == fam.psi.row(2) - shift
    assert not real_structure_test(fam).ok
    # and the dual family solves some admissible ODE: extraction round-trips
    # through a second dual
    assert dual_family(dual).psi == fam.psi


def test_dual_involution():
    fam = family_profile(2, "1", *RECT)
    again = dual_family(dual_family(fam))
    assert again.sign == fam.sign
    assert again.psi == fam.psi


def test_dual_of_trivial_profile():
    # psi = x, m = 1: the dual profile is x again (closed form exp(-ix))
    fam = SegreFamily(1, +1, TruncSeries2.var_x(4, 8))
    dual = dual_family(fam)
    assert dual.sign == -1
    assert dual.psi == fam.psi


def test_dual_ode_equals_conjugated_ode_for_real_structure():
    # extracting an ODE from the dual family must reproduce the conjugated
    # ODE when (and only when) the input has a real structure; the residual
    # check below also certifies that the dual profile is associated with an
    # admissible ODE at all stored orders, not just through its 3-jet
    from segreode import AdmissibleOde
    e = _ode(2, "1")
    dual = dual_family(family_profile(2, "1", *RECT))
    p_star, q_star = extract_pq(dual)
    assert p_star == e.p.conj()
    assert q_star == e.q.conj()
    e_star = AdmissibleOde(2, p_star, q_star)
    assert inverse_ode_residual(e_star, dual).is_zero


def test_conjugated_family_involution():
    fam = family_profile(2, "1", *RECT)
    conj = conjugated_family(fam)
    assert conj.sign == -fam.sign
    assert conj.psi.row(2) == fam.psi.row(2).conj()
    assert conjugated_family(conj).psi == fam.psi


def test_conjugated_ode_matches_conjugated_family():
    # the conjugated family of the positive family solves the conjugated ODE
    # with the negative sign
    e = _ode(2, "1")
    fam = family_profile(2, "1", *RECT)
    conj = conjugated_family(fam)
    direct = solve_psi(conjugate_ode(e), -1, RECT)
    assert direct.psi == conj.psi


# -- reality ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,beta_str", GRID)
def test_reality_three_paths_agree(m, beta_str):
    fam = family_profile(m, beta_str, *RECT)
    assert real_structure_test(fam).ok
    assert realty_identity_check(family_hyper(m, beta_str, *RECT)).is_zero
    p, q = extract_pq(fam)
    from segreode import AdmissibleOde
    assert check_real_structure(AdmissibleOde(m, p, q)).ok


small_real = st.builds(QI, st.integers(-3, 3), st.just(0), st.integers(1, 3))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2),
       st.lists(small_real, min_size=3, max_size=3),
       st.lists(small_real, min_size=3, max_size=3))
def test_random_real_data_roundtrip_and_reality(m, a_coeffs, b_coeffs):
    from segreode import ode_from_real_data
    work = 4 + 6 + 2 * m + 2
    a = TruncSeries1(a_coeffs + [QI(0)] * (work - 2), 0, work)
    b = TruncSeries1(b_coeffs + [QI(0)] * (work - 2), 0, work)
    e = ode_from_real_data(RealData(m, a, b))
    fam = solve_psi(e, +1, (4, 6))
    p, q = extract_pq(fam)
    assert p == e.p and q == e.q
    assert real_structure_test(fam).ok


def test_reality_fails_with_witness():
    # hand-built profile with psi_2 = i is not real for m = 1
    rows = {0: TruncSeries1.zero(10), 1: TruncSeries1.one(10),
            2: TruncSeries1.constant(QI(0, 1), 10)}
    fam = SegreFamily(1, +1, TruncSeries2.from_rows(rows, 3, 10))
    result = real_structure_test(fam)
    assert not result.ok
    assert result.witness["cell"][0] == 2


def test_conjugated_then_dual_of_real_family():
    fam = family_profile(2, "1", *RECT)
    other = conjugated_family(dual_family(fam))
    assert other.sign == fam.sign
    # for a real structure dual == conjugated, so this composite is psi itself
    assert other.psi == fam.psi


def test_realty_residual_raw_series():
    flat = TruncSeries2.var_y(4, 6)
    assert realty_identity_check(flat).is_zero
    broken = TruncSeries2.var_y(4, 6) + TruncSeries2.var_x(4, 6)
    res = realty_identity_check(broken)
    (j, k), value = res.first_nonzero()
    assert (j, k) == (1, 0) and value == QI(-2)


# -- real normal form ---------------------------------------------------------------------


def test_normal_form_family():
    for m, beta_str in [(2, "0"), (2, "1"), (3, "1")]:
        h = family_hyper(m, beta_str, *RECT)
        nf = real_normal_form(h)
        assert nf.sign == +1
        assert nf.v.scale(2).row(1) == TruncSeries1.monomial(1, m, nf.v.ny)
        assert sorted(nf.hks) == list(range(2, RECT[0] + 1))
        for hk in nf.hks.values():
            assert all(c.is_real for _, c in hk.items())


def test_normal_form_negative_family():
    e = _ode(2, "1")
    h = build_rho(solve_psi(e, -1, RECT))
    nf = real_normal_form(h)
    assert nf.sign == -1
    assert nf.v.scale(2).row(1) == TruncSeries1.monomial(-1, 2, nf.v.ny)


def test_normal_form_levi_flat():
    nf = real_normal_form(TruncSeries2.var_y(4, 6))
    assert nf.sign == 0 and not nf.hks and nf.v.is_zero


def test_normal_form_rejects_nonreal():
    rows = {0: TruncSeries1.zero(8), 1: TruncSeries1.one(8)}
    psi = TruncSeries2.from_rows(rows, 4, 8)
    fam = SegreFamily(1, +1, psi)
    rho = build_rho(fam).rho
    # a real x*eta^2 perturbation breaks the i-structure of the series
    cells = [list(r) for r in rho.rows]
    cells[1][2] = cells[1][2] + QI(1, 0, 3)
    broken = TruncSeries2(cells, rho.nx, rho.ny)
    assert not realty_identity_check(broken).is_zero
    with pytest.raises(RealityError):
        real_normal_form(broken)


# -- the x-growing fixed points against the full-rectangle sweeps ----------------

GRID6 = [(2, "0"), (2, "1"), (2, "2"), (3, "0"), (3, "1"), (3, "2")]
RECT8 = (8, 24)


def _dual_oracle(fam):
    """Dual profile by full-rectangle sweeps until two iterates agree."""
    nx, ny = fam.psi.rect
    neg_si = QI(0, -fam.sign)
    w_cur = TruncSeries2.var_y(nx, ny)
    for _ in range(nx + 2):
        psi_at = fam.psi.substitute_y(w_cur)
        exponent = (psi_at * w_cur.pow_int(fam.m - 1)).scale(neg_si)
        w_new = exponent.exp().shift_y(1)
        if w_new == w_cur:
            break
        w_cur = w_new
    else:
        raise SeriesError("dual fixed point failed to stabilize")
    log_part = w_cur.shift_y(-1).log()
    return log_part.shift_y(-(fam.m - 1)).scale(QI(0, fam.sign))


def _normal_form_v_oracle(rho):
    """v with u + i*v = rho(x, u - i*v) by full-rectangle sweeps."""
    nx, ny = rho.rect
    u_var = TruncSeries2.var_y(nx, ny)
    v = TruncSeries2.zero(nx, ny)
    for _ in range(nx + 2):
        w_bar = u_var - v.scale(QI(0, 1))
        v_new = (rho.substitute_y(w_bar) - w_bar).scale(QI(0, -1, 2))
        if v_new == v:
            break
        v = v_new
    return v


def _reconstruction_oracle(rho, v):
    """w = y + 2i*v(x, (w + y)/2) by full-rectangle sweeps."""
    nx, ny = rho.rect
    y = TruncSeries2.var_y(nx, ny)
    w_cur = y
    for _ in range(nx + 2):
        mid = (w_cur + y).scale(Fraction(1, 2))
        w_new = y + v.substitute_y(mid).scale(QI(0, 2))
        if w_new == w_cur:
            break
        w_cur = w_new
    return w_cur


def _same_rect_cells(got, expect):
    assert got.rect == expect.rect
    assert got.rows == expect.rows


def _check_normal_form_against_oracles(rho):
    nf = real_normal_form(rho)
    _same_rect_cells(nf.v, _normal_form_v_oracle(rho))
    rebuilt = _reconstruct(nf.v)
    _same_rect_cells(rebuilt, _reconstruction_oracle(rho, nf.v))
    assert rebuilt == rho


@pytest.mark.parametrize("m,beta_str,sign",
                         [(m, b, +1) for m, b in GRID6] + [(2, "1", -1)])
def test_grown_fixed_points_match_full_rectangle_sweeps(m, beta_str, sign):
    if sign > 0:
        fam = family_profile(m, beta_str, *RECT8)
    else:
        work = RECT8[0] + RECT8[1] + 2 * m + 2
        fam = solve_psi(beta_family(m, Fraction(beta_str), work), sign, RECT8)
    _same_rect_cells(dual_family(fam).psi, _dual_oracle(fam))
    _check_normal_form_against_oracles(build_rho(fam).rho)


@pytest.mark.parametrize("m", [2, 3])
def test_grown_normal_form_matches_sweeps_on_explicit_model(m):
    _check_normal_form_against_oracles(explicit_model(m, RECT8).rho)


# -- the online row engine against the per-row rebuilding loops ----------------


def _grow_x_oracle(step, start):
    """The x-growing fixed point that rebuilt every row below the one it
    settles: sweep k runs ``step`` on the rectangle (k, ny), seeded with the
    rows settled by sweep k-1 plus row k of ``start``."""
    nx, ny = start.rect
    rows = ()
    for k in range(nx + 1):
        cur = step(TruncSeries2(rows + (start.rows[k][: ny + 1],), k, ny))
        rows, ny = cur.rows, cur.ny
    if step(cur) != cur:
        raise SeriesError("fixed point failed to stabilize")
    return cur


def _solve_psi_oracle(e, sign, rect):
    """The Cauchy solve that evaluated the right-hand side on psi_0..psi_{k-1}
    afresh for every k."""
    nx, ny = rect
    rows = {0: TruncSeries1.zero(ny), 1: TruncSeries1.one(ny)}
    for k in range(2, nx + 1):
        y_cur = TruncSeries2.from_rows(
            {j: s for j, s in rows.items() if j <= k - 1}, k - 1, ny)
        rhs = _profile_rhs(e, sign, y_cur)
        rows[k] = rhs.row(k - 2).scale(Fraction(1, k * (k - 1)))
    return TruncSeries2.from_rows(rows, nx, ny)


def _grown_solvers(fam, rho):
    """Dual profile, normal-form v and the rho rebuilt from v, each by the
    old fixed-point steps run through :func:`_grow_x_oracle`."""
    nx, ny = fam.psi.rect
    neg_si = QI(0, -fam.sign)

    def dual_step(w):
        exponent = (fam.psi.substitute_y(w) * w.pow_int(fam.m - 1)).scale(neg_si)
        return exponent.exp().shift_y(1)

    def v_step(v):
        w_bar = TruncSeries2.var_y(*v.rect) - v.scale(QI(0, 1))
        return (rho.substitute_y(w_bar) - w_bar).scale(QI(0, -1, 2))

    w = _grow_x_oracle(dual_step, TruncSeries2.var_y(nx, ny))
    dual = w.shift_y(-1).log().shift_y(-(fam.m - 1)).scale(QI(0, fam.sign))
    v = _grow_x_oracle(v_step, TruncSeries2.zero(*rho.rect))

    def rho_step(w):
        y = TruncSeries2.var_y(*w.rect)
        return y + v.substitute_y((w + y).scale(Fraction(1, 2))).scale(QI(0, 2))

    return dual, v, _grow_x_oracle(rho_step, TruncSeries2.var_y(*v.rect))


def _check_online_solvers(e, sign, rect):
    fam = solve_psi(e, sign, rect)
    _same_rect_cells(fam.psi, _solve_psi_oracle(e, sign, rect))
    rho = build_rho(fam).rho
    dual, v, rebuilt = _grown_solvers(fam, rho)
    _same_rect_cells(dual_family(fam).psi, dual)
    _same_rect_cells(real_normal_form(rho).v, v)
    _same_rect_cells(_reconstruct(v), rebuilt)


@pytest.mark.parametrize("m,beta_str", GRID6)
def test_online_solvers_match_row_rebuilding_loops_on_grid(m, beta_str):
    work = RECT8[0] + RECT8[1] + 2 * m + 2
    _check_online_solvers(beta_family(m, Fraction(beta_str), work), +1, RECT8)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.sampled_from([+1, -1]), st.integers(2, 5),
       st.integers(0, 3), st.lists(small_real, min_size=14, max_size=14),
       st.lists(small_real, min_size=14, max_size=14))
def test_online_solvers_match_row_rebuilding_loops_on_random_data(
        m, sign, nx, dy, a, b):
    from segreode import ode_from_real_data
    rect = (nx, m + dy)
    n = sum(rect)
    data = RealData(m, TruncSeries1(a[: n + 1], 0, n),
                    TruncSeries1(b[: n + 1], 0, n))
    _check_online_solvers(ode_from_real_data(data), sign, rect)


def test_settle_reaches_a_known_fixed_point():
    # w = y + x*w has the fixed point y/(1 - x) = y*(1 + x + x^2 + ...)
    def step(w):
        return TruncSeries2.var_y(*w.rect) + w.shift_x(1)

    w = _settle(step, TruncSeries2.var_y(5, 3))
    assert w.rect == (5, 3)
    assert all(w.row(j) == TruncSeries1.var(3) for j in range(6))


def test_settle_raises_when_the_step_does_not_settle():
    # row 0 of the image is y + 1, but the settled rows keep row 0 of start
    def step(w):
        y = TruncSeries2.var_y(*w.rect)
        return y + TruncSeries2.one(*w.rect) + w.shift_x(1)

    with pytest.raises(SeriesError, match="fixed point failed to stabilize"):
        _settle(step, TruncSeries2.var_y(3, 4))


@pytest.mark.parametrize("tail", [(1, 0), (0, 1)])
def test_settle_claims_the_capped_rectangle_of_the_confirming_sweep(tail):
    """Raw rho = y + c*x + x*y/2 puts y^0 terms into v, so substituting
    u - i*v caps ny at rho.ny - nx.  The online rows run uncapped; the
    settled v takes the confirming sweep's rectangle, that of the old loop."""
    x, y = TruncSeries2.var_x(4, 6), TruncSeries2.var_y(4, 6)
    rho = y + x.scale(QI(*tail)) + (x * y).scale(QI(1, 0, 2))

    def step(v, f):
        w_bar = TruncSeries2.var_y(*v.rect) - v.scale(QI(0, 1))
        return f(w_bar).scale(QI(0, -1, 2))

    v = _settle(lambda v: step(v, (rho - y).substitute_y),
                TruncSeries2.zero(4, 6))
    old = _grow_x_oracle(lambda v: step(v, lambda w: rho.substitute_y(w) - w),
                         TruncSeries2.zero(4, 6))
    assert v.rect == (4, 2)
    _same_rect_cells(v, old)


def test_settle_rejects_a_step_that_reads_row_k_of_its_unknown():
    # row 1 of the image is 1 + 2*(row 1 of the input)
    def step(w):
        y = TruncSeries2.var_y(*w.rect)
        return y + TruncSeries2.one(*w.rect).shift_x(1) + (w - y).scale(2)

    with pytest.raises(SeriesError, match="read while it is being computed"):
        _settle(step, TruncSeries2.var_y(3, 4))


# -- pipeline soundness: N versus N+k ODE data ---------------------------------


def _assert_restricts(small, big):
    assert small.nx <= big.nx and small.ny <= big.ny
    assert small.rows == big.restrict(*small.rect).rows


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.sampled_from([+1, -1]),
       st.integers(3, 4), st.integers(0, 2), st.integers(1, 2),
       st.lists(small_real, min_size=14, max_size=14),
       st.lists(small_real, min_size=14, max_size=14))
def test_dual_and_normal_form_claims_are_sound(m, sign, nx, dy, k, a, b):
    """Unknown ODE terms beyond the working order, replaced by random ones on
    a rectangle k larger each way, change no cell the smaller run claims.
    The dual profile loses m - 1 y-orders, so ny = m + dy."""
    from segreode import ode_from_real_data
    runs = []
    for rect in ((nx, m + dy), (nx + k, m + dy + k)):
        n = sum(rect)
        data = RealData(m, TruncSeries1(a[: n + 1], 0, n),
                        TruncSeries1(b[: n + 1], 0, n))
        fam = solve_psi(ode_from_real_data(data), sign, rect)
        runs.append((dual_family(fam), real_normal_form(build_rho(fam))))
    (dual, nf), (dual_big, nf_big) = runs
    _assert_restricts(dual.psi, dual_big.psi)
    _assert_restricts(nf.v, nf_big.v)
    assert nf.sign == nf_big.sign == sign
    for j, hk in nf.hks.items():
        assert hk.trunc <= nf_big.hks[j].trunc and hk == nf_big.hks[j]


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.sampled_from([+1, -1]),
       st.integers(2, 5), st.integers(0, 3), st.integers(1, 2),
       st.lists(small_real, min_size=14, max_size=14),
       st.lists(small_real, min_size=14, max_size=14))
@example(3, +1, 2, 0, 1, [QI(1)] * 14, [QI(1, 0, 2)] * 14)
def test_profile_and_rho_claims_are_sound(m, sign, nx, ny, k, a, b):
    """Unknown ODE terms beyond the working order, replaced by random ones on
    a rectangle k larger each way, change no cell of psi or rho that the
    smaller run claims.  ny = 0 with m = 3 shifts rows by y^2 past ny."""
    from segreode import ode_from_real_data
    runs = []
    for rect in ((nx, ny), (nx + k, ny + k)):
        n = sum(rect)
        data = RealData(m, TruncSeries1(a[: n + 1], 0, n),
                        TruncSeries1(b[: n + 1], 0, n))
        fam = solve_psi(ode_from_real_data(data), sign, rect)
        assert fam.rect == rect
        # a defining series holds sign*i*eta^m*x, so it needs ny >= m
        runs.append((fam.psi, build_rho(fam).rho if ny >= m else fam.psi))
    (psi, rho), (psi_big, rho_big) = runs
    _assert_restricts(psi, psi_big)
    _assert_restricts(rho, rho_big)
