import cmath
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from segreode import (
    AdmissibleOde,
    beta_family,
    cli,
    expected_termination,
    monodromy,
    numeric_monodromy,
    residue_analysis,
)
from segreode._dop853 import dop853
from segreode.monodromy import DEVIATION_TOL


def test_trivial_beta2():
    r = residue_analysis(2, 2)
    assert r.trivial
    assert set(r.integer_eigenvalues) == {2, -1}
    assert r.eigenvalue_sum == 1
    assert r.eigenvalue_product == Fraction(-2)


def test_nontrivial_beta1_golden_ratio():
    r = residue_analysis(2, 1)
    assert not r.trivial
    assert r.discriminant == 5
    golden = (1 + math.sqrt(5)) / 2
    values = sorted(l.real for l in r.residue_eigenvalues)
    assert abs(values[1] - golden) < 1e-12
    assert abs(values[0] - (1 - golden)) < 1e-12


def test_trivial_beta0():
    r = residue_analysis(2, 0)
    assert r.trivial
    assert set(r.integer_eigenvalues) == {0, 1}


def test_complex_eigenvalues_negative_discriminant():
    r = residue_analysis(2, -1)
    assert not r.trivial
    lam = r.residue_eigenvalues[0]
    assert abs(lam.imag) > 0
    # predicted eigenvalue moduli are exp(-+ pi sqrt(3))
    mods = sorted(abs(e) for e in r.predicted_eigenvalues)
    assert abs(mods[0] - math.exp(-math.pi * math.sqrt(3))) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_triviality_grid_matches_integer_criterion(m):
    """beta = l*(l-m+1) with exponents l and m-1-l, trivial unless their
    difference 2l-m+1 is an even multiple of m-1: for m = 3, beta = -1
    (exponents 1, 1) and 3 (3, -1) are Jordan blocks."""
    reference = {l * (l - m + 1) for l in range(-12, 13)
                 if (2 * l - m + 1) % (2 * m - 2)}
    for beta in range(-3, 7):
        assert residue_analysis(m, beta).trivial == (beta in reference)


def test_triviality_matches_termination_at_resonant_exponents():
    """Where the exponents are integers a multiple of m-1 apart, the
    smaller one's Frobenius series meets the larger one: it stops exactly
    when lambda_2 = -l(m-1), i.e. when f terminates, and otherwise leaves a
    logarithm."""
    seen = {True: 0, False: 0}
    for m in range(2, 10):
        for beta in range(-100, 401):
            rep = residue_analysis(m, beta)
            if rep.integer_eigenvalues is None:
                assert not rep.trivial
                continue
            high, low = rep.integer_eigenvalues
            if (high - low) % (m - 1) == 0:
                assert rep.trivial == expected_termination(m, beta)
                seen[rep.trivial] += 1
    assert min(seen.values()) > 10


# integer-exponent members of m = 2..7: identity monodromy, and the
# Jordan blocks of odd m (exponents an even multiple of m-1 apart)
INTEGER_EXPONENT_MEMBERS = [
    (2, 0), (2, 2), (3, -1), (3, 0), (3, 3), (3, 8), (4, -2), (4, 4),
    (5, -4), (5, -3), (5, 12), (6, -6), (6, 6), (7, -9), (7, -8), (7, 27)]


@pytest.mark.parametrize("m,beta", INTEGER_EXPONENT_MEMBERS)
def test_trivial_iff_the_integrated_loop_is_the_identity(m, beta):
    num = numeric_monodromy(m, beta)
    assert num.exact.integer_eigenvalues is not None
    identity_deviation = np.abs(np.array(num.matrix) - np.eye(2)).max()
    assert num.exact.trivial == (identity_deviation < 1e-6)
    assert num.ok


def test_rational_beta_never_trivial():
    assert not residue_analysis(2, Fraction(1, 2)).trivial
    assert not residue_analysis(3, Fraction(-3, 4)).trivial


def test_residue_rejects_m1():
    with pytest.raises(ValueError):
        residue_analysis(1, 0)


@pytest.mark.parametrize("beta,expect_identity", [(0, True), (1, False),
                                                  (2, True)])
def test_numeric_matches_prediction(beta, expect_identity):
    start = time.perf_counter()
    num = numeric_monodromy(2, beta, radius=1.0, tol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert num.deviation < 1e-6
    if expect_identity:
        eigs = sorted(num.eigenvalues, key=lambda z: z.imag)
        for e in eigs:
            assert abs(e - 1) < 1e-6


def test_liouville_ostrogradsky_consistency():
    for beta in (0, 1, 2):
        num = numeric_monodromy(2, beta, radius=1.0, tol=1e-10)
        m = [list(row) for row in num.matrix]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert abs(abs(det) - 1.0) < 10 * 1e-10


def test_tolerance_refinement_improves_deviation():
    devs = [numeric_monodromy(2, 1, 1.0, tol).deviation
            for tol in (1e-4, 1e-6, 1e-8)]
    assert devs[1] <= devs[0]
    assert devs[2] <= devs[1]


def test_numeric_with_rational_beta():
    num = numeric_monodromy(2, Fraction(1, 2), radius=1.0, tol=1e-8)
    assert num.deviation < 1e-5


def test_radius_rejection():
    with pytest.raises(ValueError):
        numeric_monodromy(2, 1, radius=0.05)


@pytest.mark.parametrize("radius, tol, message", [
    (0.05, math.nan, "radius 0.05 rejected"),
    (math.inf, 1e-10, "radius needs to be a finite number"),
    (True, 1e-10, "radius needs to be a finite number"),
    (1.0, 0.0, "tol needs to be a finite number > 0"),
    (1.0, "1e-10", "tol needs to be a finite number > 0"),
])
def test_check_contour_names_the_radius_before_the_tol(radius, tol, message):
    with pytest.raises(ValueError, match=message):
        monodromy.check_contour(radius, tol)
    with pytest.raises(ValueError, match=message):
        numeric_monodromy(2, 1, radius, tol)


def test_numeric_monodromy_integrates_the_beta_family_ode(monkeypatch):
    """The integration reads P and Q from ode.beta_family, the ODE the exact
    checks verify: doubling its Q moves the member (2, 1) onto (2, 2)."""
    moved = numeric_monodromy(2, 2)

    def doubled_q(m, beta, trunc):
        e = beta_family(m, beta, trunc)
        return AdmissibleOde(m, e.p, e.q + e.q)

    monkeypatch.setattr(monodromy, "beta_family", doubled_q)
    num = numeric_monodromy(2, 1)
    assert num.matrix == moved.matrix
    assert moved.ok and not num.ok


def test_numeric_monodromy_checks_m_through_residue_analysis():
    with pytest.raises(ValueError, match="needs m >= 2, got 1"):
        numeric_monodromy(1, 0)


@pytest.mark.parametrize("beta", [-12800, 10 ** 310], ids=["-12800", "1e310"])
def test_overflowing_prediction_is_a_value_error(beta):
    """For m = 2, |p| = e^{pi*sqrt(4|beta| - 1)} overflows a float below
    beta ~ -12760, and 4*beta itself past ~ 4.5e307."""
    with pytest.raises(ValueError, match=f"m = 2, beta = {beta} overflow"):
        residue_analysis(2, beta)
    assert not residue_analysis(2, -12700).trivial


def test_overflowing_contour_fails_the_integration():
    """w^m overflows on |w| = 1e100: the integration fails with an error,
    not an OverflowError."""
    with pytest.raises(RuntimeError, match="monodromy integration failed"):
        numeric_monodromy(2, 1, radius=1e100)


def test_monodromy_report_combined():
    """The exact classification and the contour integration of one member
    agree: beta = 1 is nontrivial, with golden-ratio residue eigenvalues."""
    report = residue_analysis(2, 1)
    num = numeric_monodromy(2, 1, tol=1e-8)
    assert not report.trivial
    predicted = sorted(report.predicted_eigenvalues, key=lambda z: z.real)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(predicted[0] - cmath.exp(2j * math.pi * golden)) < 1e-9
    assert num.deviation < 1e-6


@pytest.mark.parametrize("beta", [-4, -5])
def test_large_predicted_eigenvalues_pass_relative_tolerance(beta):
    """For m = 2 and beta <= -4 one eigenvalue has modulus above 1e5, so the
    integrator's relative tolerance shows up as an absolute deviation above
    1e-6; relative to the moduli it is tiny."""
    report = residue_analysis(2, beta)
    num = numeric_monodromy(2, beta)
    assert max(abs(p) for p in report.predicted_eigenvalues) > 1e5
    assert num.deviation > DEVIATION_TOL
    assert num.ok
    ctx = cli.FamilyContext(2, beta=Fraction(beta))
    assert cli.check_monodromy(ctx)["pass"] is True


def test_numeric_monodromy_returns_its_exact_analysis():
    num = numeric_monodromy(3, Fraction(5, 2))
    assert num.exact == residue_analysis(3, Fraction(5, 2))


def test_wrong_trivial_claim_fails_the_verdict(monkeypatch):
    """(3, -1) is a Jordan block with trace and determinant those of the
    identity; claiming it trivial fails on M - I."""
    true_analysis = monodromy.residue_analysis
    monkeypatch.setattr(monodromy, "residue_analysis", lambda m, beta:
                        dataclasses.replace(true_analysis(m, beta),
                                            trivial=True))
    num = numeric_monodromy(3, -1)
    assert num.exact.trivial and not num.ok
    assert not cli.check_monodromy(cli.FamilyContext(3, beta=Fraction(-1)))[
        "pass"]


def test_wrong_prediction_still_fails(monkeypatch):
    true_analysis = monodromy.residue_analysis
    monkeypatch.setattr(monodromy, "residue_analysis",
                        lambda m, beta: true_analysis(m, Fraction(beta) + Fraction(1, 2)))
    entry = cli.check_monodromy(cli.FamilyContext(2, beta=Fraction(-4)))
    assert entry["pass"] is False
    assert entry["witness"]["deviation"] > 1.0


@pytest.fixture
def solve_ivp():
    """SciPy's integrator, the oracle that dop853 repeats step for step."""
    return pytest.importorskip("scipy.integrate").solve_ivp


def _assert_matches_solve_ivp(monkeypatch, solve_ivp, m, beta, radius, tol):
    """numeric_monodromy's integration, and solve_ivp's DOP853 on the same
    right-hand side, give the same final state bit for bit and the same
    evaluation count."""
    calls = []

    def spy(fun, t0, t_end, y0, tol):
        y, nfev = dop853(fun, t0, t_end, y0, tol)
        calls.append((fun, t0, t_end, y0.copy(), y, nfev))
        return y, nfev

    monkeypatch.setattr(monodromy, "dop853", spy)
    num = numeric_monodromy(m, beta, radius=radius, tol=tol)
    (fun, t0, t_end, y0, y, nfev), = calls
    with warnings.catch_warnings():
        # solve_ivp warns when it raises rtol to 100 eps
        warnings.simplefilter("ignore", UserWarning)
        sol = solve_ivp(fun, (t0, t_end), y0, method="DOP853",
                        rtol=tol, atol=tol)
    assert sol.success
    assert sol.nfev == nfev == num.n_evaluations
    assert np.array_equal(sol.y[:, -1].view(np.float64), y.view(np.float64))


# the acceptance grid, rational and negative beta, m = 4, and beta = 40200,
# whose f is a polynomial of degree 200
ORACLE_MEMBERS = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2),
                  (2, Fraction(-1, 3)), (3, Fraction(5, 2)), (4, 1), (2, -5),
                  (2, 40200)]


@pytest.mark.parametrize("m,beta", ORACLE_MEMBERS)
def test_dop853_matches_solve_ivp_on_members(monkeypatch, solve_ivp, m, beta):
    _assert_matches_solve_ivp(monkeypatch, solve_ivp, m, beta, 1.0, 1e-10)


@pytest.mark.parametrize("radius,tol", itertools.product(
    (0.5, 1.0, 2.0), (1e-8, 1e-10, 1e-12, 1e-15)))
@pytest.mark.parametrize("m,beta", [(2, Fraction(-1, 3)), (3, Fraction(5, 2)),
                                    (2, -5)])
def test_dop853_matches_solve_ivp_over_radius_and_tol(monkeypatch, solve_ivp,
                                                      m, beta, radius, tol):
    """tol = 1e-15 is below 100 eps, so both raise rtol to that floor."""
    _assert_matches_solve_ivp(monkeypatch, solve_ivp, m, beta, radius, tol)


def test_dop853_fails_where_solve_ivp_does(solve_ivp):
    """A right-hand side that turns NaN partway round: solve_ivp stops with
    its too-small-step status, and dop853 raises RuntimeError."""
    def rhs(t, y):
        return np.full_like(y, np.nan) if t > 1.0 else 1j * y

    y0 = np.array([1, 0, 0, 1], dtype=complex)
    with np.errstate(invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, monodromy.TWO_PI), y0, method="DOP853",
                        rtol=1e-10, atol=1e-10)
        assert not sol.success
        assert "step size is less than spacing between numbers" in sol.message
        with pytest.raises(RuntimeError, match="spacing between numbers"):
            dop853(rhs, 0.0, monodromy.TWO_PI, y0, 1e-10)


def test_overflowing_member_fails_the_integration():
    """beta = 10^307 at radius 0.1 overflows the right-hand side at the
    start, so the first step is NaN: the integration raises, where
    solve_ivp loops forever."""
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(RuntimeError, match="monodromy integration failed"):
            numeric_monodromy(2, 10 ** 307, radius=0.1)


def test_pipeline_runs_without_scipy():
    """numpy is the only runtime dependency: with scipy unimportable the
    CLI imports, the monodromy and growth checks pass, and no scipy module
    is loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from segreode import cli\n"
        "argv = ['run', '--family', '2,1', '--degree', '16',\n"
        "        '--rect', '4,8', '--checks', 'monodromy,growth']\n"
        "assert cli.main(argv) == 0\n"
        "loaded = [name for name, mod in sys.modules.items()\n"
        "          if name.startswith('scipy') and mod is not None]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
