import cmath
import math
import time
from fractions import Fraction

import pytest

from segreode import cli, monodromy, monodromy_report, numeric_monodromy, residue_analysis
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
    reference = {l * (l - m + 1) for l in range(-12, 13)}
    for beta in range(-3, 7):
        assert residue_analysis(m, beta).trivial == (beta in reference)


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
        assert abs(abs(det) - 1.0) < 10 * num.tol


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


def test_monodromy_report_combined():
    report = monodromy_report(2, 1, numeric=True, tol=1e-8)
    assert report.numeric is not None
    assert not report.trivial
    predicted = sorted(report.predicted_eigenvalues, key=lambda z: z.real)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(predicted[0] - cmath.exp(2j * math.pi * golden)) < 1e-9


@pytest.mark.parametrize("beta", [-4, -5])
def test_large_predicted_eigenvalues_pass_relative_tolerance(beta):
    """For m = 2 and beta <= -4 one eigenvalue has modulus above 1e5, so the
    integrator's relative tolerance shows up as an absolute deviation above
    1e-6; relative to the moduli it is tiny."""
    report = monodromy_report(2, beta, numeric=True)
    assert max(abs(p) for p in report.predicted_eigenvalues) > 1e5
    assert report.relative_deviation() < DEVIATION_TOL
    ctx = cli.FamilyContext(2, beta=Fraction(beta))
    assert cli.check_monodromy(ctx)["pass"] is True


def test_wrong_prediction_still_fails(monkeypatch):
    true_analysis = monodromy.residue_analysis
    monkeypatch.setattr(monodromy, "residue_analysis",
                        lambda m, beta: true_analysis(m, Fraction(beta) + Fraction(1, 2)))
    entry = cli.check_monodromy(cli.FamilyContext(2, beta=Fraction(-4)))
    assert entry["pass"] is False
    assert entry["witness"]["deviation"] > 1.0
