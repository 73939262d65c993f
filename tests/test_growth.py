import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import segreode
from segreode import (
    QI,
    SeriesError,
    TruncSeries1,
    cli,
    diagnose,
    equiv,
    expected_termination,
    formal_solutions,
    gevrey_estimate,
    termination_detect,
    termination_order,
)

ROOT = Path(__file__).resolve().parents[1]


def _series_from(values):
    return TruncSeries1([QI.of(v) for v in values], 0, len(values) - 1)


def test_termination_basic():
    pair = formal_solutions(2, 2, 24)
    report = termination_detect(pair.f)
    assert report.terminated and report.degree == 1


def test_termination_nonresonant():
    pair = formal_solutions(2, 1, 24)
    assert not termination_detect(pair.f).terminated


def test_termination_zero_series():
    report = termination_detect(TruncSeries1.zero(10))
    assert report.terminated and report.degree is None


@pytest.mark.parametrize("beta", [0, 2, 6, 12, 20, 30])
def test_termination_grid_resonant(beta):
    assert expected_termination(2, beta)
    assert termination_detect(formal_solutions(2, beta, 40).f).terminated


@pytest.mark.parametrize("beta", [1, 3, 5, 7])
def test_termination_grid_nonresonant(beta):
    assert not expected_termination(2, beta)
    assert not termination_detect(formal_solutions(2, beta, 40).f).terminated


def test_expected_termination_m3():
    resonant = {l * (l + 1) * 4 for l in range(5)}  # 0, 8, 24, 48, 80
    for beta in range(0, 82):
        assert expected_termination(3, beta) == (beta in resonant)


@pytest.mark.parametrize("m,beta,n,order", [
    (2, 40200, 200, 201),   # l = 200: f has degree 200
    (3, 90600, 200, 301),   # l = 150: f has degree 300
    (2, 39800, 200, 200),   # l = 199: degree 199 is below n
    (2, 1, 200, 200),       # not resonant
    (2, 2, 10, 10),         # l = 1
    (4, 1, 200, 201),       # f lives on degrees divisible by 3
    (3, 1, 201, 202),       # f lives on even degrees
    (30, 1, 200, 232),      # 203 leaves the fit window (25, 203) 7 points
])
def test_termination_order_runs_past_a_polynomial(m, beta, n, order):
    """max(n, l*(m-1) + 1) for beta resonant at level l, else n raised to
    a multiple of m - 1 where the default fit window holds MIN_FIT_POINTS
    of them; f run to that order ends in a zero coefficient exactly when it
    terminates."""
    assert termination_order(m, beta, n) == order
    term = termination_detect(formal_solutions(m, beta, order).f)
    assert term.terminated == expected_termination(m, beta)


@pytest.mark.parametrize("call", [
    lambda: expected_termination(1, 1),
    lambda: termination_order(1, 1, 200),
    lambda: termination_order(0, 2, 200),
])
def test_resonance_needs_m_at_least_2(call):
    with pytest.raises(ValueError, match="the family needs m >= 2"):
        call()


def _divergence_scan(*args, code=0):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "divergence_scan.py"), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == code, proc.stderr
    return proc


def test_divergence_scan_rejects_a_negative_order():
    """A negative --order is a usage error before any row is printed."""
    proc = _divergence_scan("--order", "-3", "--beta-max", "1", code=2)
    assert proc.stdout == ""
    assert "error: --order" in proc.stderr


def test_divergence_scan_on_a_polynomial_above_the_order():
    """beta = 40200 makes f a polynomial of degree 200 = --order; the scan
    runs past it and reports termination at degree 200."""
    proc = _divergence_scan("--m", "2", "--beta-min", "40200",
                            "--beta-max", "40200", "--order", "200")
    assert proc.stdout.splitlines()[-1].split()[:4] == [
        "40200", "trivial", "True", "200"]


def test_divergence_scan_on_f_of_order_4():
    """For m = 4, f lives on degrees divisible by 3; the scan runs it to
    201 for --order 200 and fits the divergent members."""
    proc = _divergence_scan("--m", "4", "--beta-max", "2", "--order", "200")
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[:3] for row in rows] == [["0", "trivial", "True"],
                                         ["1", "nontrivial", "False"],
                                         ["2", "nontrivial", "False"]]


def test_growth_readings_run_f_alone(monkeypatch, capsys):
    """The growth check, growth --family and the divergence scan run f's
    recursion alone: none builds the pair (f, u, h)."""
    def no_pair(*_):
        raise AssertionError("formal_solutions called for a growth reading")

    for module in (segreode, equiv, cli):
        monkeypatch.setattr(module, "formal_solutions", no_pair)
    assert cli.main(["run", "--family", "2,-1/3", "--family", "2,2",
                     "--checks", "growth"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [run["checks"]["growth"]["pass"] for run in report["runs"]] \
        == [True, True]
    assert cli.main(["growth", "--family", "4,1"]) == 0
    assert json.loads(capsys.readouterr().out)["fit_window"][1] == 201
    spec = importlib.util.spec_from_file_location(
        "divergence_scan", ROOT / "scripts" / "divergence_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    monkeypatch.setattr(sys, "argv", ["divergence_scan.py", "--beta-max", "2",
                                      "--order", "60"])
    assert scan.main() == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


@pytest.mark.parametrize("m, beta", [(4, -2), (5, -3)])
def test_trivial_monodromy_with_a_divergent_f(capsys, m, beta):
    """For m >= 4 a trivial monodromy does not make f terminate: the exact
    termination predicate and the Gevrey fit of order 1/(m - 1) are the
    divergence evidence."""
    assert cli.main(["run", "--family", f"{m},{beta}",
                     "--checks", "monodromy,growth"]) == 0
    checks = json.loads(capsys.readouterr().out)["runs"][0]["checks"]
    assert checks["monodromy"]["pass"] and checks["monodromy"]["trivial"]
    growth = checks["growth"]
    assert growth["pass"] and not growth["terminated"]
    assert not expected_termination(m, beta)
    assert abs(growth["gevrey"] - 1 / (m - 1)) < 0.05


@pytest.mark.parametrize("m, beta, n", [
    (2, "1", 80), (2, "-1/3", 80), (3, "5/2", 80), (4, "1", 81),
    (2, "40200", 210), (3, "24", 60),
])
def test_f_is_the_2F0_closed_form(m, beta, n):
    """f(w) = F(c*w^(m-1)) with F = 2F0(1 - mu1, 1 - mu2; ; z), mu1 and mu2
    the roots of mu^2 - mu - beta/(m-1)^2 and c = (m-1)/(2i): the
    coefficient at w^(j(m-1)) is c^j * prod_{k=1..j} (k^2 - k - beta/(m-1)^2)/k,
    exactly, and f is zero off the multiples of m - 1.  (2, 40200) and
    (3, 24) terminate, at degrees 200 and 4, where a factor vanishes."""
    beta = Fraction(beta)
    f = formal_solutions(m, beta, n).f
    c = QI(0, 1 - m, 2)  # (m - 1)/(2i)
    term = QI(1)
    for degree in range(n + 1):
        j, rest = divmod(degree, m - 1)
        if rest:
            assert f.coefficient(degree).is_zero
            continue
        if j:
            term = term * c * QI.of(j * j - j - beta / (m - 1) ** 2) / j
        assert f.coefficient(degree) == term


def test_gevrey_inverse_factorial():
    s = _series_from([0] + [QI(1, 0, math.factorial(k)) for k in range(1, 101)])
    report = gevrey_estimate(s)
    assert abs(report.gevrey + 1) < 0.1


def test_gevrey_geometric_radius():
    s = _series_from([2 ** k for k in range(101)])
    report = gevrey_estimate(s)
    assert abs(report.gevrey) < 0.1
    assert abs(report.radius - 0.5) < 1e-9


def test_gevrey_radius_of_a_fast_decaying_series_is_infinite():
    """c_k = 10^(-310k): exp(-median log|c_k|/k) overflows a float, so the
    radius is inf, as it is 0.0 for a median rate of 700 and above."""
    s = _series_from([1] + [QI(1, 0, 10 ** (310 * k)) for k in range(1, 13)])
    assert gevrey_estimate(s).radius == math.inf


def test_gevrey_divergent_solution_series():
    f = formal_solutions(2, 1, 200).f
    report = gevrey_estimate(f, window=(32, 180))
    assert 0.8 <= report.gevrey <= 1.2
    assert report.fit_window == (32, 180)
    assert report.confidence[0] <= report.gevrey <= report.confidence[1]


def test_gevrey_window_shift_stability():
    f = formal_solutions(2, 1, 200).f
    base = gevrey_estimate(f, window=(32, 180)).gevrey
    for shift in (-10, 10):
        shifted = gevrey_estimate(f, window=(32 + shift, 180 + shift)).gevrey
        assert abs(shifted - base) <= 0.1


def test_gevrey_convergent_series_small_order():
    s = _series_from([1] * 101)  # 1/(1-w)
    assert gevrey_estimate(s).gevrey <= 0.15


def test_gevrey_nonzero_support_only():
    # supported on even degrees only (like the m=3 solutions)
    f = formal_solutions(3, 1, 200).f
    report = gevrey_estimate(f, window=(32, 180))
    assert report.n_points <= 75
    assert report.gevrey > 0.5


def test_gevrey_terminated_flags():
    """diagnose reads a terminated series off its termination report and
    fits nothing to it; a divergent one gets both."""
    term, report = diagnose(formal_solutions(2, 6, 80).f)
    assert term.terminated and term.degree == 2
    assert report is None
    f = formal_solutions(2, 1, 200).f
    term, report = diagnose(f, (32, 180))
    assert not term.terminated and term.degree == 200
    assert report == gevrey_estimate(f, (32, 180))


def test_gevrey_too_few_points():
    s = TruncSeries1.from_terms({0: 1, 5: 1, 40: 1}, 40)
    with pytest.raises(SeriesError):
        gevrey_estimate(s)


def test_gevrey_float_backend():
    s = TruncSeries1([2 ** k for k in range(64)], 0, 63)
    report = gevrey_estimate(s)
    assert abs(report.gevrey) < 0.1
