import argparse
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import typing
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from segreode import (
    QI,
    AdmissibleOde,
    GaugeMap,
    Hypersurface,
    TruncSeries2,
    build_vector_field,
    cli,
    numeric_monodromy,
)
from segreode.cli import (
    ConfigError,
    RunConfig,
    parse_family,
    parse_polynomial,
    parse_rect,
    run_pipeline,
)
from segreode.monodromy import MIN_RADIUS
from segreode.series import TruncSeries1, TruncationStarvation


def test_parse_family():
    assert parse_family("2,1") == (2, Fraction(1))
    assert parse_family("3,-1/2") == (3, Fraction(-1, 2))
    with pytest.raises(ConfigError):
        parse_family("2")
    with pytest.raises(ConfigError):
        parse_family("x,1")


def test_parse_polynomial():
    s = parse_polynomial("1*w^0 + 3/2*w^2 - 1*w^4", 8)
    assert str(s.coefficient(0)) == "1"
    assert str(s.coefficient(2)) == "3/2"
    assert str(s.coefficient(4)) == "-1"
    with pytest.raises(ConfigError):
        parse_polynomial("w^2", 8)
    with pytest.raises(ConfigError):
        parse_polynomial("1*w^9", 8)
    with pytest.raises(ConfigError, match="cannot parse rational '1/0'"):
        parse_polynomial("1/0*w^0", 8)


def test_parse_rect():
    assert parse_rect("8,24") == (8, 24)
    with pytest.raises(ConfigError):
        parse_rect("8")


def test_run_pipeline_small():
    cfg = RunConfig(families=[(2, Fraction(0))], checks=["reality", "model0"],
                    degree=24, rect=(6, 12))
    report, code = run_pipeline(cfg)
    assert code == 0
    checks = report["runs"][0]["checks"]
    assert checks["reality"]["pass"] is True
    assert checks["model0"]["pass"] is True


def test_run_pipeline_skips_inapplicable():
    cfg = RunConfig(families=[(2, Fraction(1))], checks=["model0"],
                    degree=24, rect=(6, 12))
    report, code = run_pipeline(cfg)
    assert code == 0
    assert report["runs"][0]["checks"]["model0"]["pass"] is None


def test_family_context_annotations_resolve():
    """Every type a FamilyContext method names is imported in cli."""
    for name, member in vars(cli.FamilyContext).items():
        if callable(member):
            typing.get_type_hints(member)


def test_map_and_model0_share_the_closed_form_model():
    """map reads the closed-form beta = 0 model, not a solved one, and
    builds the zero_hyper stage only when model0 reads it."""
    ctx = cli.FamilyContext(2, beta=Fraction(1), degree=24, rect=(6, 12))
    assert cli.check_map(ctx)["pass"] is True
    assert "zero_hyper" not in ctx._cache
    ctx = cli.FamilyContext(2, beta=Fraction(0), degree=24, rect=(6, 12))
    assert cli.check_model0(ctx)["pass"] is True
    assert "zero_hyper" in ctx._cache


def test_run_pipeline_failure_sets_exit(monkeypatch):
    # exit-code plumbing: a failing check must flip the exit code and carry
    # its witness through, without masking other checks
    def failing(ctx):
        return {"pass": False, "witness": {"cell": [0, 0], "value": "1"}}

    monkeypatch.setitem(cli.CHECKS, "roundtrip", failing)
    cfg = RunConfig(families=[(2, Fraction(0))], checks=["roundtrip", "growth"],
                    degree=24, rect=(6, 12))
    report, code = run_pipeline(cfg)
    assert code == 1
    checks = report["runs"][0]["checks"]
    assert checks["roundtrip"]["pass"] is False
    assert checks["roundtrip"]["witness"] == {"cell": [0, 0], "value": "1"}
    assert checks["growth"]["pass"] is True


def test_run_pipeline_parallel_matches_serial():
    cfg = RunConfig(families=[(2, Fraction(0)), (2, Fraction(2))],
                    checks=["growth", "monodromy"], degree=24, rect=(6, 12))
    serial, _ = run_pipeline(cfg)
    cfg.jobs = 2
    parallel, _ = run_pipeline(cfg)
    assert json.dumps(cli._round_floats(serial), sort_keys=True) == \
        json.dumps(cli._round_floats(parallel), sort_keys=True)


@pytest.mark.parametrize("family,degree", [("2,40200", 200), ("3,90600", 300)])
def test_cli_growth_resonant_polynomial_above_default_order(capsys, family,
                                                             degree):
    """beta = l*(l+1)*(m-1)^2 makes f a polynomial of degree l*(m-1); here
    l = 200 and 150 put that degree at or above the default order 200, and
    the check runs one order past it to see f terminate."""
    args = ["run", "--family", family, "--checks", "growth"]
    assert cli.main(args) == 0
    growth = json.loads(capsys.readouterr().out)["runs"][0]["checks"]["growth"]
    assert growth["pass"] is True and growth["terminated"] is True
    assert growth["termination_degree"] == degree


@pytest.mark.parametrize("family,degree", [("2,40200", 200), ("3,90600", 300)])
def test_cli_growth_family_runs_past_a_polynomial(capsys, family, degree):
    """growth --family runs f to the order the growth check runs it to, one
    past the degree of a resonant polynomial, and so fits nothing to it."""
    assert cli.main(["growth", "--family", family]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"series": [int(family[0]), family[2:]],
                       "terminated": True, "termination_degree": degree}


@pytest.mark.parametrize("argv", [
    ["growth", "--family", "1,1"],
    ["autovec", "--family", "1,1"],
])
def test_cli_family_m1_is_usage_error(capsys, argv):
    """growth and autovec (whose vector field needs the formal solutions)
    work on the beta family of order m >= 2 only: m = 1 exits 2 with one
    line."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1 and "m >= 2" in captured.err


@pytest.mark.parametrize("argv", [
    ["--family", "4,1"],
    ["--family", "4,2"],
    ["--family", "3,1", "--degree", "201"],
])
def test_cli_growth_check_runs_f_to_a_degree_it_reaches(capsys, argv):
    """f lives on degrees divisible by m - 1: the check runs it to such a
    degree (201 for m = 4 at the default 200, 202 for m = 3 at 201), so a
    divergent f is not read as terminated."""
    assert cli.main(["run", "--checks", "growth", *argv]) == 0
    growth = json.loads(capsys.readouterr().out)["runs"][0]["checks"]["growth"]
    assert growth["pass"] is True and growth["terminated"] is False
    assert growth["gevrey"] > 0


@pytest.mark.parametrize("argv", [[], ["--degree", "290"]])
def test_cli_growth_check_fits_f_of_order_30(capsys, argv):
    """For m = 30, f lives on multiples of 29: the check runs f to 232 at
    the default degree, where the fit window (29, 232) holds the 8 nonzero
    coefficients the fit needs (203 left it 7), and 290 holds 9."""
    assert cli.main(["run", "--family", "30,1", "--checks", "growth",
                     *argv]) == 0
    growth = json.loads(capsys.readouterr().out)["runs"][0]["checks"]["growth"]
    assert growth["pass"] is True and growth["terminated"] is False


def test_cli_growth_family_fits_f_of_order_4(capsys):
    """growth --family 4,1 fits f's Gevrey order, near 1/(m - 1)."""
    assert cli.main(["growth", "--family", "4,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terminated"] is False
    assert abs(payload["gevrey"] - 1 / 3) < 0.1


@pytest.mark.parametrize("window", ["5", "a,b", "1,2,3"])
def test_cli_growth_bad_window_names_the_window(monkeypatch, capsys, window):
    _forbid_work(monkeypatch)
    assert cli.main(["growth", "--family", "2,1", "--window", window]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: window must be 'KMIN,KMAX'") \
        and err.count("\n") == 1


@pytest.mark.parametrize("source", [["--family", "2,1"],
                                    ["--series", "absent.json"]])
def test_cli_growth_negative_degree_rejected_before_work(monkeypatch, capsys,
                                                         source):
    """growth rejects a negative --degree as every command does, on the
    --family and the --series path alike."""
    _forbid_work(monkeypatch)
    assert cli.main(["growth", *source, "--degree", "-5"]) == 2
    assert capsys.readouterr().err == \
        "error: degree needs to be an integer >= 0, got -5\n"


@pytest.mark.parametrize("script, args", [
    ("divergence_scan.py", ["--order", "-3", "--beta-max", "1"]),
    ("monodromy_grid.py", ["--m", "1"]),
    ("monodromy_grid.py", ["--radius", "0.01"]),
    ("hypersurface_from_real_data.py", ["--m", "2", "--a", "1*w^0+x",
                                        "--b", "1*w^2"]),
    ("hypersurface_from_real_data.py", ["--m", "2", "--a", "1*w^0",
                                        "--b", "1*w^2", "--rect", "2,1"]),
    # float overflows: in the integration, and in the predicted eigenvalues
    ("monodromy_grid.py", ["--beta-min", "0", "--beta-max", "0",
                           "--radius", "1e100"]),
    ("monodromy_grid.py", ["--beta-min", "-12800", "--beta-max", "-12800"]),
    ("divergence_scan.py", ["--beta-min", "-12800", "--beta-max", "-12800",
                            "--order", "40"]),
    # a zero denominator in a coefficient
    ("hypersurface_from_real_data.py", ["--m", "2", "--a", "1/0*w^0",
                                        "--b", "1*w^2"]),
])
def test_scripts_reject_bad_input_with_exit_2(script, args):
    """An input a script cannot use, or one the library rejects, is an
    argparse usage error: exit 2 with an error line, no traceback."""
    proc = _run_script(script, args)
    assert proc.returncode == 2, proc.stderr
    assert f"{script}: error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def _run_script(script, args):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, str(root / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)


def test_script_takes_a_leading_minus_in_the_equals_form():
    """--a=-1/2*w^0 passes a polynomial with a leading minus as the value."""
    proc = _run_script("hypersurface_from_real_data.py", [
        "--m", "2", "--a=-1/2*w^0", "--b", "1*w^2", "--rect", "4,8"])
    assert proc.returncode == 0, proc.stderr


def test_cli_roundtrip_names_the_first_offending_degree():
    """An ODE that differs from the one the profile was solved from by
    (i/5)*w^4 in P: the extracted P minus the ODE's is -(i/5)*w^4."""
    ctx = cli.FamilyContext(2, beta=Fraction(1), degree=24, rect=(6, 12))
    ctx.family()
    e = ctx.ode()
    bump = TruncSeries1.monomial(QI(0, 1, 5), 4, e.p.trunc)
    ctx._cache["ode"] = AdmissibleOde(2, e.p + bump, e.q)
    entry = cli.check_roundtrip(ctx)
    assert entry["pass"] is False
    assert entry["witness"] == {"degree": 4, "value": "-1/5i"}


def test_cli_realty_names_the_first_offending_cell():
    """rho + c*x^2*y^3 with real c: the residual y - rho(x, conj_rho(x, y))
    changes first at x^2*y^3, by -(c + conj(c)) = -2c, and the normal form
    of the no longer real rho has an imaginary coefficient in its x^2 row."""
    ctx = cli.FamilyContext(2, beta=Fraction(1), degree=24, rect=(6, 12))
    h = ctx.hyper()
    bump = TruncSeries2.from_rows(
        {2: TruncSeries1.monomial(QI(1, 0, 3), 3, 12)}, 6, 12)
    ctx._cache["hyper"] = Hypersurface(h.m, h.sign, h.rho + bump)
    entry = cli.check_realty(ctx)
    assert entry["pass"] is False
    assert entry["witness"] == {"cell": [2, 3], "value": "-2/3"}
    assert entry["normal_form"] is False
    assert entry["detail"].startswith("normal form row x^2 has imaginary")


@pytest.mark.parametrize("m, piece, degree, bump, witness", [
    (2, "chi", 3, QI(1), {"degree": 5, "value": "-2"}),
    (3, "chi", 3, QI(1), {"degree": 6, "value": "-2"}),
    (2, "tau", 5, QI(1), {"degree": 6, "value": "3"}),
    (3, "tau", 5, QI(1), {"degree": 7, "value": "2"}),
    (2, "tau", 5, QI(0, 1), {"degree": 5, "value": "2i"}),
])
def test_cli_coupled_names_a_changed_coefficient(m, piece, degree, bump,
                                                 witness):
    """One coefficient of chi or tau changed by c: eta^m*tau' -
    tau^m*chi*conj(chi) changes first at w^{k+m} by -2*Re(c) for chi_k, and
    at w^{k+m-1} by (k - m)*c for a real change of tau_k; an imaginary
    change of tau_k breaks tau = conj(tau) at w^k by 2c."""
    ctx = cli.FamilyContext(m, beta=Fraction(1), degree=24, rect=(6, 12))
    chi, tau = ctx.chi_tau().f, ctx.chi_tau().g
    if piece == "chi":
        chi = chi + TruncSeries1.monomial(bump, degree, chi.trunc)
    else:
        tau = tau + TruncSeries1.monomial(bump, degree, tau.trunc)
    ctx._cache["chi_tau"] = GaugeMap(chi, tau)
    entry = cli.check_coupled(ctx)
    assert entry == {"pass": False, "witness": witness}


def test_cli_segre_sign_minus_one(capsys):
    """The sign -1 family is the +1 family seen through x -> -x:
    psi_-(x, eta) = -psi_+(-x, eta), so rho_-(x, eta) = rho_+(-x, eta), the
    normal form's sign is -1 and h_k picks up (-1)^k."""
    base = ["segre", "--family", "2,1", "--rect", "4,8", "--degree", "16",
            "--emit", "psi,rho,hk"]
    payloads = {}
    for sign in (1, -1):
        assert cli.main(base + ["--sign", str(sign)]) == 0
        payloads[sign] = json.loads(capsys.readouterr().out)
    plus, minus = payloads[1], payloads[-1]
    assert (minus["sign"], minus["normal_form_sign"]) == (-1, -1)
    psi_p, psi_m = (TruncSeries2.from_json(p["psi"]) for p in (plus, minus))
    rho_p, rho_m = (TruncSeries2.from_json(p["rho"]) for p in (plus, minus))
    for j in range(5):
        for k in range(9):
            flip = (-1) ** j
            assert psi_m.coefficient(j, k) == -flip * psi_p.coefficient(j, k)
            assert rho_m.coefficient(j, k) == flip * rho_p.coefficient(j, k)
    assert set(minus["hk"]) == set(plus["hk"]) == {"2", "3", "4"}
    for k, hk in minus["hk"].items():
        assert TruncSeries1.from_json(hk) == \
            TruncSeries1.from_json(plus["hk"][k]).scale((-1) ** int(k))


def test_cli_monodromy_numeric_block(capsys):
    """The integrated eigenvalues match the predicted ones set-wise, with
    the radius and tolerance they were integrated at."""
    code = cli.main(["monodromy", "--family", "2,1", "--numeric",
                     "--radius", "1.0", "--tol", "1e-10"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    num = payload["numeric"]
    assert (num["radius"], num["tol"]) == (1.0, 1e-10)
    assert num["n_evaluations"] > 0
    assert num["deviation"] < 1e-6 and num["det_deviation"] < 1e-6
    got = [complex(*ev) for ev in num["eigenvalues"]]
    want = [complex(*ev) for ev in payload["predicted_eigenvalues"]]
    assert len(got) == len(want) == 2
    for one, other in ((got, want), (want, got)):
        assert all(min(abs(a - b) for b in other) < 1e-6 for a in one)


def test_cli_equiv_emit_g(capsys):
    """G = (lambda, mu) pairs with the special gauge map (chi, tau) of a
    real member as its conjugate: lambda = conj(chi) and mu = conj(tau)."""
    code = cli.main(["equiv", "--family", "2,1", "--degree", "24",
                     "--emit", "chi,tau,G"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["G"]) == {"f", "g"}
    lam, mu = (TruncSeries1.from_json(payload["G"][k]) for k in ("f", "g"))
    assert lam.trunc > 0 and mu.trunc > 0
    assert lam == TruncSeries1.from_json(payload["chi"]).conj()
    assert mu == TruncSeries1.from_json(payload["tau"]).conj()


def test_cli_main_run_deterministic(tmp_path, capsys):
    args = ["run", "--family", "2,2", "--checks", "monodromy,growth",
            "--rect", "6,12", "--degree", "24"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["version"] == 1
    checks = payload["runs"][0]["checks"]
    assert checks["monodromy"]["trivial"] is True
    assert checks["growth"]["terminated"] is True


def test_cli_run_flagship_example(capsys):
    args = ["run", "--family", "2,1", "--rect", "6,12", "--degree", "30",
            "--checks", "roundtrip,reality,map,coupled,tangency,monodromy"]
    assert cli.main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    checks = payload["runs"][0]["checks"]
    assert all(entry["pass"] for entry in checks.values())
    assert checks["monodromy"]["trivial"] is False


def test_cli_build_ode(capsys):
    assert cli.main(["build-ode", "--family", "2,1", "--degree", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 2
    assert payload["P"]["coeffs"][0] == "2i"
    assert payload["Q"]["coeffs"][2] == "1"


def test_cli_build_ode_explicit_polynomials(capsys):
    code = cli.main(["build-ode", "--m", "2", "--a", "1*w^0", "--b", "1*w^2",
                     "--degree", "12"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["P"]["coeffs"][1] == "-2"


def test_cli_build_ode_leading_minus_in_the_equals_form(capsys):
    """--a=-1/2*w^0 passes a polynomial with a leading minus as the value;
    as a separate word argparse reads it as an option."""
    code = cli.main(["build-ode", "--m", "2", "--a=-1/2*w^0", "--b", "1*w^2",
                     "--degree", "4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["P"]["coeffs"][:2] == [
        "-1i", "-2"]
    assert cli.main(["build-ode", "--m", "2", "--a", "-1/2*w^0", "--b",
                     "1*w^2", "--degree", "4"]) == 2


def test_cli_segre_emit(capsys):
    code = cli.main(["segre", "--family", "2,0", "--rect", "4,8",
                     "--degree", "16", "--emit", "psi,rho,hk"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rect"] == [4, 8]
    assert payload["psi"]["trunc"] == [4, 8]
    assert payload["sign"] == 1
    assert "2" in payload["hk"]


def test_cli_equiv_verify(capsys):
    code = cli.main(["equiv", "--family", "2,1", "--rect", "4,8",
                     "--degree", "24", "--emit", "chi,tau",
                     "--verify", "ode,coupled"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verify"]["ode"]["pass"] is True
    assert payload["verify"]["coupled"]["pass"] is True
    assert payload["chi"]["coeffs"][0] == "1"


def test_cli_autovec(monkeypatch, capsys):
    """The field is built once, for the output and the tangency check."""
    built = []

    def counted(pair):
        built.append(pair)
        return build_vector_field(pair)

    monkeypatch.setattr(cli, "build_vector_field", counted)
    code = cli.main(["autovec", "--family", "2,1", "--rect", "4,8",
                     "--degree", "24", "--check", "tangency,lambda"])
    assert code == 0
    assert len(built) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tangency"]["pass"] is True
    assert payload["lambda"]["pass"] is True
    assert payload["field"]["B"]["coeffs"][2] == "1"


def test_cli_growth_family(capsys):
    code = cli.main(["growth", "--family", "2,1", "--window", "32,180"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terminated"] is False
    assert 0.8 <= payload["gevrey"] <= 1.2


def test_cli_growth_series_file(tmp_path, capsys):
    from segreode import formal_solutions
    path = tmp_path / "series.json"
    path.write_text(json.dumps(formal_solutions(2, 2, 30).f.to_json()))
    code = cli.main(["growth", "--series", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terminated"] is True
    assert payload["termination_degree"] == 1


@pytest.mark.parametrize("content", [
    json.dumps({"pole": 0, "trunc": 2, "coeffs": [[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]]}),
    '{"pole": 0, "trunc": 2, "coeffs": ["1", ',
    json.dumps([1, 2, 3]),
])
def test_cli_growth_series_file_rejected(tmp_path, capsys, content):
    """Float [re, im] cells, bad JSON and a wrong shape exit 2 with one line."""
    path = tmp_path / "series.json"
    path.write_text(content)
    assert cli.main(["growth", "--series", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_growth_series_file_missing(tmp_path, capsys):
    assert cli.main(["growth", "--series", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_monodromy_check_beta_minus_4(capsys):
    assert cli.main(["run", "--family", "2,-4", "--checks", "monodromy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["checks"]["monodromy"]["pass"] is True


def test_cli_monodromy_exact_only(capsys):
    code = cli.main(["monodromy", "--family", "2,2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trivial"] is True
    assert payload["integer_eigenvalues"] == [2, -1]


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "families": [[2, "0"]],
        "checks": ["growth"],
        "rect": [6, 12],
        "degree": 24,
    }))
    out_path = tmp_path / "report.json"
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["runs"][0]["checks"]["growth"]["pass"] is True
    # flag overrides file checks
    code = cli.main(["run", "--config", str(cfg_path), "--checks", "monodromy"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "monodromy" in payload["runs"][0]["checks"]
    assert "growth" not in payload["runs"][0]["checks"]


def test_cli_config_file_values_reach_the_pipeline(tmp_path, monkeypatch):
    """With no flag but --config, the file's degree, rect, radius and tol
    stand: run's flags default to unset, not to their own defaults."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "families": [[2, "1"]], "degree": 24, "rect": [6, 12],
        "radius": 0.5, "tol": 1e-8,
    }))
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return {"version": cli.REPORT_VERSION, "runs": []}, 0

    monkeypatch.setattr(cli, "run_pipeline", capture)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    [cfg] = seen
    assert (cfg.degree, cfg.rect, cfg.radius, cfg.tol) == \
        (24, [6, 12], 0.5, 1e-8)
    assert cfg.checks == list(cli.CHECKS) and cfg.jobs == 1


def test_cli_exit_code_2_on_bad_usage(capsys):
    assert cli.main(["run", "--family", "nope"]) == 2
    capsys.readouterr()
    assert cli.main(["run", "--family", "2,1", "--checks", "bogus"]) == 2
    capsys.readouterr()
    assert cli.main(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_cli_check_command(capsys):
    code = cli.main(["check", "--family", "2,1", "--rect", "4,8",
                     "--degree", "16"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    checks = payload["runs"][0]["checks"]
    assert set(checks) == {"roundtrip", "reality", "realty"}
    assert all(entry["pass"] for entry in checks.values())


def test_cli_growth_series_file_too_sparse(tmp_path, capsys):
    """A file whose fit window holds fewer than 8 nonzero coefficients is a
    usage error: exit 2 with one line, no traceback."""
    coeffs = ["0"] * 21
    for k in (1, 10, 20):
        coeffs[k] = "1"
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"pole": 0, "trunc": 20, "coeffs": coeffs}))
    assert cli.main(["growth", "--series", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_growth_inverted_window_rejected_before_work(monkeypatch, capsys):
    def no_work(*_):
        raise AssertionError("formal solutions computed for a bad window")

    monkeypatch.setattr(cli, "formal_solutions", no_work)
    monkeypatch.setattr(cli, "formal_f", no_work)
    assert cli.main(["growth", "--family", "2,1", "--window", "50,10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--family", "2,1", "--rect", "0,5"],
    ["check", "--family", "2,1", "--rect", "4,0"],
    ["check", "--family", "2,1", "--degree", "-1"],
    ["run", "--family", "2,1", "--rect", "0,5"],
    ["run", "--family", "2,1", "--jobs", "0"],
    ["run", "--family", "2,1", "--jobs", "-3"],
])
def test_cli_bad_shape_or_jobs_rejected_before_work(monkeypatch, capsys, argv):
    def no_work(*_):
        raise AssertionError("work started on a rejected configuration")

    monkeypatch.setattr(cli, "solve_psi", no_work)
    monkeypatch.setattr(cli, "beta_family", no_work)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _starve(monkeypatch, name):
    """Make the library call ``cli.<name>`` run out of terms."""
    def starved(*_):
        raise TruncationStarvation(f"{name} ran out of terms")

    monkeypatch.setattr(cli, name, starved)


def test_cli_check_library_error_is_a_failed_check(monkeypatch, capsys):
    """A check that cannot finish is a failed verdict (exit 1), as in run."""
    _starve(monkeypatch, "extract_pq")
    code = cli.main(["check", "--family", "2,1", "--rect", "4,8",
                     "--degree", "16", "--checks", "roundtrip"])
    assert code == 1
    entry = json.loads(capsys.readouterr().out)["runs"][0]["checks"]["roundtrip"]
    assert entry["pass"] is False and entry["error"]


@pytest.mark.parametrize("cpus, jobs, pool_sizes", [(1, 4, []), (2, 8, [2])])
def test_run_pipeline_caps_pool_at_cpu_count(monkeypatch, cpus, jobs,
                                             pool_sizes):
    sizes = []

    class FakePool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "Pool", FakePool)
    cfg = RunConfig(families=[(2, Fraction(b)) for b in (1, 2, 3)],
                    checks=["model0"], degree=24, rect=(6, 12), jobs=jobs)
    _, code = run_pipeline(cfg)
    assert code == 0
    assert sizes == pool_sizes


def test_cli_selfmap_degree_zero_is_not_a_pass(capsys):
    """Zero probe stages verify nothing: not applicable, not a pass."""
    code = cli.main(["run", "--family", "2,1", "--checks", "selfmap",
                     "--degree", "0"])
    assert code == 0
    entry = json.loads(capsys.readouterr().out)["runs"][0]["checks"]["selfmap"]
    assert entry["pass"] is None and entry["detail"]


@pytest.mark.parametrize("argv", [
    ["run", "--family", "2,1", "--degree", "0", "--rect", "4,8"],
    ["run", "--family", "2,1", "--degree", "0", "--checks", "selfmap,map"],
    ["run", "--family", "2,1", "--degree", "0", "--checks", "coupled"],
    ["run", "--family", "2,1", "--degree", "0", "--checks", "tangency"],
    ["check", "--family", "2,1", "--degree", "0", "--checks", "map"],
    ["equiv", "--family", "2,1", "--degree", "0", "--verify", "coupled"],
    ["autovec", "--family", "2,1", "--degree", "0", "--check", "lambda"],
])
def test_cli_degree_zero_rejected_for_gauge_checks(monkeypatch, capsys, argv):
    """map, coupled and tangency build on the gauge map, which has no terms
    at degree 0: a usage error before any work, not a failed check."""
    def no_work(*_):
        raise AssertionError("work started on a rejected configuration")

    monkeypatch.setattr(cli, "solve_psi", no_work)
    monkeypatch.setattr(cli, "beta_family", no_work)
    monkeypatch.setattr(cli, "formal_solutions", no_work)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree 0") and err.count("\n") == 1


def _check_error(name, ctx):
    """The library error a check (or the vector field of autovec) stops on
    at ctx's shape, or None when it runs through and passes."""
    if name == "autovec":
        try:
            cli.build_vector_field(ctx.solutions())
        except cli.LIBRARY_ERRORS as exc:
            return str(exc)
        return None
    entry = cli.run_check(name, ctx)
    assert entry.get("error") or entry["pass"] is True, entry
    return entry.get("error")


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", list(cli.SHAPE_MINIMA))
def test_shape_minima_are_where_the_library_raises(name, m):
    """Each minimum of SHAPE_MINIMA is the least value its check works on,
    on the beta = 0 member of order m: one below it the check's library call
    raises, and at it the check passes."""
    base = {"degree": 24, "Nx": 4, "Ny": 8}
    for what, least in cli.SHAPE_MINIMA[name](m, 4, 8).items():
        for value in (least - 1, least):
            shape = dict(base, **{what: value})
            if min(shape["Nx"], shape["Ny"]) < 1:
                continue
            ctx = cli.FamilyContext(m, beta=Fraction(0), degree=shape["degree"],
                                    rect=(shape["Nx"], shape["Ny"]))
            error = _check_error(name, ctx)
            assert (error is not None) == (value < least), (what, value, error)


@pytest.mark.parametrize("argv, message", [
    (["run", "--family", "2,1", "--degree", "10", "--checks", "map"],
     "degree 10 is too small for map: it needs degree >= 24 at m = 2"),
    (["run", "--family", "2,1", "--degree", "8", "--checks", "tangency"],
     "degree 8 is too small for tangency: it needs degree >= 9 at m = 2"),
    (["run", "--family", "5,1", "--degree", "5", "--checks", "coupled"],
     "degree 5 is too small for coupled: it needs degree >= 6 at m = 5"),
    (["run", "--family", "2,0", "--rect", "2,24", "--checks", "reality"],
     "rect 2,24 is too small for reality: it needs Nx >= 3 at m = 2"),
    (["run", "--family", "3,0", "--rect", "8,2", "--checks", "model0"],
     "rect 8,2 is too small for model0: it needs Ny >= 3 at m = 3"),
    (["run", "--family", "3,0", "--rect", "8,1", "--checks", "roundtrip"],
     "rect 8,1 is too small for roundtrip: it needs Ny >= 2 at m = 3"),
    (["run", "--family", "2,0", "--rect", "2,1", "--checks",
      "roundtrip,reality,model0"],
     "rect 2,1 is too small for roundtrip: it needs Nx >= 3 at m = 2"),
    (["run", "--family", "2,1", "--family", "3,1", "--rect", "8,2",
      "--checks", "realty"],
     "rect 8,2 is too small for realty: it needs Ny >= 3 at m = 3"),
    (["check", "--family", "2,1", "--rect", "2,5", "--checks", "roundtrip"],
     "rect 2,5 is too small for roundtrip: it needs Nx >= 3 at m = 2"),
    (["equiv", "--family", "2,1", "--degree", "1", "--verify", "coupled"],
     "degree 1 is too small for coupled: it needs degree >= 3 at m = 2"),
    (["autovec", "--family", "2,1", "--degree", "1", "--rect", "4,8"],
     "degree 1 is too small for tangency: it needs degree >= 5 at m = 2"),
    (["run", "--family", "3,1", "--degree", "3", "--checks", "coupled"],
     "degree 3 is too small for coupled: it needs degree >= 4 at m = 3"),
])
def test_cli_shape_below_a_check_minimum_is_usage_error(monkeypatch, capsys,
                                                        argv, message):
    """A degree or rectangle below what a selected check works on exits 2
    with one line naming the check and the minimum, before any work; each
    of these was a failed check (exit 1) before the rule."""
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_segre_rect_too_small_is_usage_error(capsys):
    code = cli.main(["segre", "--family", "2,1", "--rect", "1,1",
                     "--emit", "hk"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_monodromy_stiff_radius_is_usage_error(capsys):
    code = cli.main(["monodromy", "--family", "2,1", "--numeric",
                     "--radius", "0.05"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radius 0.05") \
        and captured.err.count("\n") == 1


def _forbid_work(monkeypatch):
    def no_work(*_, **__):
        raise AssertionError("work started on a rejected configuration")

    for name in ("solve_psi", "beta_data", "beta_family", "formal_solutions",
                 "formal_f", "ode_from_real_data", "residue_analysis",
                 "numeric_monodromy"):
        monkeypatch.setattr(cli, name, no_work)


@pytest.mark.parametrize("argv, config", [
    (["run", "--family", "2,1", "--checks", "monodromy", "--radius", "0.05"],
     None),
    (["run", "--family", "2,1", "--radius", "0.09"], None),
    (["run", "--family", "2,1", "--checks", "monodromy", "--radius", "inf"],
     None),
    (["run", "--checks", "growth,monodromy"],
     {"families": [[2, "1"]], "radius": 0.05}),
    (["run", "--checks", "monodromy"], {"families": [[2, "1"]], "radius": "1"}),
])
def test_cli_run_stiff_radius_rejected_before_work(monkeypatch, capsys,
                                                    tmp_path, argv, config):
    """A radius numeric_monodromy rejects (below 0.1, not finite, not a
    number) is a usage error of run when the monodromy check is selected:
    exit 2, one error line, no work."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radius") \
        and captured.err.count("\n") == 1


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_cli_monodromy_non_finite_radius_is_usage_error(capsys, radius):
    """An infinite radius would integrate forever: exit 2 before."""
    code = cli.main(["monodromy", "--family", "2,1", "--numeric",
                     "--radius", radius])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radius needs to be a finite") \
        and captured.err.count("\n") == 1


def test_run_config_radius_bound_is_the_integrators():
    cfg = RunConfig(families=[(2, Fraction(1))], checks=["monodromy"],
                    radius=MIN_RADIUS)
    cfg.validate()
    below = MIN_RADIUS * (1 - 1e-9)
    with pytest.raises(ValueError) as integrator:
        numeric_monodromy(2, 1, radius=below)
    cfg.radius = below
    with pytest.raises(ConfigError) as config:
        cfg.validate()
    assert str(config.value) == str(integrator.value)
    # the radius only matters to the monodromy check
    cfg.checks = ["roundtrip"]
    cfg.validate()


def test_cli_equiv_verify_library_error_is_a_failed_check(monkeypatch,
                                                         capsys):
    """A coupled check that runs out of terms is a failed verdict with an
    error field, exit 1, as in run and check."""
    _starve(monkeypatch, "coupled_pairing_residual")
    code = cli.main(["equiv", "--family", "2,1", "--degree", "8",
                     "--verify", "coupled"])
    assert code == 1
    entry = json.loads(capsys.readouterr().out)["verify"]["coupled"]
    assert entry["pass"] is False and entry["error"]


def test_cli_autovec_tangency_library_error_is_a_failed_check(monkeypatch,
                                                              capsys):
    _starve(monkeypatch, "tangency_check")
    code = cli.main(["autovec", "--family", "2,1", "--degree", "8",
                     "--rect", "4,8"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tangency"]["pass"] is False
    assert payload["tangency"]["error"]
    assert payload["lambda"]["pass"] is True


def test_cli_equiv_emit_library_error_is_usage_error(capsys):
    """--emit G gives no verdict: a library error there exits 2."""
    code = cli.main(["equiv", "--family", "2,1", "--degree", "1",
                     "--emit", "chi,G"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: equiv --emit at degree 1: ") \
        and captured.err.count("\n") == 1


def test_cli_autovec_field_library_error_is_usage_error(monkeypatch, capsys):
    def starved(*_):
        raise TruncationStarvation("gauge map too short for the field")

    monkeypatch.setattr(cli, "build_vector_field", starved)
    code = cli.main(["autovec", "--family", "2,1", "--degree", "8",
                     "--rect", "4,8", "--check", "lambda"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: autovec vector field at degree 8: ") \
        and captured.err.count("\n") == 1


_ONE_MEMBER = ("build-ode", "segre", "check", "equiv", "monodromy", "autovec",
               "growth")


@pytest.mark.parametrize("argv", [
    ["segre", "--family", "2,1", "--backend", "float", "--rect", "4,8",
     "--degree", "16"],
    *[[cmd, "--family", "2,1", "--jobs", "2"] for cmd in _ONE_MEMBER],
    *[[cmd, "--family", "2,1", "--family", "9,9"] for cmd in _ONE_MEMBER],
    ["monodromy", "--family", "2,1", "--degree", "-5"],
    ["monodromy", "--family", "2,1", "--rect", "x"],
    ["growth", "--family", "2,1", "--rect", "0,0"],
    *[[cmd, "--family", "2,1", flag, value]
      for cmd in ("monodromy", "growth", "equiv", "autovec")
      for flag, value in (("--m", "2"), ("--a", "1*w^0"), ("--b", "1*w^2"))],
    *[[cmd, "--family", "2,1", "--m", "3", "--a", "1*w^0", "--b", "1*w^2"]
      for cmd in ("build-ode", "segre", "check")],
    ["growth", "--series", "series.json", "--family", "2,1"],
    *[[cmd, "--family", "2,1", "--trunc", "4,8"]
      for cmd in ("build-ode", "segre", "check", "equiv", "autovec")],
])
def test_cli_flag_not_taken_rejected_before_work(monkeypatch, capsys,
                                                 tmp_path, argv):
    """A one-member command takes one --family and only the flags it reads:
    a flag it does not read, a second member, or a second source of the
    member (--family with --m/--a/--b or --series) exits 2 before any work."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text(
        json.dumps(TruncSeries1.one(4).to_json()), encoding="utf-8")
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


def test_cli_closed_pipe_keeps_exit_code():
    """A reader that closes stdout early (`| head -1`) gets no traceback on
    stderr, and the command's exit code stands."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "segreode", "build-ode", "--family", "2,1",
         "--degree", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("out", ["outdir", "absent/report.json"])
@pytest.mark.parametrize("argv", [
    *[[cmd, "--family", "2,1"] for cmd in _ONE_MEMBER],
    ["run", "--family", "2,1"],
    ["run", "--config"],
])
def test_cli_unwritable_out_rejected_before_work(monkeypatch, capsys,
                                                 tmp_path, argv, out):
    """A directory, or a file in a directory that does not exist, exits 2
    with one error line before any work, given by flag or config file."""
    (tmp_path / "outdir").mkdir()
    target = str(tmp_path / out)
    if argv[-1] == "--config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"families": [[2, "1"]], "out": target}))
        argv = argv + [str(path)]
    else:
        argv = argv + ["--out", target]
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out ") \
        and captured.err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_cli_monodromy_bad_tol_is_usage_error(capsys, tol):
    """Step-size control never settles on a NaN tolerance: exit 2 before
    integrating."""
    code = cli.main(["monodromy", "--family", "2,1", "--numeric",
                     "--tol", tol])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tol needs to be a finite") \
        and captured.err.count("\n") == 1


def test_readme_commands_parse():
    """Every segreode line of the README's bash blocks parses; none runs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    script = "\n".join(re.findall(r"```bash\n(.*?)```", text, re.S))
    commands = [shlex.split(line)[1:]
                for line in script.replace("\\\n", " ").splitlines()
                if line.startswith("segreode ")]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.mark.parametrize("argv, config", [
    (["build-ode", "--family", "0,1"], None),
    (["run", "--family", "0,1", "--checks", "roundtrip"], None),
    (["check", "--family=-1,1"], None),
    (["build-ode", "--m", "0", "--a", "1*w^0", "--b", "1*w^2"], None),
    (["check", "--m", "-1", "--a", "1*w^0", "--b", "1*w^2"], None),
    (["run"], {"families": [[0, "1"]]}),
    (["run"], {"families": [[2]]}),
    (["run"], {"families": [[2.5, "1"]]}),
    (["run"], {"families": [[2, "1"]], "rect": 5}),
    (["run"], {"families": [[2, "1"]], "checks": 5}),
    (["run"], {"families": 5}),
    (["run", "--checks", "monodromy"], {"families": [[2, "1"]], "tol": "x"}),
    (["run"], {"families": [[2, "1"]], "out": 5}),
    (["run"], {"families": [[2, "1"]], "checks": ["roundtrip"],
               "rects": [2, 4], "degree": 4}),
    (["run"], {"families": [[2, "1"]],
               "explicit": {"m": 2, "a": "1*w^0", "b": "1*w^2"}}),
])
def test_cli_bad_order_rejected_before_work(monkeypatch, capsys, tmp_path,
                                            argv, config):
    """An order m below 1, a malformed family entry, a config value of the
    wrong type or an unknown config key is a usage error: exit 2 with one
    error line, before any work."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["equiv", "--family", "2,1", "--degree", "4", "--emit", "chi,X"],
    ["autovec", "--family", "2,1", "--degree", "4", "--check", "lambda,X"],
])
def test_cli_unknown_pieces_rejected_before_work(monkeypatch, capsys, argv):
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and err.count("\n") == 1


def _counting_check(monkeypatch, name):
    """Replace check ``name`` by a passing stub; returns its call list."""
    calls = []

    def stub(ctx):
        calls.append(ctx)
        return {"pass": True, "witness": None}

    monkeypatch.setitem(cli.CHECKS, name, stub)
    return calls


def test_known_names_drops_repeats_in_order():
    assert cli._known_names(["realty", "roundtrip", "realty"], cli.CHECKS,
                            "check") == ["realty", "roundtrip"]


@pytest.mark.parametrize("argv", [
    ["check", "--family", "2,1", "--checks", "roundtrip,roundtrip"],
    ["run", "--family", "2,1", "--checks", "roundtrip,roundtrip"],
])
def test_cli_check_named_twice_runs_once(monkeypatch, capsys, argv):
    calls = _counting_check(monkeypatch, "roundtrip")
    assert cli.main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["runs"][0]["checks"]
    assert len(calls) == 1
    assert list(checks) == ["roundtrip"]


def test_cli_equiv_verify_runs_map_once(monkeypatch, capsys):
    """--verify ode and hypersurface are both the map check: it runs once
    and its entry is reported under both names."""
    calls = _counting_check(monkeypatch, "map")
    code = cli.main(["equiv", "--family", "2,1", "--emit", "",
                     "--verify", "ode,hypersurface,ode"])
    assert code == 0
    verify = json.loads(capsys.readouterr().out)["verify"]
    assert len(calls) == 1
    entry = {"pass": True, "witness": None}
    assert verify == {"ode": entry, "hypersurface": entry}


def test_cli_reality_on_rect_below_beta_degree(capsys):
    """The recovered (a, b) is compared with the member's data on the orders
    recovered, also when they stop below the degree 2m - 2 of beta*w^(2m-2)."""
    code = cli.main(["check", "--family", "3,1", "--rect", "3,3",
                     "--degree", "10", "--checks", "reality"])
    assert code == 0
    entry = json.loads(capsys.readouterr().out)["runs"][0]["checks"]["reality"]
    assert entry["pass"] is True and entry["recovered_data"] is True


def _segreode(*argv, cwd=None):
    """``segreode argv`` in a fresh interpreter, so that numpy warnings and
    tracebacks reach its stderr as they reach a user's."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "segreode", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)


def _strict_json(text):
    """json.loads as an RFC 8259 parser: NaN and Infinity are rejected."""
    def reject(constant):
        raise ValueError(f"non-finite JSON number {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    # |p| = e^{pi*sqrt(4|beta| - 1)} overflows a float below beta ~ -12760
    ["monodromy", "--family", "2,-12800"],
    ["monodromy", "--family", "2,1e310"],
    ["monodromy", "--family", "2,1", "--numeric", "--radius", "1e100"],
    ["monodromy", "--family", "2,1e300", "--numeric"],
])
def test_cli_float_overflow_is_one_error_line(argv):
    """A member or contour that overflows a float is a usage error: exit 2
    with exactly one error line, no traceback and no numpy warning."""
    proc = _segreode(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: monodromy ") \
        and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv, error", [
    (["--family", "2,-12800"],
     "monodromy eigenvalues of m = 2, beta = -12800 overflow a float"),
    (["--family", "2,1", "--radius", "1e100"],
     "monodromy integration failed"),
])
def test_cli_run_float_overflow_fails_the_check(argv, error):
    """In run, the overflow is the monodromy check's error, and the rest of
    the report stands."""
    proc = _segreode("run", *argv, "--checks", "growth,monodromy")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    checks = _strict_json(proc.stdout)["runs"][0]["checks"]
    assert checks["growth"]["pass"] is True
    assert checks["monodromy"]["pass"] is False
    assert checks["monodromy"]["error"].startswith(error)


@pytest.mark.parametrize("argv, path", [
    (["run", "--family", "2,-10000", "--checks", "monodromy"],
     ("runs", 0, "checks", "monodromy", "det_deviation")),
    (["monodromy", "--family", "2,-10000", "--numeric"],
     ("numeric", "det_deviation")),
])
def test_cli_overflowing_deviation_is_null_in_strict_json(argv, path):
    """For beta = -10000 the monodromy matrix's determinant overflows: the
    command writes no numpy warning, and the infinite deviation as null;
    in run the monodromy check fails on it (exit 1), and its witness names
    the determinant."""
    code = 1 if argv[0] == "run" else 0
    proc = _segreode(*argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    value = _strict_json(proc.stdout)
    for key in path:
        value = value[key]
    assert value is None
    if code:
        check = _strict_json(proc.stdout)["runs"][0]["checks"]["monodromy"]
        assert check["pass"] is False
        assert check["witness"]["det_deviation"] is None


@pytest.mark.parametrize("member, code", [("2,-4000", 1), ("3,-1", 0)])
def test_monodromy_check_and_grid_script_give_one_verdict(capsys, member,
                                                          code):
    """run's monodromy check and scripts/monodromy_grid.py read one verdict:
    (2, -4000), whose determinant overflows, fails in both, and (3, -1), a
    nontrivial Jordan block, passes in both."""
    m, beta = member.split(",")
    assert _exit_code(["run", "--family", member, "--checks", "monodromy"]) \
        == code
    check = _strict_json(capsys.readouterr().out)["runs"][0]["checks"][
        "monodromy"]
    assert check["pass"] is (code == 0) and check["trivial"] is False
    assert _exit_code(["monodromy_grid.py", "--m", m, "--beta-min", beta,
                       "--beta-max", beta]) == code


def test_cli_growth_of_a_fast_decaying_series_has_null_radius(tmp_path):
    """c_k = 10^(-310k): the Cauchy-Hadamard radius exp(310k*log(10)/k)
    overflows a float; growth reports it as null, an infinite radius."""
    coeffs = {0: QI(1)}
    coeffs.update((k, QI(1, 0, 10 ** (310 * k))) for k in range(1, 13))
    series = TruncSeries1.from_terms(coeffs, 12)
    (tmp_path / "f.json").write_text(json.dumps(series.to_json()))
    proc = _segreode("growth", "--series", "f.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = _strict_json(proc.stdout)
    assert out["terminated"] is False and out["radius"] is None


def test_round_floats_maps_non_finite_to_none():
    assert cli._round_floats({"a": [math.inf, -math.inf, math.nan, 0.1 + 0.2],
                              "b": (1, "x")}) == \
        {"a": [None, None, None, 0.3], "b": [1, "x"]}


# ---------------------------------------------------------------------------
# the CLI contract on any argv
# ---------------------------------------------------------------------------

# flag -> (valid values, odd values); {tmp} is the example's own directory
_FLAG_VALUES = {
    "--family": (["2,0", "2,1", "2,-1/3", "3,2", "3,5/2", "4,1"],
                 ["2,2/0", "2,-12800", "2,1 ", "1,1", "0,1", "2", "x,1"]),
    "--degree": ([str(d) for d in range(4, 13)], ["-2", "-1", "0", "1", "x"]),
    "--rect": (["3,3", "3,4", "4,6", "6,10"], ["0,5", "5,0", "1,1", "6", "x"]),
    "--radius": (["1", "0.5", "2.5"], ["nan", "inf", "0", "-1", "0.05"]),
    "--tol": (["1e-10", "1e-8"], ["nan", "inf", "0", "-1e-10"]),
    "--jobs": (["1", "2"], ["-1", "0"]),
    "--sign": (["1", "-1"], ["0"]),
    "--m": (["2", "3"], ["0", "1", "x"]),
    "--a": (["1*w^0", "1*w^0+1/2*w^2"],
            ["1*w^99", "x", "1/2*w^1", "1/0*w^0"]),
    "--b": (["1*w^2", "2/3*w^0-1*w^3"], ["1*w^99", "x"]),
    "--window": (["4,12", "10,100"], ["50,10", "x", "3"]),
    "--out": (["{tmp}/out.json"], ["{tmp}", "{tmp}/none/out.json"]),
    "--series": (["{tmp}/f.json"], ["{tmp}/absent.json", "{tmp}/bad.json"]),
    "--config": (["{tmp}/cfg.json"], ["{tmp}/absent.json", "{tmp}/bad.json"]),
}
# (command, flag) -> the names its comma list draws from
_FLAG_LISTS = {
    ("check", "--checks"): list(cli.CHECKS),
    ("run", "--checks"): list(cli.CHECKS),
    ("segre", "--emit"): ["psi", "rho", "hk"],
    ("equiv", "--emit"): ["chi", "tau", "G"],
    ("equiv", "--verify"): ["ode", "hypersurface", "coupled"],
    ("autovec", "--check"): ["tangency", "lambda"],
}
# run --config key -> (valid values, odd values)
_CONFIG_VALUES = {
    "families": ([[[2, "1"]], [[3, "5/2"], [2, "0"]]],
                 [5, [[2]], [[0, "1"]], [[2, "2/0"]]]),
    "checks": ([["growth"], ["monodromy", "coupled"], ["realty", "map"]],
               ["growth", ["bogus"]]),
    "degree": ([6, 12], [-1, "x", 2.5, True]),
    "rect": ([[3, 4], [4, 6]], [5, [0, 3], "4,6"]),
    "radius": ([1.0, 0.5], [math.nan, math.inf, "1", 0.05]),
    "tol": ([1e-10, 1e-8], [math.nan, 0, -1.0]),
    "out": (["{tmp}/out.json"], ["{tmp}", 5]),
    "jobs": ([1, 2], [-1, 0, "2"]),
}
# script -> its flags' (valid values, odd values); the beta ranges stay short
_SCRIPT_VALUES = {
    "divergence_scan.py": {
        "--m": (["2", "3", "4"], ["1", "x"]),
        "--beta-min": (["-2", "0", "1"], ["x"]),
        "--beta-max": (["0", "2", "3"], ["-5"]),
        "--order": (["20", "60"], ["-3", "0", "x"]),
    },
    "monodromy_grid.py": {
        "--m": (["2", "3"], ["1", "x"]),
        "--beta-min": (["-1", "0"], ["x"]),
        "--beta-max": (["0", "2"], ["-3"]),
        "--radius": _FLAG_VALUES["--radius"],
        "--tol": _FLAG_VALUES["--tol"],
    },
    "hypersurface_from_real_data.py": {
        "--m": _FLAG_VALUES["--m"],
        "--a": _FLAG_VALUES["--a"],
        "--b": _FLAG_VALUES["--b"],
        "--rect": (["3,4", "6,10"], ["2,1", "x"]),
    },
}


def _command_flags() -> dict:
    """Each command's own flags, as its parser declares them."""
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {name: [opt for a in p._actions for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"]
            for name, p in sub.choices.items()}


_COMMAND_FLAGS = _command_flags()


def _valid_or_odd(draw, values):
    """A value from valid values seven times in eight, else an odd one."""
    valid, odd = values
    return draw(st.sampled_from(odd if draw(st.integers(0, 7)) == 0
                                else valid))


def _flag_value(draw, command, flag):
    """A value for flag: a comma list of names where the command reads one,
    mostly of its own names."""
    names = _FLAG_LISTS.get((command, flag))
    if names is None:
        return _valid_or_odd(draw, _FLAG_VALUES.get(flag, (["1"], ["x"])))
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(["bogus", "", f"{names[0]},,"]))
    return ",".join(draw(st.lists(st.sampled_from(names), min_size=1,
                                  max_size=3)))


@st.composite
def _cli_argv(draw):
    """One segreode argv and the run --config it may name, biased toward
    input the command accepts so that checks run."""
    # run, the pipeline, is drawn as often as three other commands
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS) + ["run"] * 2))
    own = _COMMAND_FLAGS[command]
    member = ("--family", "--m", "--a", "--b", "--series")
    flags = [f for f in own
             if f not in member and draw(st.integers(0, 2)) == 0]
    # the member: --family mostly, explicit data or --series otherwise
    source = draw(st.sampled_from(["--family"] * 4 + [
        f for f in ("--m", "--series") if f in own]))
    if source == "--family" or draw(st.integers(0, 7)) == 0:
        flags += ["--family"] * draw(st.sampled_from(
            [0, 1, 1, 2] if command == "run" else [1] * 7 + [2]))
    flags += {"--m": ["--m", "--a", "--b"], "--series": ["--series"]}.get(
        source, [])
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(
            {f for fs in _COMMAND_FLAGS.values() for f in fs} - set(own)))))
    argv = [command]
    for flag in flags:
        argv += [flag] if flag == "--numeric" \
            else [flag, _flag_value(draw, command, flag)]
    config = {}
    if "--config" in argv:
        config = {key: _valid_or_odd(draw, values)
                  for key, values in _CONFIG_VALUES.items()
                  if draw(st.integers(0, 2)) == 0}
        if draw(st.integers(0, 9)) == 0:
            config["bogus"] = 1
    return argv, config


@st.composite
def _script_argv(draw):
    """One argv of a README example script, by its file name."""
    script = draw(st.sampled_from(sorted(_SCRIPT_VALUES)))
    argv = [script]
    for flag, values in _SCRIPT_VALUES[script].items():
        # the range flags and the required ones are mostly given
        if draw(st.integers(0, 7)):
            argv += [flag, _valid_or_odd(draw, values)]
    return argv, {}


@functools.lru_cache(maxsize=None)
def _script_main(name):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        name[:-3], root / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _exit_code(argv) -> int:
    """The exit code of a segreode argv, or of a script's by its name."""
    if not argv[0].endswith(".py"):
        return cli.main(argv)
    saved, sys.argv = sys.argv, argv
    try:
        return _script_main(argv[0])()
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved


def _strict_report(code, out, tmp):
    """The report of an exit 0 or 1, on stdout or in the --out file, read as
    strict JSON; a run report's exit code follows its checks."""
    if out == "":
        out = (Path(tmp) / "out.json").read_text(encoding="utf-8")
    report = _strict_json(out)
    if "runs" in report:
        assert code == cli.exit_code(
            e for run in report["runs"] for e in run["checks"].values())


@settings(max_examples=300, deadline=5000)
@given(st.integers(0, 4).flatmap(
    lambda k: _script_argv() if k == 0 else _cli_argv()))
@example((["build-ode", "--m", "2", "--a", "1/0*w^0", "--b", "1*w^2"], {}))
@example((["hypersurface_from_real_data.py", "--m", "2", "--a", "1/0*w^0",
           "--b", "1*w^2"], {}))
def test_cli_contract_holds_on_any_argv(case):
    """On any argv of the eight commands and the three scripts, and any run
    --config file: exit 0, 1, 2 or 3 with no traceback and no warning; an
    exit 2 prints one error: line, after argparse's usage block if any; a
    command's exit 0 or 1 writes strict JSON."""
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        config = {k: v.replace("{tmp}", tmp) if isinstance(v, str) else v
                  for k, v in config.items()}
        Path(tmp, "cfg.json").write_text(json.dumps(config))
        Path(tmp, "bad.json").write_text('{"pole": 0, "trunc": ')
        Path(tmp, "f.json").write_text(json.dumps(
            TruncSeries1.from_terms({k: QI(1, 0, k + 1) for k in range(41)},
                                    40).to_json()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _exit_code(argv)
        out, err = out.getvalue(), err.getvalue()
        event(f"{argv[0]} exits {code}")
        assert code in (0, 1, 2, 3), (code, err)
        assert caught == [] and "Traceback" not in err \
            and "Warning" not in err, err
        if code == 2:
            *usage, last = err.splitlines()
            assert "error:" in last and "error:" not in "".join(usage), err
            assert not usage or usage[0].startswith("usage: ") and all(
                line.startswith(" ") for line in usage[1:]), err
        if code in (0, 1) and not argv[0].endswith(".py"):
            _strict_report(code, out, tmp)
