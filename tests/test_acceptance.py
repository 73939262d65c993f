"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion NN] name: PASS/FAIL` line; tolerances
are pinned here and nowhere else.  Identity checks run in exact arithmetic
with zero tolerance; only the contour integration and the growth fit carry
numeric tolerances (1e-6 eigenvalue deviation, Gevrey order in [0.8, 1.2]).
"""

import time
from fractions import Fraction

import pytest

from segreode import (
    QI,
    AdmissibleOde,
    GaugeMap,
    TruncSeries1,
    beta_family,
    build_chi_tau,
    build_rho,
    build_vector_field,
    check_real_structure,
    coupled_map_g,
    explicit_model,
    extract_pq,
    formal_solutions,
    gevrey_estimate,
    numeric_monodromy,
    pullback_under_gauge,
    real_structure_test,
    realty_identity_check,
    residue_analysis,
    self_map_probe,
    solve_psi,
    straightening_check,
    tangency_check,
    termination_detect,
    verify_map_on_hypersurface,
)

RECT = (8, 24)
GRID = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def grid_artifacts():
    out = {}
    for m, beta in GRID:
        ode = beta_family(m, beta, RECT[0] + RECT[1] + 2 * m + 2)
        start = time.perf_counter()
        fam = solve_psi(ode, +1, RECT)
        p, q = extract_pq(fam)
        elapsed = time.perf_counter() - start
        out[(m, beta)] = {
            "ode": ode, "family": fam, "p": p, "q": q,
            "hyper": build_rho(fam), "seconds": elapsed,
        }
    return out


def test_criterion_01_roundtrip_exactness(grid_artifacts):
    ok = True
    slowest = 0.0
    for (m, beta), art in grid_artifacts.items():
        e = art["ode"]
        ok = ok and art["p"] == e.p and art["q"] == e.q
        ok = ok and art["p"].trunc >= RECT[1] and art["q"].trunc >= RECT[1]
        slowest = max(slowest, art["seconds"])
    ok = ok and slowest < 10.0
    _criterion(1, "round-trip exactness on {2,3}x{0,1,2} at (8,24)", ok,
               f"slowest member {slowest:.2f}s")


def test_criterion_02_reality_triple_check(grid_artifacts):
    ok = True
    for (m, beta), art in grid_artifacts.items():
        ok = ok and real_structure_test(art["family"]).ok
        ok = ok and realty_identity_check(art["hyper"]).is_zero
        recovered = check_real_structure(AdmissibleOde(m, art["p"], art["q"]))
        ok = ok and recovered.ok
        if recovered.ok:
            a_ref = TruncSeries1.one(recovered.a.trunc)
            b_ref = TruncSeries1.monomial(beta, 2 * m - 2, recovered.b.trunc)
            ok = ok and recovered.a == a_ref and recovered.b == b_ref
    _criterion(2, "reality triple check on the grid", ok)


def test_criterion_03_gauge_equivalence_mechanized():
    ok = True
    orders = []
    for beta in (1, 2, 3):
        gauge = build_chi_tau(formal_solutions(2, beta, 40))
        pulled = pullback_under_gauge(beta_family(2, 0, 48), gauge, 2)
        target = beta_family(2, beta, 48)
        orders.append(pulled.trunc)
        ok = ok and pulled.trunc >= 20
        ok = ok and pulled.p == target.p and pulled.q == target.q
    _criterion(3, "divergent gauge map pulls beta=0 back onto the family", ok,
               f"verified orders {orders}")


def test_criterion_04_hypersurface_map_and_coupling(grid_artifacts):
    gauge = build_chi_tau(formal_solutions(2, 1, 40))
    res = verify_map_on_hypersurface(grid_artifacts[(2, 1)]["hyper"], 2, gauge)
    ok = res.rect == RECT and res.is_zero
    paired = coupled_map_g(gauge, 2)
    ok = ok and paired.f == gauge.f.conj() and paired.g == gauge.g.conj()
    _criterion(4, "hypersurface map residual and conjugate coupling", ok,
               f"rect {res.rect}")


def test_criterion_05_monodromy():
    ok = True
    for m in (2, 3):
        reference = {l * (l - m + 1) for l in range(-12, 13)
                     if (2 * l - m + 1) % (2 * m - 2)}
        for beta in range(-3, 7):
            ok = ok and residue_analysis(m, beta).trivial == (beta in reference)
    slowest = 0.0
    worst_dev = 0.0
    for beta in (0, 1, 2):
        start = time.perf_counter()
        num = numeric_monodromy(2, beta, radius=1.0, tol=1e-10)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        worst_dev = max(worst_dev, num.deviation)
        ok = ok and num.deviation < 1e-6 and elapsed < 5.0
    _criterion(5, "monodromy classification and numeric eigenvalues", ok,
               f"max deviation {worst_dev:.2e}, slowest {slowest:.2f}s")


def test_criterion_06_tangency(grid_artifacts):
    ok = True
    for beta in (0, 1):
        field = build_vector_field(formal_solutions(2, beta, 40))
        res = tangency_check(field, grid_artifacts[(2, beta)]["hyper"])
        ok = ok and res.is_zero
    field1 = build_vector_field(formal_solutions(2, 1, 40))
    mismatch = tangency_check(field1, grid_artifacts[(2, 0)]["hyper"])
    witness = mismatch.first_nonzero()
    ok = ok and witness is not None
    _criterion(6, "infinitesimal automorphism tangency", ok,
               f"mismatch witness at {witness[0] if witness else None}")


def test_criterion_07_explicit_model(grid_artifacts):
    model = explicit_model(2, RECT)
    built = grid_artifacts[(2, 0)]["hyper"]
    ok = model.rho.rect == RECT and built.rho.rect == RECT
    ok = ok and model.rho == built.rho
    row2 = model.rho.row(2)
    ok = ok and row2 == TruncSeries1.from_terms({2: QI(0, 1), 3: -1},
                                                row2.trunc)
    _criterion(7, "closed-form model equals the solved beta=0 surface", ok)


def test_criterion_08_divergence_diagnostics():
    ok = True
    for beta in (0, 2, 6, 12, 20, 30):
        ok = ok and termination_detect(formal_solutions(2, beta, 64).f).terminated
    for beta in (1, 3, 5, 7):
        ok = ok and not termination_detect(formal_solutions(2, beta, 64).f).terminated
    report = gevrey_estimate(formal_solutions(2, 1, 200).f)
    ok = ok and 0.8 <= report.gevrey <= 1.2
    _criterion(8, "termination grid and Gevrey order of the divergent series",
               ok, f"gevrey {report.gevrey:.3f}")


def test_criterion_09_rigidity_probe():
    report = self_map_probe(beta_family(2, 0, 26), 12)
    ok = report.rigid
    _criterion(9, "self-map probe reports rigidity at every degree", ok,
               f"verified to order {report.verified_order}")


def test_criterion_10_straightening_identity():
    ok = all(straightening_check(m).ok for m in (2, 3, 4))
    _criterion(10, "straightening-map Laurent identity", ok)
