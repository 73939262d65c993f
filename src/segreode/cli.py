"""Command-line front end: build family members, run verification pipelines
over (m, beta) grids, and emit deterministic JSON reports with coefficient
witnesses on failure.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 configuration/usage error, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from multiprocessing import Pool

from .coefficients import QI
from .growth import diagnose, expected_termination, termination_order
from .monodromy import check_contour, numeric_monodromy, residue_analysis
from .ode import (
    AdmissibleOde,
    GaugeMap,
    RealData,
    beta_data,
    beta_family,
    check_real_structure,
    ode_from_real_data,
    pullback_under_gauge,
)
from .autovec import (
    VectorFieldRep,
    build_vector_field,
    explicit_model,
    straightening_check,
    tangency_check,
)
from .equiv import (
    build_chi_tau,
    coupled_map_g,
    coupled_pairing_residual,
    formal_f,
    formal_solutions,
    self_map_probe,
    verify_map_on_hypersurface,
)
from .segre import (
    build_rho,
    extract_pq,
    real_normal_form,
    real_structure_test,
    realty_identity_check,
    solve_psi,
)
from .series import SeriesError, TruncSeries1

REPORT_VERSION = 1

# checks that apply only to a beta-family member of order m >= 2
BETA_M2_CHECKS = frozenset(
    ("map", "coupled", "monodromy", "tangency", "model0", "growth"))

_POLY_TERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)\s*\*\s*w\^(\d+)\s*")


class ConfigError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational {text!r}") from exc


def parse_family(text: str):
    """'m,beta' -> (m, beta) with beta rational (e.g. '2,1' or '3,-1/2')."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"family spec must be 'm,beta', got {text!r}")
    try:
        m = int(parts[0])
    except ValueError as exc:
        raise ConfigError(f"bad order in family spec {text!r}") from exc
    if m < 1:
        raise ConfigError(f"order m needs to be >= 1 in family spec {text!r}")
    return m, parse_rational(parts[1])


def parse_polynomial(text: str, trunc: int) -> TruncSeries1:
    """Sum of RAT*w^INT terms, e.g. '1*w^0 + 3/2*w^2 - 1*w^4'."""
    terms = {}
    pos = 0
    stripped = text.replace(" ", "")
    while pos < len(stripped):
        match = _POLY_TERM.match(stripped, pos)
        if not match:
            raise ConfigError(f"cannot parse polynomial {text!r} at {stripped[pos:]!r}")
        sign, rat, deg = match.groups()
        degree = int(deg)
        terms[degree] = terms.get(degree, 0) + parse_rational(sign + rat)
        pos = match.end()
    if max(terms, default=0) > trunc:
        raise ConfigError(
            f"polynomial degree {max(terms)} exceeds truncation {trunc}"
        )
    return TruncSeries1.from_terms(
        {d: QI.of(v) for d, v in terms.items()}, trunc
    )


def parse_rect(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"rectangle must be 'Nx,Ny', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad rectangle {text!r}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the least degree, Nx and Ny a check (or the vector field of autovec)
# works on, for order m and rectangle (nx, ny): below them the library call
# named beside it raises.  Building rho needs Ny >= m (Hypersurface reads
# its eta^m term); chi is known to the degree, tau to degree + m.
SHAPE_MINIMA = {
    # extract_pq reads psi_3, and w^{m-1} to eta-order Ny
    "roundtrip": lambda m, nx, ny: {"Nx": 3, "Ny": m - 1},
    # extract_pq, and dual_family's eta-shift by m - 1
    "reality": lambda m, nx, ny: {"Nx": 3, "Ny": m},
    "realty": lambda m, nx, ny: {"Ny": m},
    # verify_map_on_hypersurface truncates conj(chi) to eta-order Ny
    "map": lambda m, nx, ny: {"Ny": m, "degree": ny},
    # coupled_pairing_residual is known to the degree, and w^m is normalized
    "coupled": lambda m, nx, ny: {"degree": m + 1},
    # tangency_check composes A = w^m*f'*u, known to degree - 1, with rho
    "tangency": lambda m, nx, ny: {"Ny": m, "degree": nx + 1},
    "model0": lambda m, nx, ny: {"Ny": m},
    # build_vector_field truncates A to degree - 1
    "autovec": lambda m, nx, ny: {"degree": 1},
}


def _validate_degree(degree) -> None:
    if not _is_int(degree) or degree < 0:
        raise ConfigError(f"degree needs to be an integer >= 0, got {degree!r}")


def validate_shape(rect, degree, checks, m: int) -> None:
    """Reject a rectangle or degree that no stage, or one of ``checks`` on
    a member of order up to ``m``, can work on, before any work."""
    if (not isinstance(rect, (list, tuple)) or len(rect) != 2
            or not all(_is_int(n) for n in rect) or min(rect) < 1):
        raise ConfigError(f"rectangle needs Nx, Ny >= 1, got {rect!r}")
    _validate_degree(degree)
    nx, ny = rect
    have = {"degree": degree, "Nx": nx, "Ny": ny}
    for name in [c for c in checks if c in SHAPE_MINIMA]:
        for what, least in SHAPE_MINIMA[name](m, nx, ny).items():
            if have[what] < least:
                shape = f"degree {degree}" if what == "degree" \
                    else f"rect {nx},{ny}"
                raise ConfigError(f"{shape} is too small for {name}: it "
                                  f"needs {what} >= {least} at m = {m}")


def _known_names(names, known, what: str) -> list:
    """``names`` as a list without repeats, in their order, once each is
    found among ``known``."""
    if (not isinstance(names, (list, tuple))
            or not all(isinstance(name, str) for name in names)):
        raise ConfigError(f"expected a list of {what} names, got {names!r}")
    for name in names:
        if name not in known:
            raise ConfigError(
                f"unknown {what} {name!r}; known: {', '.join(known)}")
    return list(dict.fromkeys(names))


def _validate_out(out) -> None:
    """Reject a report file that cannot be written, before any work; no
    file (None or "") means stdout."""
    if out is None or out == "":
        return
    if not isinstance(out, str):
        raise ConfigError(f"out needs a file name, got {out!r}")
    target = out if os.path.exists(out) else os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out) or not os.access(target, os.W_OK):
        raise ConfigError(f"out {out!r} is not a writable file")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    families: list = field(default_factory=list)   # (m, Fraction) pairs
    explicit: dict | None = None                   # {"m":…, "a":…, "b":…}
    checks: list = field(default_factory=lambda: list(CHECKS))
    degree: int = 40
    rect: tuple = (8, 24)
    radius: float = 1.0
    tol: float = 1e-10
    out: str | None = None
    jobs: int = 1

    def validate(self):
        """Check every value, whether it came from a flag or a config file,
        before any work; family entries become (m, Fraction) pairs."""
        if (not isinstance(self.families, (list, tuple))
                or not all(isinstance(f, (list, tuple)) and len(f) == 2
                           for f in self.families)):
            raise ConfigError(
                f"families needs a list of [m, beta] pairs, got {self.families!r}")
        self.families = [parse_family(f"{m},{beta}") for m, beta in self.families]
        self.checks = _known_names(self.checks, CHECKS, "check")
        if not self.families and self.explicit is None:
            raise ConfigError("no family members selected")
        orders = [m for m, _ in self.families]
        if self.explicit is not None:
            orders.append(self.explicit["m"])
        validate_shape(self.rect, self.degree, self.checks, max(orders))
        self.rect = tuple(self.rect)
        if not _is_int(self.jobs) or self.jobs < 1:
            raise ConfigError(f"jobs needs to be an integer >= 1, got {self.jobs!r}")
        _validate_out(self.out)
        if "monodromy" in self.checks:
            try:
                check_contour(self.radius, self.tol)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


def config_from_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


# ---------------------------------------------------------------------------
# per-family lazily computed artifacts
# ---------------------------------------------------------------------------


def _working_order(m: int, rect: tuple, degree: int) -> int:
    """The truncation of the ODE data a member's stages are built from."""
    return max(rect[0] + rect[1] + 2 * m + 2, degree + 2 * m + 10)


class FamilyContext:
    """Caches the chain ODE -> profile -> defining series -> gauge map ->
    vector field for one family member."""

    def __init__(self, m: int, beta: Fraction | None = None,
                 data: RealData | None = None, degree: int = 40,
                 rect: tuple = (8, 24), radius: float = 1.0,
                 tol: float = 1e-10):
        if (beta is None) == (data is None):
            raise ConfigError("exactly one of beta or explicit data is needed")
        self.m = m
        self.beta = beta
        self.degree = degree
        self.rect = rect
        self.radius = radius
        self.tol = tol
        self.work = _working_order(m, rect, degree)
        # the member's real data (a, b); a beta-family member's is built here
        self.data = data if data is not None else beta_data(m, beta, self.work)
        self._cache: dict = {}

    def label(self):
        if self.beta is not None:
            return [self.m, str(self.beta)]
        return {"m": self.m, "explicit": True}

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def ode(self) -> AdmissibleOde:
        return self._cached("ode", lambda: ode_from_real_data(self.data))

    def family(self):
        return self._cached("family", lambda: solve_psi(self.ode(), +1, self.rect))

    def hyper(self):
        return self._cached("hyper", lambda: build_rho(self.family()))

    def zero_ode(self) -> AdmissibleOde:
        return self._cached("zero_ode", lambda: beta_family(self.m, 0, self.work))

    def zero_hyper(self):
        return self._cached("zero_hyper",
                            lambda: explicit_model(self.m, self.rect))

    def solutions(self):
        return self._cached(
            "solutions",
            lambda: formal_solutions(self.m, self.beta, self.degree),
        )

    def chi_tau(self) -> GaugeMap:
        return self._cached("chi_tau", lambda: build_chi_tau(self.solutions()))

    def field(self) -> VectorFieldRep:
        return self._cached("field",
                            lambda: build_vector_field(self.solutions()))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _witness(diff) -> dict | None:
    """The first nonzero coefficient of a residual: its degree, or its cell
    for a bivariate one, and its value; None when the residual is zero."""
    fn = diff.first_nonzero()
    if fn is None:
        return None
    where, value = fn
    if isinstance(where, tuple):
        return {"cell": list(where), "value": str(value)}
    return {"degree": where, "value": str(value)}


def _series_eq(a, b):
    """(equal, witness) on the common truncation."""
    if hasattr(a, "trunc"):
        common = min(a.trunc, b.trunc)
        diff = a.truncate(common) - b.truncate(common)
        return diff.is_zero, _witness(diff)
    nx, ny = min(a.nx, b.nx), min(a.ny, b.ny)
    diff = a.restrict(nx, ny) - b.restrict(nx, ny)
    return diff.is_zero, _witness(diff)


def check_roundtrip(ctx: FamilyContext) -> dict:
    fam = ctx.family()
    p, q = extract_pq(fam)
    e = ctx.ode()
    ok_p, wit_p = _series_eq(p, e.p)
    ok_q, wit_q = _series_eq(q, e.q)
    return {
        "pass": ok_p and ok_q,
        "rect": list(ctx.rect),
        "p_order": min(p.trunc, e.p.trunc),
        "q_order": min(q.trunc, e.q.trunc),
        "witness": wit_p or wit_q,
    }


def check_reality(ctx: FamilyContext) -> dict:
    fam = ctx.family()
    structural = real_structure_test(fam)
    p, q = extract_pq(fam)
    coeff = check_real_structure(AdmissibleOde(ctx.m, p, q))
    recovered_ok = False
    witness = structural.witness or coeff.witness
    if coeff.ok:
        ok_a, wit_a = _series_eq(coeff.a, ctx.data.a)
        ok_b, wit_b = _series_eq(coeff.b, ctx.data.b)
        recovered_ok = ok_a and ok_b
        witness = witness or wit_a or wit_b
    return {
        "pass": structural.ok and coeff.ok and recovered_ok,
        "dual_equals_conjugated": structural.ok,
        "coefficient_test": coeff.ok,
        "recovered_data": recovered_ok,
        "witness": witness,
    }


def check_realty(ctx: FamilyContext) -> dict:
    h = ctx.hyper()
    res = realty_identity_check(h)
    detail = None
    try:
        real_normal_form(h)
    except SeriesError as exc:
        detail = str(exc)
    return {
        "pass": res.is_zero and detail is None,
        "rect": [res.nx, res.ny],
        "normal_form": detail is None,
        "detail": detail,
        "witness": _witness(res),
    }


def check_map(ctx: FamilyContext) -> dict:
    gauge = ctx.chi_tau()
    pulled = pullback_under_gauge(ctx.zero_ode(), gauge, ctx.m)
    e = ctx.ode()
    ok_p, wit_p = _series_eq(pulled.p, e.p)
    ok_q, wit_q = _series_eq(pulled.q, e.q)
    res = verify_map_on_hypersurface(ctx.hyper(), ctx.m, gauge)
    return {
        "pass": ok_p and ok_q and res.is_zero,
        "ode_order": min(pulled.trunc, e.trunc),
        "hypersurface_rect": [res.nx, res.ny],
        "witness": wit_p or wit_q or _witness(res),
    }


def check_coupled(ctx: FamilyContext) -> dict:
    gauge = ctx.chi_tau()
    witness = _witness(gauge.g - gauge.g.conj()) \
        or _witness(coupled_pairing_residual(gauge, ctx.m))
    return {"pass": witness is None, "witness": witness}


def check_selfmap(ctx: FamilyContext) -> dict:
    degree = min(12, ctx.degree)
    if degree < 1:
        return {"pass": None, "degree": degree,
                "detail": "the probe runs no stage below degree 1"}
    report = self_map_probe(ctx.ode(), degree)
    free = report.free_degrees
    return {
        "pass": report.rigid,
        "degree": degree,
        "dimensions": [int(d in free) for d in range(1, degree + 1)],
        "verified_order": report.verified_order,
        "witness": None if report.rigid else {"free_degrees": list(free)},
    }


def check_monodromy(ctx: FamilyContext) -> dict:
    num = numeric_monodromy(ctx.m, ctx.beta, ctx.radius, ctx.tol)
    exact = num.exact
    return {
        "pass": num.ok,
        "trivial": exact.trivial,
        "eigenvalue_sum": exact.eigenvalue_sum,
        "eigenvalue_product": str(exact.eigenvalue_product),
        "predicted": [[ev.real, ev.imag] for ev in exact.predicted_eigenvalues],
        "numeric_deviation": num.deviation,
        "det_deviation": num.det_deviation,
        "witness": None if num.ok else {"deviation": num.deviation,
                                        "det_deviation": num.det_deviation},
    }


def check_tangency(ctx: FamilyContext) -> dict:
    res = tangency_check(ctx.field(), ctx.hyper())
    return {
        "pass": res.is_zero,
        "rect": [res.nx, res.ny],
        "witness": _witness(res),
    }


def check_model0(ctx: FamilyContext) -> dict:
    if ctx.beta != 0:
        return {"pass": None, "detail": "closed-form model applies to beta = 0"}
    ok, wit = _series_eq(ctx.zero_hyper().rho, ctx.hyper().rho)
    return {"pass": ok, "rect": list(ctx.rect), "witness": wit}


def check_growth(ctx: FamilyContext) -> dict:
    expected = expected_termination(ctx.m, ctx.beta)
    n = termination_order(ctx.m, ctx.beta, max(200, ctx.degree))
    term, report = diagnose(formal_f(ctx.m, ctx.beta, n))
    out = {
        "pass": term.terminated == expected,
        "terminated": term.terminated,
        "termination_expected": expected,
        "termination_degree": term.degree,
        "witness": None,
    }
    if report is not None:
        out["gevrey"] = report.gevrey
        out["gevrey_stderr"] = report.gevrey_stderr
        out["radius"] = report.radius
    if term.terminated != expected:
        out["witness"] = {"terminated": term.terminated, "expected": expected}
    return out


CHECKS = {
    "roundtrip": check_roundtrip,
    "reality": check_reality,
    "realty": check_realty,
    "map": check_map,
    "coupled": check_coupled,
    "selfmap": check_selfmap,
    "monodromy": check_monodromy,
    "tangency": check_tangency,
    "model0": check_model0,
    "growth": check_growth,
}

ALL_CHECKS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _run_one(cfg: RunConfig, spec) -> dict:
    """One member's report: spec is an (m, beta) pair or cfg.explicit."""
    if isinstance(spec, tuple):
        (m, beta), data = spec, None
    else:
        m, beta = spec["m"], None
        data = RealData(m, TruncSeries1.from_json(spec["a"]),
                        TruncSeries1.from_json(spec["b"]))
    ctx = FamilyContext(m, beta=beta, data=data, degree=cfg.degree,
                        rect=cfg.rect, radius=cfg.radius, tol=cfg.tol)
    return {"family": ctx.label(),
            "checks": {name: run_check(name, ctx) for name in cfg.checks}}


# errors the library raises on input it cannot work on: SeriesError and
# RealityError are ValueErrors, and a float overflow an ArithmeticError
LIBRARY_ERRORS = (ValueError, ArithmeticError, RuntimeError)


def run_check(name: str, ctx: FamilyContext) -> dict:
    """One check's entry; a library error inside it is a failed check."""
    if name in BETA_M2_CHECKS and (ctx.beta is None or ctx.m < 2):
        return {"pass": None, "detail": "needs a family member with m >= 2"}
    try:
        return CHECKS[name](ctx)
    except LIBRARY_ERRORS as exc:
        return {"pass": False, "error": str(exc), "witness": None}


@contextmanager
def no_verdict(what: str | None = None):
    """Work that gives no verdict: a library error in it is a usage error
    (exit 2 with one ``error:`` line), prefixed by ``what``."""
    try:
        yield
    except ConfigError:
        raise
    except LIBRARY_ERRORS as exc:
        raise ConfigError(f"{what}: {exc}" if what else str(exc)) from exc


def exit_code(entries) -> int:
    """1 when any check entry failed, else 0; a check that does not apply
    (``"pass": null``) fails nothing."""
    return 1 if any(e.get("pass") is False for e in entries) else 0


def run_pipeline(cfg: RunConfig) -> tuple[dict, int]:
    cfg.validate()
    specs = list(cfg.families)
    if cfg.explicit is not None:
        specs.append(cfg.explicit)
    run_one = partial(_run_one, cfg)
    workers = min(cfg.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            runs = pool.map(run_one, specs)
    else:
        runs = [run_one(spec) for spec in specs]
    report = {"version": REPORT_VERSION, "runs": runs}
    return report, exit_code(e for run in runs for e in run["checks"].values())


def _round_floats(obj):
    """obj with each float rounded to 12 significant digits, and a
    non-finite one, which JSON cannot hold, as None."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(obj, out: str | None):
    text = json.dumps(_round_floats(obj), indent=2, sort_keys=True,
                      allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left (`| head`): exit code stands
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _member(args):
    """(m, beta) of the one --family, the member's only source, or None."""
    if len(args.family) > 1:
        raise ConfigError(f"{args.command} takes one --family member")
    other = [f"--{k}" for k in ("m", "a", "b", "series")
             if getattr(args, k, None) is not None]
    if args.family and other:
        raise ConfigError(f"--family and {'/'.join(other)} exclude each other")
    return parse_family(args.family[0]) if args.family else None


def _context_from_args(args, checks=()) -> FamilyContext:
    rect = parse_rect(args.rect)
    member = _member(args)
    if member is None and not hasattr(args, "m"):
        raise ConfigError(f"{args.command} needs --family m,beta")
    if member is None and (args.m is None or args.a is None or args.b is None):
        raise ConfigError("need --family or all of --m/--a/--b")
    validate_shape(rect, args.degree, checks, member[0] if member else args.m)
    if member is not None:
        return FamilyContext(*member, degree=args.degree, rect=rect)
    work = _working_order(args.m, rect, args.degree)
    with no_verdict("real data"):
        data = RealData(args.m, parse_polynomial(args.a, work),
                        parse_polynomial(args.b, work))
    return FamilyContext(args.m, data=data, degree=args.degree, rect=rect)


def cmd_build_ode(args) -> int:
    ctx = _context_from_args(args)
    emit(ctx.ode().to_json(), args.out)
    return 0


def cmd_segre(args) -> int:
    pieces = _known_names(args.emit.split(","), ("psi", "rho", "hk"),
                          "--emit piece")
    ctx = _context_from_args(args)
    out = {"family": ctx.label(), "rect": list(ctx.rect), "sign": args.sign}
    with no_verdict(f"segre at rect {list(ctx.rect)}"):
        fam = solve_psi(ctx.ode(), args.sign, ctx.rect)
        hyper = build_rho(fam)
        for piece in pieces:
            if piece == "psi":
                out["psi"] = fam.psi.to_json()
            elif piece == "rho":
                out["rho"] = hyper.rho.to_json()
            else:
                nf = real_normal_form(hyper)
                out["normal_form_sign"] = nf.sign
                out["hk"] = {str(k): s.to_json() for k, s in nf.hks.items()}
    emit(out, args.out)
    return 0


def cmd_check(args) -> int:
    names = args.checks.split(",") if args.checks else ["roundtrip", "reality",
                                                        "realty"]
    names = _known_names(names, CHECKS, "check")
    ctx = _context_from_args(args, names)
    results = {name: run_check(name, ctx) for name in names}
    report = {"version": REPORT_VERSION,
              "runs": [{"family": ctx.label(), "checks": results}]}
    emit(report, args.out)
    return exit_code(results.values())


def cmd_equiv(args) -> int:
    mapping = {"ode": "map", "hypersurface": "map", "coupled": "coupled"}
    targets = _known_names(args.verify.split(",") if args.verify else [],
                           mapping, "--verify target")
    pieces = _known_names(args.emit.split(",") if args.emit else [],
                          ("chi", "tau", "G"), "--emit piece")
    ctx = _context_from_args(args, [mapping[name] for name in targets])
    out = {"family": ctx.label(), "degree": ctx.degree}
    with no_verdict(f"equiv --emit at degree {ctx.degree}"):
        for piece in pieces:
            if piece == "chi":
                out["chi"] = ctx.chi_tau().f.to_json()
            elif piece == "tau":
                out["tau"] = ctx.chi_tau().g.to_json()
            else:
                out["G"] = coupled_map_g(ctx.chi_tau(), ctx.m).to_json()
    # ode and hypersurface are both the map check: it runs once
    entries = {check: run_check(check, ctx)
               for check in dict.fromkeys(mapping[name] for name in targets)}
    if targets:
        out["verify"] = {name: entries[mapping[name]] for name in targets}
    emit(out, args.out)
    return exit_code(entries.values())


def cmd_monodromy(args) -> int:
    m, beta = _member(args) or (None, None)
    if m is None:
        raise ConfigError("monodromy needs --family m,beta")
    with no_verdict():
        num = numeric_monodromy(m, beta, args.radius, args.tol) \
            if args.numeric else None
        report = num.exact if num else residue_analysis(m, beta)
    out = {
        "family": [m, str(beta)],
        "trivial": report.trivial,
        "eigenvalue_sum": report.eigenvalue_sum,
        "eigenvalue_product": str(report.eigenvalue_product),
        "discriminant": str(report.discriminant),
        "residue_eigenvalues": [[l.real, l.imag]
                                for l in report.residue_eigenvalues],
        "predicted_eigenvalues": [[e.real, e.imag]
                                  for e in report.predicted_eigenvalues],
    }
    if report.integer_eigenvalues is not None:
        out["integer_eigenvalues"] = list(report.integer_eigenvalues)
    if num is not None:
        out["numeric"] = {
            "eigenvalues": [[e.real, e.imag] for e in num.eigenvalues],
            "deviation": num.deviation,
            "det_deviation": num.det_deviation,
            "radius": args.radius,
            "tol": args.tol,
            "n_evaluations": num.n_evaluations,
        }
    emit(out, args.out)
    return 0


def cmd_autovec(args) -> int:
    names = _known_names(args.check.split(","), ("tangency", "lambda"),
                         "--check target")
    # the field is built from the formal solutions whatever --check selects
    ctx = _context_from_args(args, ["autovec", *names])
    with no_verdict(f"autovec vector field at degree {ctx.degree}"):
        fieldrep = ctx.field()
    out = {"family": ctx.label(),
           "field": {"A": fieldrep.a.to_json(), "B": fieldrep.b.to_json()}}
    for name in names:
        if name == "tangency":
            out["tangency"] = run_check("tangency", ctx)
        else:
            chk = straightening_check(ctx.m)
            out["lambda"] = {"pass": chk.ok, "witness": chk.witness}
    emit(out, args.out)
    return exit_code(out[name] for name in names)


def cmd_growth(args) -> int:
    _validate_degree(args.degree)
    window = None
    if args.window:
        parts = args.window.split(",")
        if (len(parts) != 2 or not all(p.strip().isdecimal() for p in parts)
                or int(parts[0]) > int(parts[1])):
            raise ConfigError(f"window must be 'KMIN,KMAX' with 0 <= KMIN "
                              f"<= KMAX, got {args.window!r}")
        window = (int(parts[0]), int(parts[1]))
    member = _member(args)
    if args.series:
        try:
            with open(args.series, "r", encoding="utf-8") as fh:
                series = TruncSeries1.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read series {args.series!r}: {exc}") from exc
        label = args.series
    elif member is not None:
        m, beta = member
        with no_verdict():
            n = termination_order(m, beta, max(200, args.degree))
            series = formal_f(m, beta, n)
        label = [m, str(beta)]
    else:
        raise ConfigError("growth needs --series FILE or --family m,beta")
    with no_verdict():
        term, report = diagnose(series, window)
    out = {"series": label, "terminated": term.terminated,
           "termination_degree": term.degree}
    if report is not None:
        out.update({
            "gevrey": report.gevrey,
            "gevrey_stderr": report.gevrey_stderr,
            "confidence": list(report.confidence),
            "fit_window": list(report.fit_window),
            "radius": report.radius,
            "n_points": report.n_points,
        })
    emit(out, args.out)
    return 0


def cmd_run(args) -> int:
    file_cfg = config_from_file(args.config) if args.config else {}
    flags = {
        "families": [parse_family(f) for f in args.family] or None,
        "checks": args.checks.split(",") if args.checks else None,
        "rect": parse_rect(args.rect) if args.rect else None,
        "degree": args.degree,
        "radius": args.radius,
        "tol": args.tol,
        "out": args.out or None,
        "jobs": args.jobs,
    }
    # a config file takes the keys the flags set, and flags override it;
    # RunConfig.validate checks both alike
    _known_names(list(file_cfg), flags, "config key")
    values = dict(file_cfg)
    values.update((key, v) for key, v in flags.items() if v is not None)
    cfg = RunConfig(**values)
    report, code = run_pipeline(cfg)
    emit(report, cfg.out)
    return code


# each flag that several commands take, as add_argument keywords, declared
# once; each command takes only the flags it reads
SHARED_FLAGS = {
    "family": dict(action="append", default=[], metavar="m,beta",
                   help="family member (repeatable for run)"),
    "m": dict(type=int, default=None, help="order for explicit data"),
    "a": dict(type=str, default=None, help="polynomial for a, e.g. "
              "'1*w^0+1/2*w^2'; a leading minus needs --a=-1/2*w^0"),
    "b": dict(type=str, default=None, help="polynomial for b, e.g. "
              "'1*w^2'; a leading minus needs --b=-1*w^2"),
    "degree": dict(type=int, default=40,
                   help="univariate truncation order (default 40)"),
    "rect": dict(type=str, default="8,24",
                 help="bivariate rectangle Nx,Ny (default 8,24)"),
    "checks": dict(type=str, default=None),
    "radius": dict(type=float, default=1.0),
    "tol": dict(type=float, default=1e-10, help=(
        "numeric monodromy tolerance, both relative and absolute; a relative "
        "tolerance below 100*eps ~ 2.2e-14 is raised to it (default 1e-10)")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segreode",
        description="Exact formal-series toolkit for singular second-order "
                    "ODEs, Segre families, and nonminimal real hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text, shared=""):
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", type=str, default=None,
                       help="write JSON here instead of stdout")
        for flag in shared.split():
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    member = "family m a b degree rect"
    command("build-ode", cmd_build_ode, "construct an admissible ODE", member)

    p = command("segre", cmd_segre, "solve the family profile and emit series",
                member)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--emit", type=str, default="psi",
                   help="comma list from psi,rho,hk")

    command("check", cmd_check, "run reality checks on one member",
            member + " checks")

    p = command("equiv", cmd_equiv, "gauge equivalence onto the beta=0 member",
                "family degree rect")
    p.add_argument("--emit", type=str, default="chi,tau")
    p.add_argument("--verify", type=str, default=None,
                   help="comma list from ode,hypersurface,coupled")

    p = command("monodromy", cmd_monodromy, "monodromy classification",
                "family radius tol")
    p.add_argument("--numeric", action="store_true")

    p = command("autovec", cmd_autovec, "infinitesimal automorphism checks",
                "family degree rect")
    p.add_argument("--check", type=str, default="tangency,lambda")

    p = command("growth", cmd_growth, "divergence diagnostics",
                "family degree")
    p.add_argument("--series", type=str, default=None,
                   help="JSON file holding a univariate series")
    p.add_argument("--window", type=str, default=None, metavar="KMIN,KMAX")

    p = command("run", cmd_run, "full verification pipeline over a grid",
                "family checks degree rect radius tol")
    # unset, so that a config file's value stands unless its flag is given
    p.set_defaults(degree=None, rect=None, radius=None, tol=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON config; flags override file values")
    p.add_argument("--jobs", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _validate_out(args.out)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"resource limit: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
