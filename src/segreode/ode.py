"""Second-order linear ODEs z'' = (P/w^m) z' + (Q/w^{2m}) z with an isolated
meromorphic singularity at w = 0, their real-structure criterion, and
pullbacks under gauge transformations (z, w) -> (z*f(w), g(w)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import ONE, QI
from .series import (
    PoleOverflow,
    SeriesError,
    TruncSeries1,
    compose,
    divide,
)

NEG_HALF_I = QI(0, -1, 2)    # 1/(2i)
TWO_I = QI(0, 2)


@dataclass(frozen=True)
class AdmissibleOde:
    """The ODE z'' = (P(w)/w^m) z' + (Q(w)/w^{2m}) z with P, Q pole-free.

    The declared order m is not intrinsic to the Laurent pair (the same
    meromorphic equation is admissible for several m), so it is carried
    explicitly.
    """

    m: int
    p: TruncSeries1
    q: TruncSeries1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"admissibility order m must be >= 1, got {self.m}")
        if self.p.pole != 0 or self.q.pole != 0:
            raise SeriesError("P and Q of an admissible ODE must be pole-free")
        n = min(self.p.trunc, self.q.trunc)
        object.__setattr__(self, "p", self.p.truncate(n))
        object.__setattr__(self, "q", self.q.truncate(n))

    @property
    def trunc(self) -> int:
        return self.p.trunc

    def alpha(self) -> TruncSeries1:
        """The z'-coefficient P(w)/w^m as a Laurent series."""
        return self.p.shift(-self.m)

    def gamma(self) -> TruncSeries1:
        """The z-coefficient Q(w)/w^{2m} as a Laurent series."""
        return self.q.shift(-2 * self.m)

    def to_json(self) -> dict:
        return {"m": self.m, "P": self.p.to_json(), "Q": self.q.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "AdmissibleOde":
        return cls(obj["m"], TruncSeries1.from_json(obj["P"]),
                   TruncSeries1.from_json(obj["Q"]))


@dataclass(frozen=True)
class RealData:
    """Real-coefficient series (a, b) parametrizing ODEs with real structure."""

    m: int
    a: TruncSeries1
    b: TruncSeries1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"order m must be >= 1, got {self.m}")
        for name, s in (("a", self.a), ("b", self.b)):
            if s.pole != 0:
                raise SeriesError(f"{name} must be pole-free")
            bad = s.first_nonreal()
            if bad is not None:
                raise SeriesError(
                    f"{name} must have real coefficients; degree {bad[0]} is {bad[1]}"
                )


@dataclass(frozen=True)
class GaugeMap:
    """The map (z, w) -> (z*f(w), g(w)) with f(0) != 0, g(0) = 0, g'(0) != 0."""

    f: TruncSeries1
    g: TruncSeries1

    def __post_init__(self):
        if self.f.pole != 0 or self.g.pole != 0:
            raise SeriesError("gauge components must be pole-free")
        if not self.f.coefficient(0):
            raise SeriesError("gauge map needs f(0) != 0")
        if self.g.coefficient(0):
            raise SeriesError("gauge map needs g(0) = 0")
        if not self.g.coefficient(1):
            raise SeriesError("gauge map needs g'(0) != 0")

    @classmethod
    def identity(cls, trunc: int) -> "GaugeMap":
        return cls(TruncSeries1.one(trunc), TruncSeries1.var(trunc))

    def is_special(self, m: int) -> bool:
        """f(0) = 1 and g = w + O(w^{m+1})."""
        if self.f.coefficient(0) != ONE or self.g.coefficient(1) != ONE:
            return False
        for k in range(2, min(m, self.g.trunc) + 1):
            if self.g.coefficient(k):
                return False
        return True

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "g": self.g.to_json()}


@dataclass(frozen=True)
class RealStructure:
    """Outcome of the real-structure test on an admissible ODE."""

    ok: bool
    a: TruncSeries1 | None = None
    b: TruncSeries1 | None = None
    witness: dict | None = None


def ode_from_real_data(data: RealData) -> AdmissibleOde:
    """Build the admissible ODE with P = 2i*a - m*w^{m-1}, Q = b + i*w^m*a'."""
    m, a, b = data.m, data.a, data.b
    n = a.trunc
    p = a.scale(TWO_I) - TruncSeries1.monomial(m, m - 1, n)
    q = b + a.derivative().shift(m).scale(QI(0, 1))
    return AdmissibleOde(m, p, q)


def check_real_structure(e: AdmissibleOde) -> RealStructure:
    """Decide positive real structure and recover the generating pair (a, b).

    The ODE has a positive real structure iff a := (P + m*w^{m-1})/(2i) and
    b := Q - i*w^m*a' both have purely real coefficients.
    """
    m = e.m
    a = (e.p + TruncSeries1.monomial(m, m - 1, e.p.trunc)).scale(NEG_HALF_I)
    bad = a.first_nonreal()
    if bad is not None:
        return RealStructure(False, witness={
            "series": "a", "degree": bad[0], "value": str(bad[1]),
        })
    b = e.q - a.derivative().shift(m).scale(QI(0, 1))
    bad = b.first_nonreal()
    if bad is not None:
        return RealStructure(False, witness={
            "series": "b", "degree": bad[0], "value": str(bad[1]),
        })
    return RealStructure(True, a=a, b=b)


def conjugate_ode(e: AdmissibleOde) -> AdmissibleOde:
    """The ODE with complex-conjugated coefficient series."""
    return AdmissibleOde(e.m, e.p.conj(), e.q.conj())


def pullback_under_gauge(target: AdmissibleOde, gauge: GaugeMap,
                         m_pulled: int) -> AdmissibleOde:
    """The ODE satisfied by z(w) whenever Z(W) = z*f(w) solves ``target`` at
    W = g(w).

    With the target written Z'' = alpha(W) Z' + gamma(W) Z, the chain rule
    gives the pulled coefficients

        alpha^ = alpha(g)*g' + g''/g' - 2 f'/f
        gamma^ = alpha(g)*g'*(f'/f) + gamma(g)*(g')^2 + (g''/g')*(f'/f) - f''/f

    which are repackaged as (P^, Q^) with declared pole orders m_pulled and
    2*m_pulled; exceeding those is an error.  With f''/f = (f'/f)' + (f'/f)^2,
    f'/f is the one quotient read from f, and

        gamma^ = (alpha^ + f'/f)*(f'/f) + gamma(g)*(g')^2 - (f'/f)'
    """
    g = gauge.g
    gp = g.derivative()
    f_ratio = divide(gauge.f.derivative(), gauge.f)
    a_hat = (compose(target.alpha(), g) * gp
             + divide(gp.derivative(), gp) - f_ratio.scale(2))
    c_hat = ((a_hat + f_ratio) * f_ratio
             + compose(target.gamma(), g) * (gp * gp) - f_ratio.derivative())

    p_hat = a_hat.shift(m_pulled)
    if p_hat.pole > 0:
        raise PoleOverflow(
            f"pulled z'-coefficient has pole order {a_hat.pole} > declared {m_pulled}"
        )
    q_hat = c_hat.shift(2 * m_pulled)
    if q_hat.pole > 0:
        raise PoleOverflow(
            f"pulled z-coefficient has pole order {c_hat.pole} > declared {2 * m_pulled}"
        )
    return AdmissibleOde(m_pulled, p_hat, q_hat)


def beta_data(m: int, beta, trunc: int) -> RealData:
    """The real data a == 1, b = beta*w^{2m-2} of the one-parameter family;
    beta must be real."""
    if m < 1:
        raise ValueError(f"order m must be >= 1, got {m}")
    beta_q = beta if isinstance(beta, QI) else QI.of(
        beta if isinstance(beta, (int, Fraction)) else Fraction(beta)
    )
    if not beta_q.is_real:
        raise ValueError(f"beta must be real, got {beta_q}")
    if 2 * m - 2 > trunc:
        raise SeriesError(f"truncation {trunc} too small for degree {2 * m - 2}")
    return RealData(m, TruncSeries1.one(trunc),
                    TruncSeries1.monomial(beta_q, 2 * m - 2, trunc))


def beta_family(m: int, beta, trunc: int) -> AdmissibleOde:
    """The one-parameter family built from :func:`beta_data`:

    z'' = (2i/w^m - m/w) z' + (beta/w^2) z.
    """
    return ode_from_real_data(beta_data(m, beta, trunc))
