"""Exact Gaussian-rational coefficients.

Every series in this package has coefficients in Q(i), represented by
:class:`QI`.  Arithmetic never rounds: all values stay in lowest terms with
positive denominators.

Zero is one shared value, :data:`ZERO` = 0/1: a sum, difference, product or
negation with a zero operand returns an operand or ``ZERO`` and builds
nothing, as most cells of the Segre families' sparse series are zero; a real
value is its own conjugate.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_COEFF_RE = re.compile(
    r"^\s*(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?))?(i)?\s*$"
)


class QI:
    """A Gaussian rational (a + b*i)/d with integers a, b and d > 0.

    Instances are normalized on construction: gcd(a, b, d) == 1 and d > 0.
    Values are immutable, so arithmetic may return an operand or a shared
    value (``ZERO``, a real value's own conjugate) instead of a new one.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        if d == 0:
            raise ZeroDivisionError("zero denominator in Gaussian rational")
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("QI values are immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value) -> "QI":
        """Coerce an int, Fraction, or QI into a QI."""
        out = _coerce(value)
        if out is NotImplemented:
            raise TypeError(f"cannot coerce {type(value).__name__} to QI")
        return out

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_real(self) -> bool:
        return self.b == 0

    @property
    def real(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.b, self.d)

    def conj(self) -> "QI":
        return QI(self.a, -self.b, self.d) if self.b else self

    def log_abs(self) -> float:
        """log|value|, computed from the integer parts (no float overflow)."""
        if self.is_zero:
            raise ValueError("log of zero coefficient")
        return 0.5 * (math.log(self.a * self.a + self.b * self.b)) - math.log(self.d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (o.a or o.b):
            return self
        if not (self.a or self.b):
            return o
        return QI(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (o.a or o.b):
            return self
        return QI(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (self.a or self.b) or not (o.a or o.b):
            return ZERO
        return QI(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d * o.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.a * o.a + o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI(
            (self.a * o.a + self.b * o.b) * o.d,
            (self.b * o.a - self.a * o.b) * o.d,
            self.d * n,
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QI(-self.a, -self.b, self.d) if self.a or self.b else ZERO

    def __eq__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return coeff_str(self)

    def __repr__(self):
        return f"QI({coeff_str(self)!r})"


def _coerce(value):
    if isinstance(value, QI):
        return value
    if isinstance(value, int):
        return QI(value)
    if isinstance(value, Fraction):
        return QI(value.numerator, 0, value.denominator)
    return NotImplemented


ZERO = QI(0)
ONE = QI(1)


def _rat_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def coeff_str(c: QI) -> str:
    """Render per the grammar COEFF := RAT | RAT SIGN RAT 'i' | RAT 'i'."""
    re_f = Fraction(c.a, c.d)
    im_f = Fraction(c.b, c.d)
    if im_f == 0:
        return _rat_str(re_f.numerator, re_f.denominator)
    im_str = _rat_str(abs(im_f.numerator), im_f.denominator) + "i"
    if re_f == 0:
        return ("-" if im_f < 0 else "") + im_str
    sign = "+" if im_f > 0 else "-"
    return _rat_str(re_f.numerator, re_f.denominator) + sign + im_str


def parse_coeff(text: str) -> QI:
    """Parse the COEFF grammar (e.g. '3/2', '-1i', '1-1/2i')."""
    m = _COEFF_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse coefficient {text!r}")
    first, sign, second, imag = m.groups()
    if sign is not None and imag is None:
        raise ValueError(f"cannot parse coefficient {text!r}")
    if sign is not None:
        re_f, im_f = Fraction(first), Fraction(sign + second)
    elif imag is not None:
        re_f, im_f = Fraction(0), Fraction(first)
    else:
        re_f, im_f = Fraction(first), Fraction(0)
    return QI(re_f.numerator * im_f.denominator,
              im_f.numerator * re_f.denominator,
              re_f.denominator * im_f.denominator)


def coeff_from_json(obj) -> QI:
    """Parse a JSON cell, which must be a COEFF string."""
    if isinstance(obj, str):
        return parse_coeff(obj)
    raise ValueError(f"bad coefficient JSON {obj!r}: cells are COEFF strings")
