"""Exact truncated formal power/Laurent series in one and two variables.

Conventions
-----------
* A :class:`TruncSeries1` holds the coefficients of degrees ``-pole ..
  trunc``; ``pole`` is 0 or the degree -pole coefficient is nonzero.
  Degrees above ``trunc`` are *unknown*, never assumed zero; every operation
  propagates the guaranteed truncation pessimistically (min rules), so the
  ``trunc`` field of a result is always a sound guarantee.
* A :class:`TruncSeries2` holds the cells of ``x^j * y^k``, ``0 <= j <= nx``,
  ``0 <= k <= ny``, and has no pole part.
* Both store Gaussian-integer numerator rows (d, nums), the layout of
  FLINT's ``fmpq_poly``: a row keeps its nonzero cells as (l, re, im) by
  rising l over a positive d, and gcd(d, every re and im) = 1.  The
  univariate series is one row, whose cell l has degree l - pole; a
  bivariate series keeps one row per x^j, each over its own d.
* The queries (``coeffs``, ``rows``, ``coefficient``, ``first_nonzero``, ...)
  return reduced Gaussian rationals :class:`segreode.coefficients.QI`, built
  from the numerators when asked; floats and complex numbers are rejected.
* Values are immutable; all operations are pure functions and safe to share
  across threads.

Every operation works on numerator rows over Gaussian integers, so no ``QI``
is built until a cell is read.  Every series product runs through one kernel,
:func:`_conv`, one output row per call: a univariate product is one row, and
every bivariate one, eager or online, row by row on its factors' stored rows.
The one exception is the univariate :meth:`TruncSeries1.norm`, s*conj(s),
which takes each pair of cells once and keeps only the real part.

Univariate division, exp, log and fractional powers run the classical O(n^2)
coefficient recurrences (Knuth, TAOCP vol. 2, section 4.7) through one online
kernel, :func:`_recurrence`: the quotient q_k = (a_k - sum u_j q_{k-j}) / u_0,
k*E_k = sum j*f_j*E_{k-j} for E = exp(f), log(u) as the integral of u'/u, and
Miller's power recurrence k*P_k = sum ((alpha+1)*j - k)*u_j*P_{k-j} for
P = u^alpha.  Bivariate exp, log and fractional powers run the same
recurrences row by row in x (:func:`_row_recurrence`), with the products
taken between rows: row k is one weighted output row of :func:`_conv`.

An :class:`OnlineSeries2` computes each x-row once, from rows <= k of its
inputs (relaxed evaluation), and keeps it once, as a numerator row.  The
product, the row-local operations (:class:`_Rows2`) and the Taylor shift
(:func:`_horner`, Horner in delta = g - y) serve eager and online series alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence, Union

from .coefficients import ONE, QI, ZERO, coeff_from_json, coeff_str

# Largest pole order any operation may produce.  The admissible-ODE layer
# needs poles up to 2m plus a little slack for intermediate quotients.
POLE_CAP = 64


class SeriesError(ValueError):
    pass


class TruncationStarvation(SeriesError):
    pass


class PoleOverflow(SeriesError):
    pass


Scalar = Union[int, Fraction, QI]


def _as_cell(value: Scalar) -> QI:
    try:
        return QI.of(value)
    except TypeError:
        raise SeriesError(
            f"series coefficients are Gaussian rationals, not {type(value).__name__}"
        ) from None


# ---------------------------------------------------------------------------
# convolution kernels
# ---------------------------------------------------------------------------


def _numerators(cells, n: int):
    """Cells 0..n as a numerator row: their common denominator and the
    nonzero (l, re, im) over it."""
    cells = [c if isinstance(c, QI) else _as_cell(c) for c in cells[: n + 1]]
    den = math.lcm(*[c.d for c in cells])
    return den, [(l, c.a * (m := den // c.d), c.b * m)
                 for l, c in enumerate(cells) if c.a or c.b]


def _conv(sa, sb, k: int, ny: int, weight=None):
    """The one product kernel: row k, to column ny, of the product of the
    numerator rows (d, nums) sa and sb.  It sums the products of the nonzero
    rows i of sa and k - i of sb, times ``weight(i)`` if given (weight 0
    leaves the pair out), over the lcm of the pairs' denominators."""
    pairs = [(i, sa[i], sb[k - i])
             for i in range(max(0, k + 1 - len(sb)), min(k + 1, len(sa)))
             if sa[i][1] and sb[k - i][1] and (not weight or weight(i))]
    den = math.lcm(*[da * db for _, (da, _), (db, _) in pairs])
    acc_r = [0] * (ny + 1)
    acc_i = [0] * (ny + 1)
    for i, (da, row_a), (db, row_b) in pairs:
        f = den // (da * db) * (weight(i) if weight else 1)
        for la, ar, ai in row_a:
            if la > ny:
                break
            if f != 1:
                ar, ai = ar * f, ai * f
            top = ny - la
            for lb, br, bi in row_b:
                if lb > top:
                    break
                l = la + lb
                acc_r[l] += ar * br - ai * bi
                acc_i[l] += ar * bi + ai * br
    return den, _sparse(acc_r, acc_i)


def _sum(row_a, row_b, ny: int, sign: int = 1):
    """The numerator row a + sign*b, cut at column ny."""
    (da, ra), (db, rb) = row_a, row_b
    if not (ra and rb):  # no sums: one side is zero
        return (da, _cut(ra, ny)) if ra else (db, _cut(
            rb if sign > 0 else _over(rb, -1), ny))
    den = math.lcm(da, db)
    acc_r = [0] * (ny + 1)
    acc_i = [0] * (ny + 1)
    for nums, m in ((ra, den // da), (rb, sign * den // db)):
        for l, r, i in _cut(nums, ny):
            acc_r[l] += r * m
            acc_i[l] += i * m
    return den, _sparse(acc_r, acc_i)


def _sparse(acc_r, acc_i):
    return [(l, acc_r[l], acc_i[l]) for l in range(len(acc_r))
            if acc_r[l] or acc_i[l]]


def _cells(d: int, nums, ny: int) -> list:
    """The reduced cells 0..ny of the numerator row ``nums`` over d."""
    cells = [ZERO] * (ny + 1)
    for l, r, i in nums:
        cells[l] = QI(r, i, d)
    return cells


def _over(nums, m: int, g: int = 1):
    """The numerators times m, divided exactly by g."""
    return [(l, r * m // g, i * m // g) for l, r, i in nums]


def _offset(nums, k: int):
    """The numerators moved k columns up."""
    return [(l + k, r, i) for l, r, i in nums] if k else nums


def _scaled(d: int, nums, c):
    """The numerator row (d, nums) times the Gaussian rational
    c = (re, im, den)."""
    ca, cb, cd = c
    return d * cd, [(l, r * ca - i * cb, r * cb + i * ca)
                    for l, r, i in nums] if ca or cb else []


def _cut(nums, ny: int):
    """The numerators without the cells beyond column ny."""
    return [c for c in nums if c[0] <= ny] if nums and nums[-1][0] > ny else nums


def _reduced(row):
    """The numerator row divided by its content."""
    g = d = row[0]
    for _, r, i in row[1]:
        if (g := math.gcd(g, r, i)) == 1:
            return row
    return d // g, _over(row[1], 1, g)


# ---------------------------------------------------------------------------
# powers shared by both series classes
# ---------------------------------------------------------------------------


def _powers(base, kmax: int):
    """Yield base, base^2, ... up to base^kmax, one product per power after
    the first; stops before the first power that is zero up to truncation."""
    if kmax < 1 or base.is_zero:
        return
    power = base
    yield power
    for _ in range(kmax - 1):
        power = power * base
        if power.is_zero:
            return
        yield power


def _power_sum(acc, base, coeffs: dict):
    """acc + sum_k coeffs[k] * base^k over the keys k >= 1 of ``coeffs``,
    Gaussian rationals (re, im, den); powering stops at the largest key.
    Univariate composition (:func:`_compose_1_1`) is its only caller."""
    for k, power in enumerate(_powers(base, max(coeffs, default=0)), 1):
        if k in coeffs:
            acc = acc + power._times(coeffs[k])
    return acc


def _horner(top: int, coeff, base, nx: int, ny: int):
    """sum_{j=0..top} C_j * base^j on the rectangle (nx, ny) by Horner,
    H_j = C_j + H_{j+1} * base, as online sums and products, where
    ``coeff(j)`` maps i to row i of C_j as a numerator row.  base has x-order
    vx >= 1, so row k of H_{j+1} * base reads rows <= k - vx of H_{j+1}:
    H_j is computed on the rows up to nx - j*vx only."""
    acc = OnlineSeries2(nx, ny, coeff(top))
    for j in range(top - 1, -1, -1):
        acc = OnlineSeries2(nx, ny, coeff(j)) + acc * base
    return acc


def _capped_ny(g, nx: int, ny: int, trunc: int, v: int | None = None) -> int:
    """ny capped by total degree, nx + ny <= (trunc + 1) * v - 1 with v the
    total order of g: an outer series known to degree trunc meets its first
    unknown term times g^(trunc + 1) there."""
    if v is None:
        fn = g.first_nonzero()
        v = sum(fn[0]) if fn else g.nx + g.ny + 1
    ny = min(ny, (trunc + 1) * v - 1 - nx)
    if ny < 0:
        raise TruncationStarvation(f"outer truncation {trunc} cannot cover "
                                   f"the rectangle ({g.nx}, {g.ny})")
    return ny


def _pow_int(base, n: int):
    """base^n by binary powering, n >= 1, on the truncation of the product
    base * ... * base."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _recurrence(w, n: int, c0, a: int, b: int, q: int = 1, t=(1, ()),
                mu=(1, 0, 1)):
    """The numerator row of the cells c_0 .. c_n of a series defined online
    by the numerator row ``w``:

        c_k = mu * (t_k + (a*k*s0 + b*s1) / (q*k))   for k >= 1,
        s0 = sum_{j=1..k} w_j * c_{k-j},   s1 = sum_{j=1..k} j * w_j * c_{k-j},

    with integers a, b and q > 0, Gaussian rationals c0 and mu given as
    (re, im, den > 0), and t_k the cells of the numerator row ``t`` (zero by
    default); only w_1 .. w_n are read.  The combined sum runs over Gaussian integers:
    w_j over the common denominator of w_1 .. w_n and c_0 .. c_{k-1} over
    their running common denominator, so each step reduces its cell with one
    gcd.
    """
    dw, nums = _reduced((w[0], [c for c in w[1] if 0 < c[0] <= n]))
    ws = [(l, b * l, wr, wi) for l, wr, wi in nums]
    dt, ts = t[0], {l: (r, i) for l, r, i in t[1]}
    mr, mi, md = mu
    cs = []  # (re, im) numerators of c_0 .. c_{k-1} over dc
    dc = 1
    r, i, den = c0
    for k in range(n + 1):
        if k:
            ak = a * k
            r = i = 0
            for j, bj, wr, wi in ws:
                if j > k:
                    break
                cr, ci = cs[k - j]
                wt = ak + bj
                r += wt * (wr * cr - wi * ci)
                i += wt * (wr * ci + wi * cr)
            den = q * k * dw * dc
            if k in ts:
                tr, ti = ts[k]
                r, i, den = r * dt + tr * den, i * dt + ti * den, den * dt
            r, i, den = r * mr - i * mi, r * mi + i * mr, den * md
        g = math.gcd(r, i, den)
        d = den // g
        if dc % d:
            grow = d // math.gcd(dc, d)
            dc *= grow
            cs = [(cr * grow, ci * grow) for cr, ci in cs]
        m = dc // d
        cs.append((r // g * m, i // g * m))
    return dc, [(l, r, i) for l, (r, i) in enumerate(cs) if r or i]


def _row_recurrence(w, c0, a: int, b: int, q: int = 1, t=None, mu=None):
    """The bivariate series of the kind of ``w`` whose x-rows c_0, c_1, ...
    (y-polynomials mod y^(ny+1)) follow online from the x-rows of ``w``:

        c_k = mu * (t_k + (a*k*s0 + b*s1) / (q*k))   for k >= 1,
        s0 = sum_{j=1..k} w_j * c_{k-j},   s1 = sum_{j=1..k} j * w_j * c_{k-j},

    the twin of :func:`_recurrence`; c_0 = c0 and mu are numerator rows to
    column ny, mu = 1 when None, and t_k = 0 when ``t`` is None.  Row k
    reads rows <= k of ``w`` and ``t``, eager or online; the sums are one
    weighted row of :func:`_conv`, and each row is reduced once."""
    ny = w.ny
    ms = None if mu is None else [mu]
    ws, cs = [(1, [])], [c0]  # rows w_0 = 0, w_1 .. w_k and c_0 .. c_{k-1}

    def row(k):  # called for k = 0, 1, ... in order
        if not k:
            return c0
        ws.append(w._row(k))
        den, nums = _conv(ws, cs, k, ny, lambda j: a * k + b * j)
        out = (den * q * k, nums)
        if t is not None:
            out = _sum(out, t._row(k), ny)
        if ms is not None:
            out = _conv([out], ms, 0, ny)
        cs.append(_reduced(out))
        return cs[k]

    return w._new(w.nx, ny, row)


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------


class TruncSeries1:
    """Univariate truncated Laurent series: degrees ``-pole .. trunc``, as
    the numerator row ``nums`` over ``den``, whose cell l is the coefficient
    of degree l - pole."""

    __slots__ = ("pole", "trunc", "den", "nums")

    def __init__(self, coeffs: Sequence, pole: int = 0, trunc: int | None = None):
        if trunc is None:
            trunc = len(coeffs) - 1 - pole
        if len(coeffs) != trunc + pole + 1:
            raise SeriesError(
                f"coefficient list length {len(coeffs)} != trunc {trunc} + pole {pole} + 1"
            )
        self._set(pole, trunc, *_numerators(coeffs, trunc + pole))

    def _set(self, pole: int, trunc: int, den: int, nums):
        if trunc < 0:
            raise TruncationStarvation(f"truncation order {trunc} < 0")
        # drop structural zeros below the first nonzero cell to normalize the pole
        lead = min(pole, nums[0][0] if nums else pole)
        if lead > 0:
            pole -= lead
            nums = _offset(nums, -lead)
        if pole > POLE_CAP:
            raise PoleOverflow(f"pole order {pole} exceeds cap {POLE_CAP}")
        for name, value in zip(self.__slots__, (pole, trunc, den, tuple(nums))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("series are immutable")

    @staticmethod
    def _new(pole: int, trunc: int, row) -> "TruncSeries1":
        """The series whose cells are the numerator row ``row``."""
        out = object.__new__(TruncSeries1)
        out._set(pole, trunc, *_reduced(row))
        return out

    @property
    def _row(self):
        return self.den, self.nums

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "TruncSeries1":
        return cls.constant(ZERO, trunc)

    @classmethod
    def constant(cls, value: Scalar, trunc: int) -> "TruncSeries1":
        c = _as_cell(value)
        return cls._new(0, trunc, (c.d, [(0, c.a, c.b)] if c else []))

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries1":
        return cls.constant(ONE, trunc)

    @classmethod
    def var(cls, trunc: int) -> "TruncSeries1":
        return cls.monomial(1, 1, trunc)

    @classmethod
    def monomial(cls, value: Scalar, degree: int, trunc: int) -> "TruncSeries1":
        return cls.from_terms({degree: value}, trunc)

    @classmethod
    def from_terms(cls, terms: dict, trunc: int) -> "TruncSeries1":
        pole = max(0, -min(terms.keys(), default=0))
        cells = [ZERO] * (trunc + pole + 1)
        for deg, val in terms.items():
            if deg > trunc:
                raise TruncationStarvation(f"term degree {deg} above trunc {trunc}")
            cells[deg + pole] = _as_cell(val)
        return cls(cells, pole, trunc)

    # -- queries: with to_json, the only methods that build cells ----------

    @property
    def coeffs(self) -> tuple:
        """The reduced cells of degrees -pole .. trunc."""
        return tuple(_cells(self.den, self.nums, self.trunc + self.pole))

    def coefficient(self, degree: int) -> QI:
        """Coefficient at ``degree``; degrees above trunc are unknown."""
        if degree > self.trunc:
            raise TruncationStarvation(
                f"coefficient of degree {degree} is beyond truncation {self.trunc}"
            )
        l = degree + self.pole
        j = bisect_left(self.nums, (l,))
        if j == len(self.nums) or self.nums[j][0] != l:
            return ZERO
        return QI(*self.nums[j][1:], self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def order(self) -> int | None:
        """Degree of the lowest nonzero stored coefficient, or None."""
        return self.nums[0][0] - self.pole if self.nums else None

    def first_nonzero(self):
        """(degree, coefficient) of the lowest nonzero term, or None."""
        return next(self._terms(self.nums), None)

    def first_nonreal(self):
        """(degree, coefficient) of the lowest coefficient with a nonzero
        imaginary part, or None."""
        return next(self._terms(c for c in self.nums if c[2]), None)

    def _terms(self, nums):
        """(degree, coefficient) of each of the stored numerators ``nums``."""
        return ((l - self.pole, QI(r, i, self.den)) for l, r, i in nums)

    def items(self):
        for i, c in enumerate(self.coeffs):
            yield i - self.pole, c

    def __eq__(self, other):
        """Equality of all coefficients up to the common truncation."""
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        pole = max(self.pole, other.pole)
        top = min(self.trunc, other.trunc) + pole
        ra, rb = (_cut(_offset(s.nums, pole - s.pole), top)
                  for s in (self, other))
        return _over(ra, other.den) == _over(rb, self.den)

    __hash__ = None

    def __repr__(self):
        shown = [f"({c})*w^{deg}" if deg else f"({c})"
                 for deg, c in self._terms(self.nums[:6])]
        body = " + ".join(shown) if shown else "0"
        return f"<series {body} + O(w^{self.trunc + 1})>"

    # -- structural ops: index and sign maps on the numerator row ----------

    def truncate(self, trunc: int) -> "TruncSeries1":
        if trunc > self.trunc:
            raise TruncationStarvation(
                f"cannot extend truncation {self.trunc} to {trunc}"
            )
        if trunc == self.trunc:
            return self
        return TruncSeries1._new(self.pole, trunc,
                                 (self.den, _cut(self.nums, trunc + self.pole)))

    def shift(self, k: int) -> "TruncSeries1":
        """Multiply by w^k (exact, k of either sign)."""
        pole = max(self.pole - k, 0)
        return TruncSeries1._new(pole, self.trunc + k, (
            self.den, _offset(self.nums, pole - self.pole + k)))

    def conj(self) -> "TruncSeries1":
        return TruncSeries1._new(self.pole, self.trunc, (
            self.den, [(l, r, -i) for l, r, i in self.nums]))

    # -- ring ops ----------------------------------------------------------

    def _zip(self, other, sign: int):
        """self + sign*other on the rows aligned to the larger pole."""
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        pole = max(self.pole, other.pole)
        trunc = min(self.trunc, other.trunc)
        ra, rb = ((s.den, _offset(s.nums, pole - s.pole)) for s in (self, other))
        return TruncSeries1._new(pole, trunc, _sum(ra, rb, trunc + pole, sign))

    def __add__(self, other):
        return self._zip(other, 1)

    def __sub__(self, other):
        return self._zip(other, -1)

    def __neg__(self):
        return TruncSeries1._new(self.pole, self.trunc,
                                 (self.den, _over(self.nums, -1)))

    def scale(self, value: Scalar) -> "TruncSeries1":
        c = _as_cell(value)
        return self._times((c.a, c.b, c.d))

    def _times(self, c) -> "TruncSeries1":
        """The series times the Gaussian rational c = (re, im, den)."""
        return TruncSeries1._new(self.pole, self.trunc,
                                 _scaled(self.den, self.nums, c))

    def __mul__(self, other):
        if not isinstance(other, TruncSeries1):
            return self.scale(other)
        trunc = min(self.trunc - other.pole, other.trunc - self.pole)
        pole = self.pole + other.pole
        if trunc < -pole:
            raise TruncationStarvation("product truncation exhausted")
        return TruncSeries1._new(pole, trunc, _conv(
            [self._row], [other._row], 0, trunc + pole))

    __rmul__ = __mul__

    def norm(self) -> "TruncSeries1":
        """self * self.conj() on the truncation that product claims: each pair
        of cells j != k taken once, as the real 2*(re_j*re_k + im_j*im_k),
        and each cell alone as re_j^2 + im_j^2."""
        top = self.trunc + self.pole
        acc = [0] * (top + 1)
        for x, (la, ar, ai) in enumerate(self.nums):
            if 2 * la > top:
                break
            acc[2 * la] += ar * ar + ai * ai
            ar, ai = 2 * ar, 2 * ai
            for lb, br, bi in self.nums[x + 1:]:
                if la + lb > top:
                    break
                acc[la + lb] += ar * br + ai * bi
        return TruncSeries1._new(2 * self.pole, self.trunc - self.pole, (
            self.den * self.den, [(l, r, 0) for l, r in enumerate(acc) if r]))

    def pow_int(self, n: int) -> "TruncSeries1":
        if n < 0:
            return self.inverse().pow_int(-n)
        return _pow_int(self, n) if n else TruncSeries1.one(self.trunc)

    # -- division ------------------------------------------------------------

    def inverse(self) -> "TruncSeries1":
        return divide(TruncSeries1.one(self.trunc + self.pole), self)

    def __truediv__(self, other):
        if isinstance(other, TruncSeries1):
            return divide(self, other)
        return self.scale(ONE / _as_cell(other))

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "TruncSeries1":
        if self.trunc < 1 and self.pole == 0:
            raise TruncationStarvation("cannot differentiate a trunc-0 series")
        p = self.pole
        pole = p + 1 if p > 0 else 0
        return TruncSeries1._new(pole, self.trunc - 1, (self.den, [
            (l + pole - p - 1, r * (l - p), i * (l - p))
            for l, r, i in self.nums if l != p]))

    # -- transcendental -------------------------------------------------------

    def exp(self) -> "TruncSeries1":
        """E = exp(f) by E' = f'*E: k*E_k = sum_{j=1..k} j*f_j*E_{k-j}."""
        if self.pole > 0 or self.order() == 0:
            raise SeriesError("exp requires a pole-free series with zero constant term")
        return TruncSeries1._new(0, self.trunc, _recurrence(
            self._row, self.trunc, (1, 0, 1), 0, 1))

    def log(self) -> "TruncSeries1":
        """L = log(u) by u*L' = u':
        L_k = u_k - sum_{j=1..k} (1 - j/k)*u_j*L_{k-j}."""
        return TruncSeries1._new(0, self.trunc, _recurrence(
            self._unit()._row, self.trunc, (0, 0, 1), -1, 1, t=self._row))

    def pow_frac(self, alpha) -> "TruncSeries1":
        """Principal formal branch u^alpha = exp(alpha*log(u)); needs u(0) = 1.

        Miller's recurrence from u*P' = alpha*u'*P:
        k*P_k = sum_{j=1..k} ((alpha+1)*j - k)*u_j*P_{k-j}.
        """
        alpha = Fraction(alpha)
        p, q = alpha.numerator, alpha.denominator
        return TruncSeries1._new(0, self.trunc, _recurrence(
            self._unit()._row, self.trunc, (1, 0, 1), -q, p + q, q))

    def _unit(self) -> "TruncSeries1":
        """The series itself, which must have constant term exactly 1."""
        if self.pole > 0 or self.nums[:1] != ((0, self.den, 0),):
            raise SeriesError("log requires constant term exactly 1")
        return self

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "pole": self.pole,
            "trunc": self.trunc,
            "coeffs": [coeff_str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries1":
        cells = [coeff_from_json(raw) for raw in obj["coeffs"]]
        return cls(cells, obj.get("pole", 0), obj["trunc"])


# ---------------------------------------------------------------------------
# bivariate series
# ---------------------------------------------------------------------------


class _Rows2:
    """The product and the row-local operations, written once for
    :class:`TruncSeries2` and :class:`OnlineSeries2`: ``s._row(k)`` is row k
    as a numerator row (d, nums), its nonzero (l, re, im) by rising l over
    d > 0, and ``s._rows`` the rows stored so far, from row 0; ``s[k]`` is
    row k as cells and ``s.row(k)`` as a univariate series in y;
    ``_new(nx, ny, rows)`` makes a series of the same kind."""

    __slots__ = ()

    @property
    def rect(self):
        return (self.nx, self.ny)

    def __getitem__(self, k: int) -> list:
        return _cells(*self._row(k), self.ny)

    def row(self, j: int) -> TruncSeries1:
        """The coefficient series of x^j, as a univariate series in y."""
        if j > self.nx:
            raise TruncationStarvation(f"row {j} beyond nx {self.nx}")
        return TruncSeries1._new(0, self.ny, self._row(j))

    def _rowwise(self, fn, rect=None, shift: int = 0):
        """The series on ``rect`` whose row k is fn(k, *row k + shift)."""
        return self._new(*(rect or self.rect),
                         lambda k: fn(k, *self._row(k + shift)))

    def restrict(self, nx: int, ny: int):
        if nx > self.nx or ny > self.ny:
            raise TruncationStarvation(
                f"cannot extend rectangle {self.rect} to ({nx}, {ny})")
        return self._rowwise(lambda k, d, ns: (d, _cut(ns, ny)), (nx, ny))

    def shift_x(self, j: int):
        """Multiply by x^j (j >= 0); cells pushed past nx are dropped."""
        if j < 0:
            raise SeriesError("negative x-shift is not defined on power series")
        return self._new(self.nx, self.ny, lambda k: self._row(k - j) if k >= j
                         else (1, []))

    def shift_y(self, j: int):
        """Multiply by y^j; j < 0 requires exact divisibility and shrinks ny."""
        ny = self.ny + min(j, 0)
        if ny < 0:
            raise TruncationStarvation("y-shift empties the rectangle")

        def row(k, d, nums):
            if nums and nums[0][0] < -j:
                raise SeriesError(f"series is not divisible by y^{-j} "
                                  f"(cell ({k}, {nums[0][0]}) nonzero)")
            return d, _cut(_offset(nums, j), ny)

        return self._rowwise(row, (self.nx, ny))

    def _zip(self, other, sign: int):
        if not isinstance(other, _Rows2):
            return NotImplemented
        new = (other if isinstance(other, OnlineSeries2) else self)._new
        ny = min(self.ny, other.ny)
        return new(min(self.nx, other.nx), ny,
                   lambda k: _sum(self._row(k), other._row(k), ny, sign))

    def __add__(self, other):
        return self._zip(other, 1)

    def __sub__(self, other):
        return self._zip(other, -1)

    def __mul__(self, other):
        """Row k is sum_i a_i * b_{k-i} by :func:`_conv`, on the stored rows
        of both factors, eager or online; the product is online if a factor
        is.  The lower row of each pair is read first and a zero one leaves
        the other unread, so a factor of x-order >= 1 never reads row k of
        the other."""
        if not isinstance(other, _Rows2):
            return self.scale(other)
        ny = min(self.ny, other.ny)

        def row(k):
            sa, sb = self._rows, other._rows
            for i in range(k + 1):
                if i < len(sa) and k - i < len(sb):
                    continue  # both rows of the pair are stored
                lo, hi = ((self, i), (other, k - i))[:: 1 if 2 * i <= k else -1]
                if lo[0]._row(lo[1])[1]:
                    hi[0]._row(hi[1])
            return _reduced(_conv(sa, sb, k, ny))

        new = (other if isinstance(other, OnlineSeries2) else self)._new
        return new(min(self.nx, other.nx), ny, row)

    __rmul__ = __mul__

    def scale(self, value: Scalar):
        c = _as_cell(value)
        return self._rowwise(lambda k, d, ns: _scaled(d, ns, (c.a, c.b, c.d)))

    def pow_int(self, n: int):
        if n < 0:
            raise SeriesError("negative powers of bivariate series are not defined")
        return _pow_int(self, n) if n else self._new(
            self.nx, self.ny, TruncSeries2.one(self.nx, self.ny)._row)

    def derivative_x(self):
        if self.nx < 1:
            raise TruncationStarvation("cannot x-differentiate with nx = 0")
        return self._rowwise(lambda k, d, ns: (d, _over(ns, k + 1)),
                             (self.nx - 1, self.ny), 1)

    def derivative_y(self):
        if self.ny < 1:
            raise TruncationStarvation("cannot y-differentiate with ny = 0")
        return self._rowwise(lambda k, d, ns: (d, [
            (l - 1, r * l, i * l) for l, r, i in ns if l]), (self.nx, self.ny - 1))

    def conj(self):
        return self._rowwise(lambda k, d, ns: (d, [(l, r, -i) for l, r, i in ns]))

    def __neg__(self):
        return self._rowwise(lambda k, d, ns: (d, _over(ns, -1)))

    def exp(self):
        """E = exp(f) row by row in x: E_0 = exp(f(0, y)) and
        k*E_k = sum_{j=1..k} j*f_j*E_{k-j}."""
        row0 = self.row(0)
        if row0.order() == 0:
            raise SeriesError("exp requires zero constant term")
        return _row_recurrence(self, row0.exp()._row, 0, 1)


class TruncSeries2(_Rows2):
    """Bivariate truncated power series on the rectangle (nx, ny), no poles:
    ``_rows``, one reduced numerator row (d, nums) per x-row, and ``rows``,
    their cells."""

    __slots__ = ("nx", "ny", "_rows")

    def __init__(self, rows: Sequence[Sequence], nx: int | None = None,
                 ny: int | None = None):
        nx = len(rows) - 1 if nx is None else nx
        ny = (len(rows[0]) - 1 if rows else 0) if ny is None else ny
        if min(nx, ny) >= 0 and (len(rows) != nx + 1
                                 or any(len(r) != ny + 1 for r in rows)):
            raise SeriesError("rectangle shape mismatch")
        self._set(nx, ny, [_numerators(r, ny) for r in rows[: nx + 1]])

    def _set(self, nx: int, ny: int, rows):
        if nx < 0 or ny < 0:
            raise TruncationStarvation(f"rectangle ({nx}, {ny}) is empty")
        rows = tuple(map(_reduced, rows))
        for name, value in zip(self.__slots__, (nx, ny, rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("series are immutable")

    def _row(self, k: int):
        return self._rows[k]

    @property
    def rows(self) -> tuple:
        return tuple(tuple(self[k]) for k in range(self.nx + 1))

    @staticmethod
    def _new(nx: int, ny: int, rows):
        """The series whose row k is the numerator row rows(k)."""
        out = object.__new__(TruncSeries2)
        out._set(nx, ny, [rows(k) for k in range(nx + 1)])
        return out

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, nx: int, ny: int) -> "TruncSeries2":
        return cls._term(ZERO, 0, 0, nx, ny)

    @classmethod
    def constant(cls, value: Scalar, nx: int, ny: int):
        return cls._term(value, 0, 0, nx, ny)

    @classmethod
    def one(cls, nx: int, ny: int) -> "TruncSeries2":
        return cls._term(ONE, 0, 0, nx, ny)

    @classmethod
    def var_x(cls, nx: int, ny: int) -> "TruncSeries2":
        if nx < 1:
            raise TruncationStarvation("nx < 1 cannot hold x")
        return cls._term(ONE, 1, 0, nx, ny)

    @classmethod
    def var_y(cls, nx: int, ny: int) -> "TruncSeries2":
        if ny < 1:
            raise TruncationStarvation("ny < 1 cannot hold y")
        return cls._term(ONE, 0, 1, nx, ny)

    @staticmethod
    def _term(value: Scalar, j: int, l: int, nx: int, ny: int):
        c = _as_cell(value)
        return TruncSeries2._new(nx, ny, lambda k: (
            c.d, [(l, c.a, c.b)] if k == j and c else []))

    @classmethod
    def from_rows(cls, rows_map: dict, nx: int, ny: int):
        """Build from a {x_degree: TruncSeries1-in-y} mapping."""
        rows = {}
        for j, s in rows_map.items():
            if j > nx:
                raise TruncationStarvation(f"row {j} above nx {nx}")
            if s.pole != 0:
                raise SeriesError("row series must be pole-free")
            if s.trunc < ny:
                raise TruncationStarvation(
                    f"row {j} known only to order {s.trunc} < ny {ny}")
            rows[j] = s.den, [c for c in s.nums if c[0] <= ny]
        return cls._new(nx, ny, lambda k: rows.get(k, (1, [])))

    @classmethod
    def embed_y(cls, s: TruncSeries1, nx: int, ny: int | None = None):
        """A univariate series in y viewed on the rectangle."""
        if s.pole != 0:
            raise SeriesError("cannot embed a series with a pole")
        if ny is None:
            ny = s.trunc
        if ny > s.trunc:
            raise TruncationStarvation(f"ny {ny} above series truncation {s.trunc}")
        return cls.from_rows({0: s}, nx, ny)

    # -- queries ----------------------------------------------------------------

    def coefficient(self, j: int, k: int) -> QI:
        if j > self.nx or k > self.ny:
            raise TruncationStarvation(
                f"cell ({j}, {k}) is beyond the rectangle {self.rect}")
        return self[j][k] if j >= 0 and k >= 0 else ZERO

    @property
    def is_zero(self) -> bool:
        return not any(nums for _, nums in self._rows)

    def first_nonzero(self):
        """((j, k), coefficient) minimizing total degree then x-degree."""
        key = min(((j + nums[0][0], j) for j, (_, nums) in enumerate(self._rows)
                   if nums), default=None)
        if key is None:
            return None
        d, ((l, r, i), *_) = self._rows[key[1]]
        return (key[1], l), QI(r, i, d)

    def y_order(self) -> int | None:
        return min((nums[0][0] for _, nums in self._rows if nums), default=None)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        ny = min(self.ny, other.ny)
        return all(_over(_cut(na, ny), db) == _over(_cut(nb, ny), da)
                   for (da, na), (db, nb) in zip(self._rows, other._rows))

    __hash__ = None

    def __repr__(self):
        cells = sum(len(nums) for _, nums in self._rows)
        return f"<series2 rect={self.rect} nonzero_cells={cells}>"

    # -- ring ops; the row-local operations are those of _Rows2 ----------------

    # bound here as well as exp: perfbench/spans.py wraps the products and
    # exp it finds in vars(TruncSeries2)
    __mul__ = __rmul__ = _Rows2.__mul__

    # -- transcendental -----------------------------------------------------------

    exp = _Rows2.exp

    def log(self) -> "TruncSeries2":
        """L = log(u) row by row in x: L_0 = log(u(0, y)) and
        L_k = (u_k - sum_{j=1..k} (1 - j/k)*u_j*L_{k-j}) / u_0."""
        u0 = self.row(0)._unit()
        return _row_recurrence(self, u0.log()._row, -1, 1, t=self,
                               mu=u0.inverse()._row)

    def pow_frac(self, alpha) -> "TruncSeries2":
        """Principal formal branch u^alpha = exp(alpha*log(u)); needs
        u(0, 0) = 1.  P_0 = u(0, y)^alpha and Miller's recurrence
        k*P_k = sum_{j=1..k} ((alpha+1)*j - k)*u_j*P_{k-j} / u_0."""
        alpha = Fraction(alpha)
        u0 = self.row(0)._unit()
        p, q = alpha.numerator, alpha.denominator
        return _row_recurrence(self, u0.pow_frac(alpha)._row, -q, p + q, q,
                               mu=u0.inverse()._row)

    # -- substitution ---------------------------------------------------------------

    def substitute_y(self, g: "TruncSeries2") -> "TruncSeries2":
        """Substitute the y-variable by a bivariate series g(x, y) with
        g(0, y) = y; any other g raises :class:`SeriesError`.

        With g = y + delta, delta of x-order >= 1, this is the Taylor shift
        f(x, y + delta) = sum_{k <= nx} delta^k * D_k f with
        (D_k f)_{j,l} = C(l+k, k) * f_{j,l+k} over the d of f's row j, evaluated
        by :func:`_horner` in delta: at most nx bivariate products.

        With g of y-order >= 1 the full common rectangle carries over.  When
        delta has y^0 terms, terms beyond the outer truncation can reach low
        y-orders, so the guaranteed region is capped by total degree
        (:func:`_capped_ny`): ny = min(g.ny, self.ny - nx), as g has total
        order 1 unless g.ny = 0.  An :class:`OnlineSeries2` g gives an
        online result on the uncapped rectangle.
        """
        d, nums = g._row(0)
        if list(nums) != ([(1, d, 0)] if g.ny else []):
            raise SeriesError("substitute_y needs g(0, y) = y")
        online = isinstance(g, OnlineSeries2)
        nx = min(self.nx, g.nx)
        ny = min(self.ny, g.ny)
        if not online and g.y_order() == 0:
            ny = _capped_ny(g, nx, ny, self.ny)
        delta = OnlineSeries2(g.nx, g.ny, lambda k: g._row(k) if k else (1, []))
        f = self._rows[: nx + 1]
        # no D_j f with j > top has a nonzero cell on rows <= nx - j
        top = max((min(c[0], nx - i) for i, (_, row) in enumerate(f)
                   for c in row), default=0)

        def shifted(j):
            # cells f_{i,l+j} beyond the outer truncation meet delta^j, of
            # y-order >= j (total order >= j when delta has y^0 terms), so
            # they land outside the rectangle and count as zero
            return lambda i: (f[i][0], [
                (l - j, r * (b := math.comb(l, j)), im * b)
                for l, r, im in f[i][1] if j <= l <= ny + j])

        out = _horner(top, shifted, delta, nx, ny)
        return out if online else out.to_series()

    # -- serialization -----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"trunc": [self.nx, self.ny],
                "coeffs": [[coeff_str(c) for c in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries2":
        nx, ny = obj["trunc"]
        rows = [[coeff_from_json(raw) for raw in raw_row] for raw_row in obj["coeffs"]]
        return cls(rows, nx, ny)


# ---------------------------------------------------------------------------
# online bivariate series
# ---------------------------------------------------------------------------


class OnlineSeries2(_Rows2):
    """A bivariate series on the rectangle (nx, ny) computed one x-row at a
    time (relaxed evaluation with the naive product; van der Hoeven, "Relax,
    but don't be too lazy", J. Symb. Comp. 34, 2002): ``s._row(k)`` computes
    the rows up to k from rows <= k of the inputs, once and in order, and
    keeps them; reading row k while it is being computed raises
    :class:`SeriesError`, and a row whose computation raised is retried.
    Its operations give the eager cells and rectangles, but ``substitute_y``
    by a g with y^0 terms leaves out the cap that depends on every row of g."""

    __slots__ = ("nx", "ny", "_rows", "_make", "_busy")

    def __init__(self, nx: int, ny: int, make):
        self.nx, self.ny, self._make = nx, ny, make
        self._rows, self._busy = [], False

    def _row(self, k: int):
        rows = self._rows
        while len(rows) <= k:
            if self._busy:
                raise SeriesError(f"row {len(rows)} of an online series is "
                                  "read while it is being computed")
            self._busy = True
            try:
                rows.append(self._make(len(rows)))
            finally:
                self._busy = False
        return rows[k]

    def to_series(self) -> TruncSeries2:
        return TruncSeries2._new(self.nx, self.ny, self._row)

    def _new(self, nx: int, ny: int, rows):
        return OnlineSeries2(nx, ny, rows)


# ---------------------------------------------------------------------------
# division and composition
# ---------------------------------------------------------------------------


def divide(a: TruncSeries1, b: TruncSeries1) -> TruncSeries1:
    """Laurent quotient a/b; b must have a nonzero stored coefficient.

    With b = w^v * u, u(0) != 0, the cells of a/u follow from
    q_k = (a_k - sum_{j=1..k} u_j * q_{k-j}) / u_0 on the truncation a product
    a * (1/u) would claim.
    """
    v = b.order()
    if v is None:
        raise ZeroDivisionError("division by a series that is zero up to truncation")
    unit = b.shift(-v)
    trunc = min(a.trunc, unit.trunc - a.pole)
    # mu = 1/u_0 = d/(r + i*1j) and c0 = a_0/u_0, as (re, im, den)
    d, (_, r, i) = unit.den, unit.nums[0]
    md, ((_, mr, mi),) = _reduced((r * r + i * i, [(0, d * r, -d * i)]))
    ar, ai = a.nums[0][1:] if a.nums and not a.nums[0][0] else (0, 0)
    c0 = (mr * ar - mi * ai, mr * ai + mi * ar, md * a.den)
    row = _recurrence(unit._row, trunc + a.pole, c0, -1, 0, t=a._row,
                      mu=(mr, mi, md))
    return TruncSeries1._new(a.pole, trunc, row).shift(-v)


def compose(outer: TruncSeries1, inner):
    """Composition outer(inner); inner must have zero constant term.

    If the outer series has a pole part, the inner series must have order
    exactly 1 (otherwise negative powers do not exist as Laurent series).

    A bivariate inner g needs g(0, y) = y, else :class:`SeriesError`; outer(g)
    is then the Taylor shift embed_y(outer).substitute_y(g), at most nx
    bivariate products, claimed on nx + ny <= outer.trunc.
    """
    if isinstance(inner, (TruncSeries2, OnlineSeries2)):
        return _compose_1_2(outer, inner)
    return _compose_1_1(outer, inner)


def _compose_1_1(outer: TruncSeries1, inner: TruncSeries1) -> TruncSeries1:
    if inner.pole != 0:
        raise SeriesError("inner series of a composition cannot have a pole")
    v = inner.order()
    if v == 0:
        raise SeriesError("inner series must have zero constant term")
    if v is None:
        v = inner.trunc + 1
    if outer.pole > 0 and v != 1:
        raise SeriesError(
            "outer pole part needs an invertible inner series (order exactly 1)"
        )
    cap = (outer.trunc + 1) * v - 1
    n = inner.trunc
    cells = {l - outer.pole: (r, i, outer.den) for l, r, i in outer.nums}
    acc = _power_sum(TruncSeries1.one(n)._times(cells.get(0, (0, 0, 1))),
                     inner, cells)
    if outer.pole > 0:
        acc = _power_sum(acc, divide(TruncSeries1.one(n), inner),
                         {-k: c for k, c in cells.items() if k < 0})
    return acc.truncate(min(acc.trunc, cap))


def _compose_1_2(outer: TruncSeries1, inner):
    if outer.pole > 0:
        raise SeriesError("pole-part composition with a bivariate inner series")
    nums = inner._row(0)[1]
    if nums and nums[0][0] == 0:
        raise SeriesError("inner series must have zero constant term")
    nx = inner.nx
    # an online g must have g(0, y) = y, which makes its total order 1
    ny = _capped_ny(inner, nx, inner.ny, outer.trunc,
                    1 if isinstance(inner, OnlineSeries2) else None)
    # the Taylor shift reads no column of outer above nx + ny
    outer = outer.truncate(min(outer.trunc, nx + ny))
    return TruncSeries2.embed_y(outer, nx).substitute_y(inner).restrict(nx, ny)
