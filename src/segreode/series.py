"""Exact truncated formal power/Laurent series in one and two variables.

Conventions
-----------
* A :class:`TruncSeries1` stores coefficients for degrees ``-pole .. trunc``.
  Degrees above ``trunc`` are *unknown*, never assumed zero; every operation
  propagates the guaranteed truncation pessimistically (min rules), so the
  ``trunc`` field of a result is always a sound guarantee.
* A :class:`TruncSeries2` holds the cells of ``x^j * y^k``, ``0 <= j <= nx``,
  ``0 <= k <= ny``, and has no pole part.  It stores them as Gaussian-integer
  numerator rows over one positive denominator, the layout of FLINT's
  ``fmpq_poly``: row j keeps its nonzero cells as (k, re, im), and
  gcd(den, every re and im) = 1.  ``rows``, ``coefficient`` and the other
  queries build the reduced cells from the numerators when asked.
* Every cell is a Gaussian rational :class:`segreode.coefficients.QI`;
  floats and complex numbers are rejected.
* Values are immutable; all operations are pure functions and safe to share
  across threads.

Every series product runs through one kernel, :func:`_conv`, which convolves
numerator rows over Gaussian integers; a univariate product is its one-row
case.  The bivariate operations are integer loops over numerator rows, each
with at most one content-gcd reduction, so no ``QI`` is built until a cell
is read.

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
row-local operations (:class:`_Rows2`) and the Taylor shift, Horner in
delta = g - y (:func:`_horner`), are written once for eager and online series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
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
    cells = cells[: n + 1]
    den = math.lcm(*[c.d for c in cells])
    return den, [(l, c.a * (m := den // c.d), c.b * m)
                 for l, c in enumerate(cells) if c.a or c.b]


def _product(a, b, n: int):
    """The cells 0..n of the product of two univariate cell arrays, each
    put over one common denominator, so the convolution runs over Gaussian
    integers."""
    return _cells(*_conv([_numerators(a, n)], [_numerators(b, n)], 0, n)[0], n)


def _conv(sa, sb, nx: int, ny: int, lo: int = 0, weight=None):
    """The one product kernel: numerator rows (d, nums) in, those of the
    product out on the x-rows lo..nx of the rectangle (nx, ny).  Row k sums
    the products of the nonzero rows i of sa and k - i of sb, times
    ``weight(i)`` if given (weight 0 leaves the pair out), over the lcm of
    the pairs' denominators."""
    out = []
    for k in range(lo, nx + 1):
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
        out.append((den, _sparse(acc_r, acc_i)))
    return out


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


def _cut(nums, ny: int):
    """The numerators without the cells beyond column ny."""
    return [c for c in nums if c[0] <= ny] if nums and nums[-1][0] > ny else nums


def _gather(rows):
    """Numerator rows (d, nums) over one denominator, the lcm of theirs,
    divided by the content of all cells: (den, [nums])."""
    den = math.lcm(*[d for d, _ in rows])
    nums = [ns if d == den else _over(ns, den // d) for d, ns in rows]
    g = den
    for _, r, i in chain.from_iterable(nums):
        g = math.gcd(g, r, i)
        if g == 1:
            return den, nums
    return den // g, [_over(ns, 1, g) for ns in nums]


def _reduced(row):
    """The numerator row divided by its content."""
    d, (nums,) = _gather([row])
    return d, nums


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


def _power_sum(acc, base, kmax: int, coeff):
    """acc + sum_{k=1..kmax} coeff(k) * base^k, skipping zero coefficients;
    powering stops at the last nonzero coefficient.  Univariate composition
    (:func:`_compose_1_1`) is its only caller."""
    coeffs = [coeff(k) for k in range(1, kmax + 1)]
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    for c, power in zip(coeffs, _powers(base, len(coeffs))):
        if not c.is_zero:
            acc = acc + power.scale(c)
    return acc


def _horner(top: int, coeff, base, nx: int, ny: int):
    """sum_{j=0..top} C_j * base^j on the rectangle (nx, ny) by Horner,
    H_j = C_j + H_{j+1} * base, as online sums and products, where
    ``coeff(j)`` maps i to row i of C_j as a numerator row.  base has x-order
    vx >= 1, so row k of H_{j+1} * base reads rows <= k - vx of H_{j+1}:
    H_j is computed on the rows up to nx - j*vx only."""
    acc = OnlineSeries2(nx, ny, coeff(top), False)
    for j in range(top - 1, -1, -1):
        acc = OnlineSeries2(nx, ny, coeff(j), False) + acc * base
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


def _pow_int(result, base, n: int):
    """result * base^n by binary powering, n >= 0."""
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _recurrence(w: Sequence[QI], n: int, c0: QI, a: int, b: int, q: int = 1,
                t: Sequence[QI] | None = None, mu: QI = ONE):
    """Cells c_0 .. c_n of a series defined online by the cells of ``w``:

        c_k = mu * (t_k + (a*k*s0 + b*s1) / (q*k))   for k >= 1,
        s0 = sum_{j=1..k} w_j * c_{k-j},   s1 = sum_{j=1..k} j * w_j * c_{k-j},

    with integers a, b and q != 0, and t_k = 0 when ``t`` is None; only
    w_1 .. w_n are read.  The combined sum runs over Gaussian integers: w_j
    over the common denominator of w_1 .. w_n and c_0 .. c_{k-1} over their
    running common denominator, so each step builds one reduced QI.
    """
    dw, row = _numerators(w[1: n + 1], n)
    ws = [(l + 1, b * (l + 1), wr, wi) for l, wr, wi in row]
    out = []
    nums = []  # (re, im) numerators of c_0 .. c_{k-1} over dc
    dc = 1
    cell = c0
    for k in range(n + 1):
        if k:
            ak = a * k
            r = i = 0
            for j, bj, wr, wi in ws:
                if j > k:
                    break
                cr, ci = nums[k - j]
                wt = ak + bj
                r += wt * (wr * cr - wi * ci)
                i += wt * (wr * ci + wi * cr)
            den = q * k * dw * dc
            tk = t[k] if t is not None else ZERO
            if not tk.is_zero:
                r, i = r * tk.d + tk.a * den, i * tk.d + tk.b * den
                den *= tk.d
            cell = (QI(r * mu.a - i * mu.b, r * mu.b + i * mu.a, den * mu.d)
                    if r or i else ZERO)
        out.append(cell)
        d = cell.d
        if dc % d:
            grow = d // math.gcd(dc, d)
            dc *= grow
            nums = [(cr * grow, ci * grow) for cr, ci in nums]
        m = dc // d
        nums.append((cell.a * m, cell.b * m))
    return out


def _row_recurrence(w, c0: Sequence[QI], a: int, b: int, q: int = 1,
                    t=None, mu: Sequence[QI] | None = None):
    """The bivariate series of the kind of ``w`` whose x-rows c_0, c_1, ...
    (y-polynomials mod y^(ny+1)) follow online from the x-rows of ``w``:

        c_k = mu * (t_k + (a*k*s0 + b*s1) / (q*k))   for k >= 1,
        s0 = sum_{j=1..k} w_j * c_{k-j},   s1 = sum_{j=1..k} j * w_j * c_{k-j},

    the twin of :func:`_recurrence`; mu = 1 when None and t_k = 0 when ``t``
    is None.  Row k reads rows <= k of ``w`` and ``t``, eager or online; the
    sums are one weighted row of :func:`_conv`, and each row is reduced once."""
    ny = w.ny
    ms = None if mu is None else [_numerators(mu, ny)]
    ws, cs = [(1, [])], []  # rows w_0 = 0, w_1 .. w_k and c_0 .. c_{k-1}

    def row(k):  # called for k = 0, 1, ... in order
        if not k:
            cs.append(_numerators(c0, ny))
            return cs[0]
        ws.append(w._row(k))
        den, nums = _conv(ws, cs, k, ny, k, lambda j: a * k + b * j)[0]
        out = (den * q * k, nums)
        if t is not None:
            out = _sum(out, t._row(k), ny)
        if ms is not None:
            out = _conv([out], ms, 0, ny)[0]
        cs.append(_reduced(out))
        return cs[k]

    return w._new(w.nx, ny, row, True)


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------


class TruncSeries1:
    """Univariate truncated Laurent series: degrees ``-pole .. trunc``."""

    __slots__ = ("pole", "trunc", "coeffs")

    def __init__(self, coeffs: Sequence, pole: int = 0, trunc: int | None = None):
        if trunc is None:
            trunc = len(coeffs) - 1 - pole
        if len(coeffs) != trunc + pole + 1:
            raise SeriesError(
                f"coefficient list length {len(coeffs)} != trunc {trunc} + pole {pole} + 1"
            )
        if trunc < 0:
            raise TruncationStarvation(f"truncation order {trunc} < 0")
        cells = [c if isinstance(c, QI) else _as_cell(c) for c in coeffs]
        # strip structural zeros below the first nonzero to normalize the pole
        while pole > 0 and cells[0].is_zero:
            cells.pop(0)
            pole -= 1
        if pole > POLE_CAP:
            raise PoleOverflow(f"pole order {pole} exceeds cap {POLE_CAP}")
        object.__setattr__(self, "pole", pole)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", tuple(cells))

    def __setattr__(self, *_):
        raise AttributeError("series are immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "TruncSeries1":
        return cls([ZERO] * (trunc + 1), 0, trunc)

    @classmethod
    def constant(cls, value: Scalar, trunc: int) -> "TruncSeries1":
        cells = [ZERO] * (trunc + 1)
        cells[0] = _as_cell(value)
        return cls(cells, 0, trunc)

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries1":
        return cls.constant(1, trunc)

    @classmethod
    def var(cls, trunc: int) -> "TruncSeries1":
        return cls.monomial(1, 1, trunc)

    @classmethod
    def monomial(cls, value: Scalar, degree: int, trunc: int) -> "TruncSeries1":
        pole = max(0, -degree)
        if degree > trunc:
            raise TruncationStarvation(f"monomial degree {degree} above trunc {trunc}")
        cells = [ZERO] * (trunc + pole + 1)
        cells[degree + pole] = _as_cell(value)
        return cls(cells, pole, trunc)

    @classmethod
    def from_terms(cls, terms: dict, trunc: int) -> "TruncSeries1":
        pole = max(0, -min(terms.keys(), default=0))
        cells = [ZERO] * (trunc + pole + 1)
        for deg, val in terms.items():
            if deg > trunc:
                raise TruncationStarvation(f"term degree {deg} above trunc {trunc}")
            cells[deg + pole] = _as_cell(val)
        return cls(cells, pole, trunc)

    # -- queries ----------------------------------------------------------

    def coefficient(self, degree: int) -> QI:
        """Coefficient at ``degree``; degrees above trunc are unknown."""
        if degree > self.trunc:
            raise TruncationStarvation(
                f"coefficient of degree {degree} is beyond truncation {self.trunc}"
            )
        if degree < -self.pole:
            return ZERO
        return self.coeffs[degree + self.pole]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def order(self) -> int | None:
        """Degree of the lowest nonzero stored coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                return i - self.pole
        return None

    def first_nonzero(self):
        """(degree, coefficient) of the lowest nonzero term, or None."""
        v = self.order()
        if v is None:
            return None
        return v, self.coefficient(v)

    def first_nonreal(self):
        """(degree, coefficient) of the lowest coefficient with a nonzero
        imaginary part, or None."""
        for deg, c in self.items():
            if not c.is_real:
                return deg, c
        return None

    def items(self):
        for i, c in enumerate(self.coeffs):
            yield i - self.pole, c

    def __eq__(self, other):
        """Equality of all coefficients up to the common truncation."""
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        hi = min(self.trunc, other.trunc)
        lo = -max(self.pole, other.pole)
        if hi < lo:
            return True
        for k in range(lo, hi + 1):
            if self.coefficient(k) != other.coefficient(k):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        shown = []
        for deg, c in self.items():
            if not c.is_zero:
                shown.append(f"({c})*w^{deg}" if deg else f"({c})")
            if len(shown) >= 6:
                break
        body = " + ".join(shown) if shown else "0"
        return f"<series {body} + O(w^{self.trunc + 1})>"

    # -- structural ops ---------------------------------------------------

    def truncate(self, trunc: int) -> "TruncSeries1":
        if trunc > self.trunc:
            raise TruncationStarvation(
                f"cannot extend truncation {self.trunc} to {trunc}"
            )
        if trunc == self.trunc:
            return self
        return TruncSeries1(list(self.coeffs[: trunc + self.pole + 1]),
                            self.pole, trunc)

    def shift(self, k: int) -> "TruncSeries1":
        """Multiply by w^k (exact, k of either sign)."""
        if self.pole - k >= 0:
            return TruncSeries1(list(self.coeffs), self.pole - k, self.trunc + k)
        pad = [ZERO] * (k - self.pole)
        return TruncSeries1(pad + list(self.coeffs), 0, self.trunc + k)

    def conj(self) -> "TruncSeries1":
        return TruncSeries1([c.conj() for c in self.coeffs], self.pole, self.trunc)

    # -- ring ops ----------------------------------------------------------

    def _aligned(self, other):
        pole = max(self.pole, other.pole)
        trunc = min(self.trunc, other.trunc)

        def cells(s):
            out = [ZERO] * (pole - s.pole)
            out.extend(s.coeffs[: trunc + s.pole + 1])
            out.extend([ZERO] * (trunc + pole + 1 - len(out)))
            return out

        return cells(self), cells(other), pole, trunc

    def __add__(self, other):
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        ca, cb, pole, trunc = self._aligned(other)
        return TruncSeries1([x + y for x, y in zip(ca, cb)], pole, trunc)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        ca, cb, pole, trunc = self._aligned(other)
        return TruncSeries1([x - y for x, y in zip(ca, cb)], pole, trunc)

    def __neg__(self):
        return TruncSeries1([-c for c in self.coeffs], self.pole, self.trunc)

    def scale(self, value: Scalar) -> "TruncSeries1":
        c = _as_cell(value)
        return TruncSeries1([c * x for x in self.coeffs], self.pole, self.trunc)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries1):
            return self.scale(other)
        trunc = min(self.trunc - other.pole, other.trunc - self.pole)
        pole = self.pole + other.pole
        if trunc < -pole:
            raise TruncationStarvation("product truncation exhausted")
        cells = _product(self.coeffs, other.coeffs, trunc + pole)
        return TruncSeries1(cells, pole, trunc)

    __rmul__ = __mul__

    def pow_int(self, n: int) -> "TruncSeries1":
        if n < 0:
            return self.inverse().pow_int(-n)
        return _pow_int(TruncSeries1.one(self.trunc), self, n)

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
        pole = self.pole + 1 if self.pole > 0 else 0
        trunc = self.trunc - 1
        cells = [ZERO] * (trunc + pole + 1)
        for deg, c in self.items():
            if deg == 0 or c.is_zero:
                continue
            tgt = deg - 1
            if -pole <= tgt <= trunc:
                cells[tgt + pole] = c * deg
        return TruncSeries1(cells, pole, trunc)

    # -- transcendental -------------------------------------------------------

    def exp(self) -> "TruncSeries1":
        """E = exp(f) by E' = f'*E: k*E_k = sum_{j=1..k} j*f_j*E_{k-j}."""
        if self.pole > 0 or not self.coefficient(0).is_zero:
            raise SeriesError("exp requires a pole-free series with zero constant term")
        cells = _recurrence(self.coeffs, self.trunc, ONE, 0, 1)
        return TruncSeries1(cells, 0, self.trunc)

    def log(self) -> "TruncSeries1":
        """L = log(u) by u*L' = u':
        L_k = u_k - sum_{j=1..k} (1 - j/k)*u_j*L_{k-j}."""
        self._require_unit()
        cells = _recurrence(self.coeffs, self.trunc, ZERO, -1, 1,
                            t=self.coeffs)
        return TruncSeries1(cells, 0, self.trunc)

    def pow_frac(self, alpha) -> "TruncSeries1":
        """Principal formal branch u^alpha = exp(alpha*log(u)); needs u(0) = 1.

        Miller's recurrence from u*P' = alpha*u'*P:
        k*P_k = sum_{j=1..k} ((alpha+1)*j - k)*u_j*P_{k-j}.
        """
        alpha = Fraction(alpha)
        self._require_unit()
        p, q = alpha.numerator, alpha.denominator
        cells = _recurrence(self.coeffs, self.trunc, ONE, -q, p + q, q)
        return TruncSeries1(cells, 0, self.trunc)

    def _require_unit(self):
        if self.pole > 0 or self.coefficient(0) != ONE:
            raise SeriesError("log requires constant term exactly 1")

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
    """Row-local operations, written once for :class:`TruncSeries2` and
    :class:`OnlineSeries2`: ``s._row(k)`` is row k as a numerator row (d,
    nums), its nonzero (l, re, im) by rising l over d > 0; ``s[k]`` is row k
    as cells; ``_new(nx, ny, rows)`` makes a series of the same kind."""

    __slots__ = ()

    @property
    def rect(self):
        return (self.nx, self.ny)

    def __getitem__(self, k: int) -> list:
        return _cells(*self._row(k), self.ny)

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
            return d, _cut([(l + j, r, i) for l, r, i in nums], ny)

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

    def scale(self, value: Scalar):
        c = _as_cell(value)
        ca, cb = c.a, c.b
        return self._rowwise(lambda k, d, ns: (d * c.d, [
            (l, r * ca - i * cb, r * cb + i * ca) for l, r, i in ns] if c else []))

    def pow_int(self, n: int):
        if n < 0:
            raise SeriesError("negative powers of bivariate series are not defined")
        one = TruncSeries2.one(self.nx, self.ny)._row
        return _pow_int(self._new(self.nx, self.ny, one), self, n)

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
        row0 = TruncSeries1(self[0], 0, self.ny)
        if not row0.coeffs[0].is_zero:
            raise SeriesError("exp requires zero constant term")
        return _row_recurrence(self, row0.exp().coeffs, 0, 1)


class TruncSeries2(_Rows2):
    """Bivariate truncated power series on the rectangle (nx, ny), no poles:
    numerator rows ``nums`` over ``den``, and ``rows``, their cells."""

    __slots__ = ("nx", "ny", "den", "nums")

    def __init__(self, rows: Sequence[Sequence], nx: int | None = None,
                 ny: int | None = None):
        nx = len(rows) - 1 if nx is None else nx
        ny = (len(rows[0]) - 1 if rows else 0) if ny is None else ny
        if min(nx, ny) >= 0 and (len(rows) != nx + 1
                                 or any(len(r) != ny + 1 for r in rows)):
            raise SeriesError("rectangle shape mismatch")
        self._set(nx, ny, *_gather([_numerators([
            c if isinstance(c, QI) else _as_cell(c) for c in r], ny)
            for r in rows[: nx + 1]]))

    def _set(self, nx: int, ny: int, den: int, nums):
        if nx < 0 or ny < 0:
            raise TruncationStarvation(f"rectangle ({nx}, {ny}) is empty")
        for name, value in zip(self.__slots__, (nx, ny, den, tuple(nums))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("series are immutable")

    def _row(self, k: int):
        return self.den, self.nums[k]

    @property
    def rows(self) -> tuple:
        return tuple(tuple(self[k]) for k in range(self.nx + 1))

    @staticmethod
    def _new(nx: int, ny: int, rows, memo: bool = False):
        """The series whose row k is the numerator row rows(k)."""
        out = object.__new__(TruncSeries2)
        out._set(nx, ny, *_gather([rows(k) for k in range(nx + 1)]))
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
        rows = [[ZERO] * (ny + 1) for _ in range(nx + 1)]
        for j, s in rows_map.items():
            if j > nx:
                raise TruncationStarvation(f"row {j} above nx {nx}")
            if s.pole != 0:
                raise SeriesError("row series must be pole-free")
            if s.trunc < ny:
                raise TruncationStarvation(
                    f"row {j} known only to order {s.trunc} < ny {ny}")
            rows[j] = s.coeffs[: ny + 1]
        return cls(rows, nx, ny)

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

    def row(self, j: int) -> TruncSeries1:
        """The coefficient series of x^j, as a univariate series in y."""
        if j > self.nx:
            raise TruncationStarvation(f"row {j} beyond nx {self.nx}")
        return TruncSeries1(self[j], 0, self.ny)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def first_nonzero(self):
        """((j, k), coefficient) minimizing total degree then x-degree."""
        key = min(((j + nums[0][0], j) for j, nums in enumerate(self.nums)
                   if nums), default=None)
        if key is None:
            return None
        l, r, i = self.nums[key[1]][0]
        return (key[1], l), QI(r, i, self.den)

    def y_order(self) -> int | None:
        return min((nums[0][0] for nums in self.nums if nums), default=None)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        nx, ny = min(self.nx, other.nx), min(self.ny, other.ny)
        return all(_cut(_over(ra, other.den), ny) == _cut(_over(rb, self.den), ny)
                   for ra, rb in zip(self.nums[: nx + 1], other.nums))

    __hash__ = None

    def __repr__(self):
        return f"<series2 rect={self.rect} nonzero_cells={sum(map(len, self.nums))}>"

    # -- ring ops; the row-local operations are those of _Rows2 ----------------

    def __mul__(self, other):
        if isinstance(other, OnlineSeries2):
            return NotImplemented  # OnlineSeries2.__rmul__ multiplies online
        if not isinstance(other, TruncSeries2):
            return self.scale(other)
        nx, ny = min(self.nx, other.nx), min(self.ny, other.ny)
        rows = _conv([self._row(k) for k in range(nx + 1)],
                     [other._row(k) for k in range(nx + 1)], nx, ny)
        return self._new(nx, ny, rows.__getitem__)

    __rmul__ = __mul__

    # -- transcendental -----------------------------------------------------------

    exp = _Rows2.exp

    def log(self) -> "TruncSeries2":
        """L = log(u) row by row in x: L_0 = log(u(0, y)) and
        L_k = (u_k - sum_{j=1..k} (1 - j/k)*u_j*L_{k-j}) / u_0."""
        u0 = self._unit_row0()
        return _row_recurrence(self, u0.log().coeffs, -1, 1, t=self,
                               mu=u0.inverse().coeffs)

    def pow_frac(self, alpha) -> "TruncSeries2":
        """Principal formal branch u^alpha = exp(alpha*log(u)); needs
        u(0, 0) = 1.  P_0 = u(0, y)^alpha and Miller's recurrence
        k*P_k = sum_{j=1..k} ((alpha+1)*j - k)*u_j*P_{k-j} / u_0."""
        alpha = Fraction(alpha)
        u0 = self._unit_row0()
        p, q = alpha.numerator, alpha.denominator
        return _row_recurrence(self, u0.pow_frac(alpha).coeffs, -q, p + q, q,
                               mu=u0.inverse().coeffs)

    def _unit_row0(self) -> TruncSeries1:
        if self.coefficient(0, 0) != ONE:
            raise SeriesError("log requires constant term exactly 1")
        return self.row(0)

    # -- substitution ---------------------------------------------------------------

    def substitute_y(self, g: "TruncSeries2") -> "TruncSeries2":
        """Substitute the y-variable by a bivariate series g(x, y) with
        g(0, y) = y; any other g raises :class:`SeriesError`.

        With g = y + delta, delta of x-order >= 1, this is the Taylor shift
        f(x, y + delta) = sum_{k <= nx} delta^k * D_k f with
        (D_k f)_{j,l} = C(l+k, k) * f_{j,l+k} over f's denominator, evaluated
        by :func:`_horner` in delta: at most nx bivariate products.

        With g of y-order >= 1 the full common rectangle carries over.  When
        delta has y^0 terms, terms beyond the outer truncation can reach low
        y-orders, so the guaranteed region is capped by total degree
        (:func:`_capped_ny`): ny = min(g.ny, self.ny - nx), as g has total
        order 1 unless g.ny = 0.  An :class:`OnlineSeries2` g gives an
        online result on the uncapped rectangle.
        """
        d, nums = g._row(0)
        if nums != ([(1, d, 0)] if g.ny else []):
            raise SeriesError("substitute_y needs g(0, y) = y")
        online = isinstance(g, OnlineSeries2)
        nx = min(self.nx, g.nx)
        ny = min(self.ny, g.ny)
        if not online and g.y_order() == 0:
            ny = _capped_ny(g, nx, ny, self.ny)
        g = _online(g)
        delta = g._new(g.nx, g.ny, lambda k: g._row(k) if k else (1, []))
        f, den = self.nums[: nx + 1], self.den
        # no D_j f with j > top has a nonzero cell on rows <= nx - j
        top = max((min(c[0], nx - i) for i, row in enumerate(f) for c in row),
                  default=0)

        def shifted(j):
            # cells f_{i,l+j} beyond the outer truncation meet delta^j, of
            # y-order >= j (total order >= j when delta has y^0 terms), so
            # they land outside the rectangle and count as zero
            return lambda i: (den, [(l - j, r * (b := math.comb(l, j)), im * b)
                                    for l, r, im in f[i] if j <= l <= ny + j])

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
    row k from rows <= k of the inputs, once and in order, and keeps it (a
    row-local series, memo False, keeps rows only when a product reads them);
    reading row k while it is being computed raises :class:`SeriesError`.
    Its operations give the eager cells and rectangles, but ``substitute_y``
    by a g with y^0 terms leaves out the cap that depends on every row of g."""

    __slots__ = ("nx", "ny", "_rows", "_make", "_memo", "_busy")

    def __init__(self, nx: int, ny: int, make, memo: bool = True):
        self.nx, self.ny, self._make, self._memo = nx, ny, make, memo
        self._rows, self._busy = [], False

    def _stored(self, k: int):
        rows = self._rows
        while len(rows) <= k:
            if self._busy:
                raise SeriesError(f"row {len(rows)} of an online series is "
                                  "read while it is being computed")
            self._busy = True
            rows.append(self._make(len(rows)))
            self._busy = False
        return rows[k]

    def _row(self, k: int):
        return self._stored(k) if self._memo else self._make(k)

    def to_series(self) -> TruncSeries2:
        return TruncSeries2._new(self.nx, self.ny, self._row)

    def _new(self, nx: int, ny: int, rows, memo: bool = False):
        return OnlineSeries2(nx, ny, rows, memo)

    def __mul__(self, other):
        """Row k is sum_i a_i * b_{k-i} by :func:`_conv`.  The lower row of
        each pair is read first and a zero one leaves the other unread, so a
        factor of x-order >= 1 never reads row k of the other."""
        if not isinstance(other, _Rows2):
            return self.scale(other)
        o = _online(other)
        ny = min(self.ny, o.ny)

        def row(k):
            sa, sb = self._rows, o._rows
            for i in range(k + 1):
                if i < len(sa) and k - i < len(sb):
                    continue  # both rows of the pair are stored
                lo, hi = ((self, i), (o, k - i))[:: 1 if 2 * i <= k else -1]
                if lo[0]._stored(lo[1])[1]:
                    hi[0]._stored(hi[1])
            return _reduced(_conv(sa, sb, k, ny, k)[0])

        return OnlineSeries2(min(self.nx, o.nx), ny, row)

    __rmul__ = __mul__


def _online(s) -> OnlineSeries2:
    return s if isinstance(s, OnlineSeries2) else OnlineSeries2(
        s.nx, s.ny, s._row, False)


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
    num = a.coeffs
    inv0 = ONE / unit.coeffs[0]
    cells = _recurrence(unit.coeffs, trunc + a.pole, num[0] * inv0, -1, 0,
                        t=num, mu=inv0)
    return TruncSeries1(cells, a.pole, trunc).shift(-v)


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
    if not inner.coefficient(0).is_zero:
        raise SeriesError("inner series must have zero constant term")
    v = inner.order()
    if v is None:
        v = inner.trunc + 1
    if outer.pole > 0 and v != 1:
        raise SeriesError(
            "outer pole part needs an invertible inner series (order exactly 1)"
        )
    cap = (outer.trunc + 1) * v - 1
    n = inner.trunc
    acc = _power_sum(TruncSeries1.constant(outer.coefficient(0), n), inner,
                     outer.trunc, outer.coefficient)
    if outer.pole > 0:
        acc = _power_sum(acc, divide(TruncSeries1.one(n), inner), outer.pole,
                         lambda k: outer.coefficient(-k))
    return acc if acc.trunc <= cap else acc.truncate(min(acc.trunc, cap))


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
    return TruncSeries2.embed_y(outer, nx).substitute_y(inner).restrict(nx, ny)
