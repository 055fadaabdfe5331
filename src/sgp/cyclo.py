"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value of order N is stored in the reduced power basis
{1, z, ..., z^(phi(N)-1)} of Q(zeta_N) = Q[x]/Phi_N(x), where z = zeta_N
denotes the primitive root e^(2*pi*i/N) and Phi_N is the N-th cyclotomic
polynomial.  Coefficients are rationals; internally each value keeps an
integer numerator vector plus a single positive denominator with
gcd(content, denominator) = 1, so the representation is canonical: two
values of the same order are equal exactly when their stored vectors
coincide.  Values of different orders are compared after lifting both to
the lcm order; no automatic order minimization is performed.

Every operation that makes a value from exponents (lifting, conjugation,
products and `weighted_product_sum`) fills an integer buffer indexed by
raw exponents of zeta_m and ends in the one reduction routine `_reduce`,
which folds the exponents at or above phi(m) back into the power basis.

Everything here is immutable and every operation is a pure function, so
values can be shared freely across workers.  The cached cyclotomic
polynomials and power-reduction tables are memoized pure functions.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .errors import InvalidLiftError, InvalidOrderError

__all__ = [
    "Rational",
    "Cyclotomic",
    "zeta",
    "rational",
    "lift",
    "approx",
    "as_rational_integer",
    "cyclotomic_polynomial",
    "euler_phi",
    "weighted_product_sum",
]

#: Rational scalars are plain `fractions.Fraction` values: arbitrary
#: precision, always normalized with a positive denominator.
Rational = Fraction


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise InvalidOrderError(f"order must be a positive integer, got {n}")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Long division by a monic integer polynomial; remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n;
    the divisions are exact over the integers because each Phi_d is monic.
    """
    if n < 1:
        raise InvalidOrderError(f"cyclotomic order must be >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of x^k mod Phi_n for 0 <= k < 2n.

    Row k is the reduced power-basis vector of zeta_n^k; exponents up to
    2n - 2 are all that products, conjugation, and lifting ever need.
    """
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    rows = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        rows.append(tuple(row))
    cur = list(rows[-1])
    for _ in range(phi, 2 * n):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            # x^phi == -(Phi_n - x^phi) since Phi_n is monic
            for i in range(phi):
                cur[i] -= lead * mod[i]
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce(m: int, buf: list[int], den: int) -> "Cyclotomic":
    """The value sum(buf[e] * zeta_m^e) / den in canonical form, for e < 2m.

    Every exponent at or above phi(m) is folded back into the power basis
    through its `_power_rows` row; `buf` is consumed.
    """
    phi = euler_phi(m)
    rows = _power_rows(m)
    for e in range(phi, len(buf)):
        c = buf[e]
        if c:
            for t, r in enumerate(rows[e]):
                if r:
                    buf[t] += c * r
    return Cyclotomic._make(m, buf[:phi], den)


class Cyclotomic:
    """An exact element of Q(zeta_order) in canonical power-basis form."""

    __slots__ = ("order", "_num", "_den")

    order: int

    def __init__(self, order: int, coeffs) -> None:
        """Build a value from `phi(order)` rational power-basis coefficients."""
        if order < 1:
            raise InvalidOrderError(f"order must be a positive integer, got {order}")
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(fracs)}"
            )
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        made = Cyclotomic._make(order, [int(f * den) for f in fracs], den)
        object.__setattr__(self, "order", made.order)
        object.__setattr__(self, "_num", made._num)
        object.__setattr__(self, "_den", made._den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @staticmethod
    def _make(order: int, num, den: int) -> "Cyclotomic":
        if den < 0:
            den = -den
            num = [-a for a in num]
        g = den
        for a in num:
            if a:
                g = math.gcd(g, a)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [a // g for a in num]
        self = object.__new__(Cyclotomic)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)
        return self

    # -- representation ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as rationals, length phi(order)."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    def key(self, m: int) -> tuple[tuple[int, ...], int]:
        """The value lifted to Q(zeta_m) as (numerators, denominator).

        Two values are equal exactly when their keys at one m are equal, so
        the key can index a dict where `Cyclotomic` itself cannot.
        """
        v = self.lift(m)
        return v._num, v._den

    def as_rational(self) -> Fraction | None:
        """The value as a rational, or None when it is irrational."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    def as_rational_integer(self) -> int | None:
        """The value as an int, or None: a refusal distinct from any integer."""
        q = self.as_rational()
        if q is None or q.denominator != 1:
            return None
        return int(q)

    def approx(self) -> complex:
        """Float embedding zeta_N -> e^(2*pi*i/N); for validation only."""
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for a in reversed(self._num):
            acc = acc * z + a
        return acc / self._den

    def __str__(self) -> str:
        if not any(self._num):
            return "0"
        parts: list[str] = []
        for k, a in enumerate(self._num):
            if not a:
                continue
            q = Fraction(a, self._den)
            mag = abs(q)
            if k == 0:
                term = str(mag)
            else:
                base = f"z{self.order}" + (f"^{k}" if k > 1 else "")
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if q > 0 else f"-{term}")
            else:
                parts.append((" + " if q > 0 else " - ") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}: {self})"

    # -- conversions -------------------------------------------------------

    def lift(self, m: int) -> "Cyclotomic":
        """Re-express the value in Q(zeta_m); m must be a multiple of order."""
        if m < 1 or m % self.order:
            raise InvalidLiftError(f"cannot lift order {self.order} into order {m}")
        return self._lifted(m)

    def _lifted(self, m: int) -> "Cyclotomic":
        if m == self.order:
            return self
        ratio = m // self.order
        buf = [0] * m
        for i, a in enumerate(self._num):
            buf[i * ratio] = a
        return _reduce(m, buf, self._den)

    @staticmethod
    def _coerce(value) -> "Cyclotomic | None":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            f = Fraction(value)
            return Cyclotomic._make(1, [f.numerator], f.denominator)
        return None

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "Cyclotomic"):
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self._lifted(m), other._lifted(m)

    def __add__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        if a._den == b._den:
            return Cyclotomic._make(a.order, [x + y for x, y in zip(a._num, b._num)], a._den)
        da, db = a._den, b._den
        return Cyclotomic._make(a.order, [x * db + y * da for x, y in zip(a._num, b._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return Cyclotomic._make(self.order, [-a for a in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic._make(self.order, [a * other for a in self._num], self._den)
        if isinstance(other, Fraction):
            return Cyclotomic._make(
                self.order,
                [a * other.numerator for a in self._num],
                self._den * other.denominator,
            )
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        buf = [0] * (2 * len(a._num) - 1)
        bn = b._num
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        buf[i + j] += x * y
        return _reduce(a.order, buf, a._den * b._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return self * Fraction(f.denominator, f.numerator)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers of cyclotomic values are not supported")
        result = Cyclotomic._make(self.order, [1] + [0] * (len(self._num) - 1), 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: zeta^k -> zeta^(N-k) applied before reduction."""
        n = self.order
        buf = [0] * n
        for i, a in enumerate(self._num):
            buf[(n - i) % n] = a
        return _reduce(n, buf, self._den)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._den == 1 and not any(self._num[1:]) and self._num[0] == other
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a._den == b._den and a._num == b._num

    def __bool__(self):
        return any(self._num)


def zeta(order: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_order^k in canonical form (k reduced mod order)."""
    if order < 1:
        raise InvalidOrderError(f"order must be a positive integer, got {order}")
    rows = _power_rows(order)
    return Cyclotomic._make(order, list(rows[k % order]), 1)


def rational(value) -> Cyclotomic:
    """Embed an integer or Fraction as a cyclotomic value of order 1."""
    f = Fraction(value)
    return Cyclotomic._make(1, [f.numerator], f.denominator)


def lift(x: Cyclotomic, m: int) -> Cyclotomic:
    """Lift x into Q(zeta_m); the numeric value is unchanged."""
    return x.lift(m)


def approx(x: Cyclotomic) -> complex:
    """Complex float embedding of x (never feeds back into exact math)."""
    return x.approx()


def as_rational_integer(x: Cyclotomic) -> int | None:
    """Certify x as an integer, returning None as the refusal value."""
    return x.as_rational_integer()


def weighted_product_sum(fs, gs, weights=None) -> Cyclotomic:
    """Exact sum of w * f * g over aligned triples, with integer weights.

    Equivalent to `sum(w * f * g)` but adds every term into one buffer at
    its raw exponent in zeta_m, m the lcm of all orders, and reduces modulo
    the cyclotomic polynomial once at the end; no lifted value is built.
    Orthogonality validation calls this with thousands of terms.
    """
    fs = list(fs)
    gs = list(gs)
    if weights is None:
        weights = [1] * len(fs)
    m = 1
    for f, g in zip(fs, gs):
        m = math.lcm(m, f.order, g.order)
    buf = [0] * (2 * m - 1)
    den = 1
    for f, g, w in zip(fs, gs, weights):
        if not w:
            continue
        d = f._den * g._den
        if d != den:
            new_den = math.lcm(den, d)
            if new_den != den:
                scale = new_den // den
                for t, v in enumerate(buf):
                    if v:
                        buf[t] = v * scale
                den = new_den
            w = w * (den // d)
        fr = m // f.order
        gr = m // g.order
        gn = g._num
        for i, a in enumerate(f._num):
            if a:
                wa = w * a
                fi = i * fr
                for j, b in enumerate(gn):
                    if b:
                        buf[fi + j * gr] += wa * b
    return _reduce(m, buf, den)
