"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value of order N is expressed in the reduced power basis
{1, z, ..., z^(phi(N)-1)} of Q(zeta_N) = Q[x]/Phi_N(x), where z = zeta_N
denotes the primitive root e^(2*pi*i/N) and Phi_N is the N-th cyclotomic
polynomial.  Coefficients are rationals, and only the nonzero ones are
stored: each value keeps a tuple of (exponent, numerator) pairs, sorted by
exponent, every exponent below phi(N) and every numerator a nonzero
integer, plus a single positive denominator coprime to the gcd of the
numerators; zero is no pairs over 1.  The representation is canonical: two
values of the same order are equal exactly when their pairs and
denominators coincide.  Values of different orders are compared after
lifting both to the lcm order; no automatic order minimization is
performed.  Character values of the cyclic, dihedral and dicyclic families
are one or two roots of unity, so a value holds a term or two however
large phi(N) is.

Every operation that makes a value from exponents (lifting, conjugation
and `weighted_product_sums`) adds its terms into a dict keyed by raw
exponents of zeta_m and ends in the one reduction routine `_reduce`,
which folds the nonzero exponents at or above phi(m) back into the power
basis through the sparse rows of `_power_rows`.

`weighted_product_sums` is the one exact product kernel: it sums
w * f * g over aligned terms for one f against many columns g, with one
lcm order for all the columns.  Its one-column call `weighted_product_sum`
serves inner products and table validation, the many-column call serves
decomposition, and the product of two values is its one-term call.

Everything here is immutable and every operation is a pure function, so
values can be shared freely across workers.  A value keeps its conjugate
once `conj` has computed it; that changes no value, so sharing stays
safe.  The cached cyclotomic polynomials and power-reduction tables are
memoized pure functions.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .errors import InvalidLiftError, InvalidOrderError, InvalidParameterError

__all__ = [
    "Cyclotomic",
    "zeta",
    "rational",
    "cyclotomic_polynomial",
    "euler_phi",
    "weighted_product_sum",
    "weighted_product_sums",
]

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
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse coordinates of x^k mod Phi_n for 0 <= k < 2n.

    Row k is zeta_n^k as its sorted nonzero (exponent, numerator) pairs in
    the power basis; exponents up to 2n - 2 are all that products,
    conjugation and lifting ever need.  Each row is the one before it times
    x, with x^phi replaced by -(Phi_n - x^phi) since Phi_n is monic.
    """
    phi = euler_phi(n)
    mod = [(i, c) for i, c in enumerate(cyclotomic_polynomial(n)[:phi]) if c]
    rows = [((k, 1),) for k in range(phi)]
    for _ in range(phi, 2 * n):
        acc = {t + 1: c for t, c in rows[-1]}
        lead = acc.pop(phi, 0)
        if lead:
            for i, c in mod:
                acc[i] = acc.get(i, 0) - lead * c
        rows.append(tuple(sorted(p for p in acc.items() if p[1])))
    return tuple(rows)


def _reduce(m: int, acc: dict[int, int], den: int) -> "Cyclotomic":
    """The value sum(acc[e] * zeta_m^e) / den in canonical form, for e < 2m.

    `acc` maps raw exponents of zeta_m to integer numerators, zeros allowed.
    Only the nonzero exponents at or above phi(m) are folded back into the
    power basis, through their `_power_rows` row.
    """
    phi = euler_phi(m)
    rows = _power_rows(m)
    out: dict[int, int] = {}
    for e, c in acc.items():
        if not c:
            continue
        if e < phi:
            out[e] = out.get(e, 0) + c
        else:
            for t, r in rows[e]:
                out[t] = out.get(t, 0) + c * r
    return Cyclotomic._make(m, sorted([p for p in out.items() if p[1]]), den)


class Cyclotomic:
    """An exact element of Q(zeta_order) in canonical sparse power-basis form."""

    # `_conj` holds the conjugate once `conj` has computed it, and is unset
    # until then; a conjugate never points back, so no value is in a cycle.
    __slots__ = ("order", "_terms", "_den", "_conj")

    order: int

    def __init__(self, order: int, coeffs) -> None:
        """Build a value from `phi(order)` rational power-basis coefficients."""
        order = _order(order)
        fracs = [_exact(c) for c in coeffs]
        if len(fracs) != euler_phi(order):
            raise InvalidParameterError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(fracs)}"
            )
        den = math.lcm(*(f.denominator for f in fracs))
        made = Cyclotomic._make(order, [(e, int(f * den)) for e, f in enumerate(fracs) if f], den)
        _set_order(self, made.order)
        _set_terms(self, made._terms)
        _set_den(self, made._den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @staticmethod
    def _make(order: int, pairs, den: int) -> "Cyclotomic":
        """The canonical value sum(a * zeta_order^e for e, a in pairs) / den.

        `pairs` must already be sorted by exponent, with every exponent below
        phi(order) and every numerator nonzero; this divides out the common
        factor of the numerators and the denominator and makes den positive.
        """
        if den < 0:
            den = -den
            pairs = [(e, -a) for e, a in pairs]
        if den != 1:
            g = math.gcd(den, *[a for _, a in pairs])
            if g != 1:
                den //= g
                pairs = [(e, a // g) for e, a in pairs]
        self = _new(Cyclotomic)
        _set_order(self, order)
        _set_terms(self, tuple(pairs))
        _set_den(self, den)
        return self

    # -- representation ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as rationals, length phi(order)."""
        out = [Fraction(0)] * euler_phi(self.order)
        for e, a in self._terms:
            out[e] = Fraction(a, self._den)
        return tuple(out)

    def key(self, m: int) -> tuple[tuple[tuple[int, int], ...], int]:
        """The value lifted to Q(zeta_m) as ((exponent, numerator) pairs, denominator).

        Two values are equal exactly when their keys at one m are equal, so
        the key can index a dict where `Cyclotomic` itself cannot.
        """
        v = self.lift(m)
        return v._terms, v._den

    def as_rational_integer(self) -> int | None:
        """The value as an int, or None: a refusal distinct from any integer."""
        if self._den != 1 or len(self._terms) > 1:
            return None
        if not self._terms:
            return 0
        e, a = self._terms[0]
        return None if e else a

    def approx(self) -> complex:
        """Float embedding zeta_N -> e^(2*pi*i/N); for validation only."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(a * z ** e for e, a in self._terms) / self._den

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        parts: list[str] = []
        for k, a in self._terms:
            q = a if den == 1 else Fraction(a, den)
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
        if not self._terms:
            return Cyclotomic._make(m, (), 1)
        ratio = m // self.order
        return _reduce(m, {e * ratio: a for e, a in self._terms}, self._den)

    @staticmethod
    def _coerce(value) -> "Cyclotomic | None":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return rational(value)
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
        if not a._terms:
            return b
        if not b._terms:
            return a
        da, db = a._den, b._den
        sa, sb = (1, 1) if da == db else (db, da)
        acc = {e: x * sa for e, x in a._terms}
        for e, y in b._terms:
            acc[e] = acc.get(e, 0) + y * sb
        return Cyclotomic._make(a.order, sorted([p for p in acc.items() if p[1]]), da * sa)

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
        return Cyclotomic._make(self.order, [(e, -a) for e, a in self._terms], self._den)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = [(e, a * other) for e, a in self._terms] if other else []
            return Cyclotomic._make(self.order, terms, self._den)
        if isinstance(other, Fraction):
            terms = [(e, a * other.numerator) for e, a in self._terms] if other else []
            return Cyclotomic._make(self.order, terms, self._den * other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return weighted_product_sums((self,), ((other,),))[0]

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division of a cyclotomic value by zero")
            return Cyclotomic._make(self.order, self._terms, self._den * other)
        if isinstance(other, Fraction):
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise InvalidParameterError("negative powers of cyclotomic values are not supported")
        result = Cyclotomic._make(self.order, ((0, 1),), 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: zeta^k -> zeta^(N-k) applied before reduction.

        Computed once per value and kept.  A one-term value a * zeta^e / den
        is conjugated by scaling the `_power_rows` row of zeta^(N-e).
        """
        try:
            return self._conj
        except AttributeError:
            pass
        n, terms = self.order, self._terms
        if len(terms) == 1:
            e, a = terms[0]
            value = Cyclotomic._make(n, [(t, a * r) for t, r in _power_rows(n)[-e % n]], self._den)
        else:
            value = _reduce(n, {(n - e) % n: a for e, a in terms}, self._den)
        _set_conj(self, value)
        return value

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._den == 1 and self._terms == (((0, other),) if other else ())
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a._den == b._den and a._terms == b._terms

    def __bool__(self):
        return bool(self._terms)


# Every value is built by `_make`; writing the slots through their
# descriptors takes about half the time of object.__setattr__ by name.
_new = object.__new__
_set_order = Cyclotomic.order.__set__
_set_terms = Cyclotomic._terms.__set__
_set_den = Cyclotomic._den.__set__
_set_conj = Cyclotomic._conj.__set__


def zeta(order: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_order^k in canonical form (k reduced mod order)."""
    order = _order(order)
    return Cyclotomic._make(order, _power_rows(order)[k % order], 1)


def _order(n) -> int:
    """n, if it is an order: an int, not a bool, at least 1; otherwise InvalidOrderError."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidOrderError(f"order must be a positive integer, got {n!r}")
    return n


def _exact(value) -> Fraction:
    """An int or a Fraction as a Fraction; a float or a str is refused, so no
    rounded or parsed value feeds a result."""
    if not isinstance(value, (int, Fraction)):
        raise InvalidParameterError(f"an exact value must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def rational(value) -> Cyclotomic:
    """Embed an integer or Fraction as a cyclotomic value of order 1."""
    f = _exact(value)
    return Cyclotomic._make(1, ((0, f.numerator),) if f else (), f.denominator)


def weighted_product_sum(fs, gs, weights=None) -> Cyclotomic:
    """Exact sum of w * f * g over aligned triples, with integer weights.

    Equivalent to `sum(w * f * g)`; the one-column call of
    `weighted_product_sums`.  Inner products and orthogonality validation
    call this thousands of times.
    """
    return weighted_product_sums(fs, (list(gs),), weights)[0]


def weighted_product_sums(fs, gss, weights=None) -> list[Cyclotomic]:
    """`weighted_product_sum(fs, gs, weights)` for each sequence `gs` in `gss`.

    Every product of a term of f and a term of g is added into one
    accumulator per column at its raw exponent in zeta_m, and each column
    is reduced modulo the cyclotomic polynomial once at the end; no lifted
    value is built.  The order m is the lcm of every order in the call,
    worked out once, so a total may have a larger order than the same
    column summed alone, though never a different value.  Zero weights
    are skipped; a zero value has no terms and adds nothing.  The terms of
    f are scaled to zeta_m inside each column's loop: scaling them once per
    call costs the one-column call more than it saves a batch.
    """
    fs = list(fs)
    gss = list(gss)
    if weights is None:
        weights = [1] * len(fs)
    m = math.lcm(*{f.order for f in fs}, *{g.order for gs in gss for g in gs})
    totals = []
    for gs in gss:
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        for f, g, w in zip(fs, gs, weights):
            if not w:
                continue
            d = f._den * g._den
            if d != den:
                new_den = math.lcm(den, d)
                if new_den != den:
                    scale = new_den // den
                    for e in acc:
                        acc[e] *= scale
                    den = new_den
                w = w * (den // d)
            fr = m // f.order
            gr = m // g.order
            gt = g._terms
            for i, a in f._terms:
                wa = w * a
                fi = i * fr
                for j, b in gt:
                    k = fi + j * gr
                    acc[k] = get(k, 0) + wa * b
        totals.append(_reduce(m, acc, den))
    return totals
