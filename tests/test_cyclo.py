"""Exact cyclotomic arithmetic: examples, invariants, float consistency."""

import cmath
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.chars import family_table
from sgp.cyclo import (
    Cyclotomic,
    _power_rows,
    cyclotomic_polynomial,
    euler_phi,
    rational,
    weighted_product_sum,
    weighted_product_sums,
    zeta,
)
from sgp.errors import InvalidLiftError, InvalidOrderError
from sgp.groups import cyclic_group, dicyclic_group, dihedral_group


def random_value(rng, max_order=24):
    order = rng.randint(1, max_order)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for _ in range(euler_phi(order))
    ]
    return Cyclotomic(order, coeffs)


# -- zeta -----------------------------------------------------------------


def test_zeta_identity_cases():
    assert zeta(1, 0) == 1
    assert zeta(2, 1) == -1
    assert zeta(6, 3) == -1


def test_zeta_exponent_reduced_mod_order():
    assert zeta(5, 7) == zeta(5, 2)
    assert zeta(5, -1) == zeta(5, 4)


def test_zeta_invalid_order():
    with pytest.raises(InvalidOrderError):
        zeta(0, 1)
    with pytest.raises(InvalidOrderError):
        Cyclotomic(0, [])


# -- ring operations ------------------------------------------------------


def test_arith_examples():
    assert zeta(3, 1) + zeta(3, 2) == -1
    assert zeta(4, 1) * zeta(4, 1) == -1
    assert (zeta(5, 1) + zeta(5, 4)) * (zeta(5, 2) + zeta(5, 3)) == -1


def test_mixed_scalar_arithmetic():
    x = zeta(8, 1)
    assert x - x == 0
    assert 2 * x - x == x
    assert (x + 1) - 1 == x
    assert x * Fraction(1, 2) * 2 == x
    assert -(-x) == x
    assert x / 2 * 2 == x
    assert (x / -4).order == 8 and (x / -4) * -4 == x
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_power_operator_matches_repeated_mul():
    x = zeta(7, 3) + 2
    acc = rational(1)
    for _ in range(5):
        acc = acc * x
    assert x ** 5 == acc
    assert x ** 0 == 1
    with pytest.raises(ValueError):
        x ** -1


def test_cross_order_operations_lift_to_lcm():
    x = zeta(3, 1) + zeta(4, 1)
    assert x.order == 12
    assert x - zeta(4, 1) == zeta(3, 1)
    # adding a zero returns the other operand, lifted to the common order
    y = zeta(8, 3)
    assert rational(0) + y is y and y + 0 is y
    zero12 = Cyclotomic(12, [0] * euler_phi(12))
    assert (zero12 + y).order == (y + zero12).order == 24 and zero12 + y == y


# -- integer certification -------------------------------------------------


def test_as_rational_integer():
    assert (zeta(1, 0) + zeta(1, 0)).as_rational_integer() == 2
    assert zeta(5, 1).as_rational_integer() is None
    assert (zeta(3, 1) + zeta(3, 2)).as_rational_integer() == -1
    assert rational(Fraction(1, 2)).as_rational_integer() is None
    assert (zeta(6, 1) - zeta(6, 1)).as_rational_integer() == 0


# -- cyclotomic polynomials --------------------------------------------------


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_polynomial_12_against_product_oracle():
    # multiply-back oracle: the product of Phi_d over all d | 12 is x^12 - 1
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    assert prod == [-1] + [0] * 11 + [1]
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_roots_are_primitive():
    for n in (5, 8, 12, 15):
        poly = cyclotomic_polynomial(n)
        for k in range(n):
            z = cmath.exp(2j * cmath.pi * k / n)
            val = sum(c * z ** i for i, c in enumerate(poly))
            if math.gcd(k, n) == 1:
                assert abs(val) < 1e-9
            else:
                assert abs(val) > 1e-6


def test_phi_degree_matches_totient():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


# -- lifting and numeric embedding -------------------------------------------


def test_lift_examples():
    assert zeta(3, 1).lift(6) == zeta(6, 2)
    assert zeta(3, 1).lift(6).order == 6
    with pytest.raises(InvalidLiftError):
        zeta(3, 1).lift(8)


def test_lift_preserves_numeric_value():
    rng = random.Random(7)
    for _ in range(200):
        x = random_value(rng, max_order=12)
        m = x.order * rng.randint(1, 4)
        assert abs(x.lift(m).approx() - x.approx()) < 1e-9


def test_approx_examples():
    a = zeta(4, 1).approx()
    assert abs(a - 1j) < 1e-12
    golden = (zeta(5, 1) + zeta(5, 4)).approx()
    # float oracle: 2*cos(2*pi/5)
    assert abs(golden - 2 * math.cos(2 * math.pi / 5)) < 1e-9
    assert abs(golden.imag) < 1e-12


# -- invariants ---------------------------------------------------------------


def test_root_of_unity_power_identity():
    # zeta(N, k)^N = 1 by repeated multiplication, for all N <= 60
    for n in range(1, 61):
        for k in range(n):
            z = zeta(n, k)
            acc = rational(1)
            for _ in range(n):
                acc = acc * z
            assert acc == 1, (n, k)


def test_prime_root_sums_vanish():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        total = rational(0)
        for k in range(p):
            total = total + zeta(p, k)
        assert total == 0


def test_conj_is_involution_and_ring_homomorphism():
    rng = random.Random(42)
    for _ in range(1000):
        x = random_value(rng)
        y = random_value(rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


_DIVISORS_72 = [d for d in range(1, 73) if 72 % d == 0]


@st.composite
def _values_over_divisors_of_72(draw):
    m = draw(st.sampled_from(_DIVISORS_72))
    phi = euler_phi(m)
    coeffs = draw(st.lists(st.fractions(-9, 9, max_denominator=4), min_size=phi, max_size=phi))
    return Cyclotomic(m, coeffs)


@settings(max_examples=50, deadline=None, database=None)
@given(_values_over_divisors_of_72(), _values_over_divisors_of_72(),
       _values_over_divisors_of_72(), st.sampled_from(_DIVISORS_72))
def test_ring_laws_conj_and_lift_across_orders(x, y, z, k):
    # ring laws, each side computed in the field of its own operands' orders
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x - x == 0 and (x - y) + y == x
    # conj is an involutive ring automorphism
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    # lifting changes the field, not the value or the operations
    m = math.lcm(x.order, k)
    assert x.lift(m).order == m and x.lift(m) == x
    assert x.lift(72) * y.lift(72) == (x * y).lift(72)
    assert x.lift(72) + y.lift(72) == (x + y).lift(72)
    assert x.lift(72).conj() == x.conj().lift(72)


def test_approx_is_consistent_with_exact_arithmetic():
    rng = random.Random(99)
    for _ in range(1000):
        x = random_value(rng)
        y = random_value(rng)
        ax, ay = x.approx(), y.approx()
        assert abs((x + y).approx() - (ax + ay)) < 1e-9
        assert abs((x * y).approx() - (ax * ay)) < 1e-9


def test_conjugation_matches_complex_conjugate():
    rng = random.Random(5)
    for _ in range(300):
        x = random_value(rng)
        assert abs(x.conj().approx() - x.approx().conjugate()) < 1e-9


def test_canonical_form_uniqueness():
    rng = random.Random(17)
    for _ in range(400):
        x = random_value(rng)
        y = random_value(rng)
        close = abs(x.approx() - y.approx()) < 1e-9
        assert ((x - y) == 0) == close
    # equal values built along different routes reduce identically
    assert zeta(3, 1) + zeta(3, 2) == rational(-1)
    assert zeta(5, 2).lift(20) == zeta(20, 8)
    assert zeta(12, 3) == zeta(4, 1)


def test_coefficients_are_normalized_rationals():
    x = Cyclotomic(5, [Fraction(2, 4), Fraction(0), Fraction(-3, 6), Fraction(1)])
    assert x.coeffs == (Fraction(1, 2), Fraction(0), Fraction(-1, 2), Fraction(1))
    for c in x.coeffs:
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c.denominator >= 1


def test_values_are_immutable():
    x = zeta(5, 1)
    with pytest.raises(AttributeError):
        x.order = 7


def test_weighted_product_sum_matches_naive_expression():
    # orders drawn from the divisors of 24 (the shape the table validator
    # feeds it), then of 72 and 360, whose raw exponents land past phi(m)
    # for several primes at once; one value in eight is a zero of its order
    rng = random.Random(2718)

    def draw(divisors):
        order = rng.choice(divisors)
        if rng.random() < 0.125:
            return Cyclotomic(order, [0] * euler_phi(order))
        return Cyclotomic(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(euler_phi(order))])

    for n, rounds in ((24, 150), (72, 40), (360, 25)):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(rounds):
            count = rng.randint(0, 6)
            fs = [draw(divisors) for _ in range(count)]
            gs = [draw(divisors) for _ in range(count)]
            weights = [rng.randint(-3, 5) for _ in range(count)]
            result = weighted_product_sum(fs, gs, weights)
            assert as_dense(result) == naive_sum(fs, gs, weights)
            floats = sum(w * f.approx() * g.approx() for f, g, w in zip(fs, gs, weights))
            assert cmath.isclose(result.approx(), floats, rel_tol=1e-9, abs_tol=1e-6)
            # the batched call: every column against the naive sum, and
            # the first column equal to the one-column call
            gss = [gs] + [[draw(divisors) for _ in range(count)]
                          for _ in range(rng.randint(0, 3))]
            totals = weighted_product_sums(fs, gss, weights)
            assert len(totals) == len(gss)
            assert totals[0] == result
            for column, total in zip(gss, totals):
                assert as_dense(total) == naive_sum(fs, column, weights)
    # a genuinely mixed-order case still agrees, alone and in a batch
    fs = [zeta(5, 1), zeta(4, 1) + 1, rational(Fraction(2, 3))]
    gs = [zeta(5, 4), zeta(6, 1), zeta(4, 3)]
    naive_gs = naive_sum(fs, gs, (2, 3, -1))
    assert as_dense(weighted_product_sum(fs, gs, (2, 3, -1))) == naive_gs
    assert weighted_product_sum([zeta(5, 1)], [zeta(5, 4)]) == 1
    gs2 = [rational(Fraction(-1, 2)), rational(0), zeta(9, 2) / 5]
    totals = weighted_product_sums(fs, [gs, gs2, gs], (2, 3, -1))
    assert list(map(as_dense, totals)) == [naive_gs, naive_sum(fs, gs2, (2, 3, -1)), naive_gs]
    # zero weights and zero values contribute nothing; no columns, no totals
    assert weighted_product_sums(fs, [gs, gs2], (0, 0, 0)) == [0, 0]
    assert weighted_product_sums([rational(0)] * 3, [gs, gs2]) == [0, 0]
    assert weighted_product_sums(fs, [], (2, 3, -1)) == []


def test_weighted_product_sum_builds_only_its_result(monkeypatch):
    fs = [rational(Fraction(2, 3)), zeta(4, 1) + 1, zeta(5, 2), zeta(9, 4)]
    gs = [zeta(3, 1), zeta(6, 5), rational(7), zeta(8, 3)]
    gs2 = [zeta(7, 1), rational(Fraction(-5, 2)), zeta(4, 3), rational(0)]
    naive = naive_sum(fs, gs, (2, 3, -1, 1))
    naive2 = naive_sum(fs, gs2, (2, 3, -1, 1))
    make = Cyclotomic._make
    made = []

    def counted(order, num, den):
        made.append(make(order, num, den))
        return made[-1]

    monkeypatch.setattr(Cyclotomic, "_make", staticmethod(counted))
    result = weighted_product_sum(fs, gs, (2, 3, -1, 1))
    assert len(made) == 1 and made[0] is result
    # a batched call builds exactly one value per column
    made.clear()
    totals = weighted_product_sums(fs, [gs, gs2, gs], (2, 3, -1, 1))
    monkeypatch.undo()
    assert len(made) == 3 and all(a is b for a, b in zip(made, totals))
    assert as_dense(result) == naive and list(map(as_dense, totals)) == [naive, naive2, naive]


def test_str_rendering():
    assert str(rational(3)) == "3"
    assert str(rational(Fraction(-3, 2))) == "-3/2"
    assert str(zeta(12, 1)) == "z12"
    assert str(zeta(4, 3)) == "-z4"
    assert str(zeta(5, 1) + zeta(5, 4)) == "-1 - z5^2 - z5^3"
    assert str(zeta(8, 1) * 2 + 1) == "1 + 2*z8"
    assert str(zeta(3, 1) - zeta(3, 1)) == "0"


# -- sparse storage against the dense reference --------------------------------
#
# The dense power-basis implementation that `Cyclotomic` replaced, kept
# unchanged apart from its names as the reference that the sparse
# (exponent, numerator) pairs must agree with: every phi(order) numerator
# over one denominator, with dense buffers in the reduction, products,
# conjugation, lifting and the kernel.


@functools.lru_cache(maxsize=None)
def _dense_power_rows(n: int) -> tuple[tuple[int, ...], ...]:
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


def _dense_reduce(m: int, buf: list[int], den: int) -> "DenseCyclotomic":
    """The value sum(buf[e] * zeta_m^e) / den in canonical form, for e < 2m.

    Every exponent at or above phi(m) is folded back into the power basis
    through its `_dense_power_rows` row; `buf` is consumed.
    """
    phi = euler_phi(m)
    rows = _dense_power_rows(m)
    for e in range(phi, len(buf)):
        c = buf[e]
        if c:
            for t, r in enumerate(rows[e]):
                if r:
                    buf[t] += c * r
    return DenseCyclotomic._make(m, buf[:phi], den)


class DenseCyclotomic:
    """The dense reference: all phi(order) power-basis numerators over one denominator."""

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
        made = DenseCyclotomic._make(order, [int(f * den) for f in fracs], den)
        object.__setattr__(self, "order", made.order)
        object.__setattr__(self, "_num", made._num)
        object.__setattr__(self, "_den", made._den)

    def __setattr__(self, name, value):
        raise AttributeError("DenseCyclotomic values are immutable")

    @staticmethod
    def _make(order: int, num, den: int) -> "DenseCyclotomic":
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
        self = object.__new__(DenseCyclotomic)
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
        the key can index a dict where `DenseCyclotomic` itself cannot.
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
        return f"DenseCyclotomic({self.order}: {self})"

    # -- conversions -------------------------------------------------------

    def lift(self, m: int) -> "DenseCyclotomic":
        """Re-express the value in Q(zeta_m); m must be a multiple of order."""
        if m < 1 or m % self.order:
            raise InvalidLiftError(f"cannot lift order {self.order} into order {m}")
        return self._lifted(m)

    def _lifted(self, m: int) -> "DenseCyclotomic":
        if m == self.order:
            return self
        ratio = m // self.order
        buf = [0] * m
        for i, a in enumerate(self._num):
            buf[i * ratio] = a
        return _dense_reduce(m, buf, self._den)

    @staticmethod
    def _coerce(value) -> "DenseCyclotomic | None":
        if isinstance(value, DenseCyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            f = Fraction(value)
            return DenseCyclotomic._make(1, [f.numerator], f.denominator)
        return None

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "DenseCyclotomic"):
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self._lifted(m), other._lifted(m)

    def __add__(self, other):
        o = DenseCyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        if a._den == b._den:
            return DenseCyclotomic._make(a.order, [x + y for x, y in zip(a._num, b._num)], a._den)
        da, db = a._den, b._den
        return DenseCyclotomic._make(a.order, [x * db + y * da for x, y in zip(a._num, b._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = DenseCyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = DenseCyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return DenseCyclotomic._make(self.order, [-a for a in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, int):
            return DenseCyclotomic._make(self.order, [a * other for a in self._num], self._den)
        if isinstance(other, Fraction):
            return DenseCyclotomic._make(
                self.order,
                [a * other.numerator for a in self._num],
                self._den * other.denominator,
            )
        if not isinstance(other, DenseCyclotomic):
            return NotImplemented
        a, b = self._common(other)
        buf = [0] * (2 * len(a._num) - 1)
        bn = b._num
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        buf[i + j] += x * y
        return _dense_reduce(a.order, buf, a._den * b._den)

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
        result = DenseCyclotomic._make(self.order, [1] + [0] * (len(self._num) - 1), 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conj(self) -> "DenseCyclotomic":
        """Complex conjugate: zeta^k -> zeta^(N-k) applied before reduction."""
        n = self.order
        buf = [0] * n
        for i, a in enumerate(self._num):
            buf[(n - i) % n] = a
        return _dense_reduce(n, buf, self._den)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._den == 1 and not any(self._num[1:]) and self._num[0] == other
        o = DenseCyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a._den == b._den and a._num == b._num

    def __bool__(self):
        return any(self._num)


def dense_weighted_product_sum(fs, gs, weights=None) -> DenseCyclotomic:
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
    return _dense_reduce(m, buf, den)


def as_dense(v: Cyclotomic) -> DenseCyclotomic:
    return DenseCyclotomic(v.order, v.coeffs)


def naive_sum(fs, gs, weights) -> DenseCyclotomic:
    """sum(w * f * g) of sparse values, computed in the dense reference.

    The product of two `Cyclotomic`s is a call of the kernel, so the naive
    sum takes its products and sums from `DenseCyclotomic`, and its total
    must equal `dense_weighted_product_sum` too.
    """
    fs, gs = list(map(as_dense, fs)), list(map(as_dense, gs))
    total = DenseCyclotomic(1, [0])
    for f, g, w in zip(fs, gs, weights):
        total = total + f * g * w
    assert total == dense_weighted_product_sum(fs, gs, weights)
    return total


_BASES = (12, 30, 36, 40, 42, 48, 60)


def _pairs_of(dense_num):
    return tuple((e, a) for e, a in enumerate(dense_num) if a)


def _assert_canonical(v):
    """The canonical sparse form: sorted unique exponents below phi(order),
    nonzero integer numerators, a positive denominator coprime to their
    content, and zero stored as no pairs over 1."""
    terms, den = v._terms, v._den
    assert type(terms) is tuple and all(type(p) is tuple and len(p) == 2 for p in terms)
    exps = [e for e, _ in terms]
    assert exps == sorted(set(exps))
    assert all(type(e) is int and 0 <= e < euler_phi(v.order) for e in exps)
    assert all(type(a) is int and a != 0 for _, a in terms)
    assert type(den) is int and den >= 1
    assert math.gcd(den, *(a for _, a in terms)) == 1
    if not terms:
        assert den == 1


def _assert_agree(sparse, dense):
    _assert_canonical(sparse)
    assert sparse.order == dense.order
    assert sparse._den == dense._den and sparse._terms == _pairs_of(dense._num)
    assert sparse.coeffs == dense.coeffs
    assert str(sparse) == str(dense)


def _coeff_lists(order):
    phi = euler_phi(order)
    coeff = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                      st.fractions(-9, 9, max_denominator=6))
    return st.one_of(st.just([Fraction(0)] * phi),
                     st.lists(coeff, min_size=phi, max_size=phi))


@settings(max_examples=120, deadline=None, database=None)
@given(st.data())
def test_sparse_values_agree_with_the_dense_reference(data):
    n = data.draw(st.sampled_from(_BASES))
    orders = [d for d in range(1, n + 1) if n % d == 0]

    def value():
        order = data.draw(st.sampled_from(orders))
        coeffs = data.draw(_coeff_lists(order))
        sparse, dense = Cyclotomic(order, coeffs), DenseCyclotomic(order, coeffs)
        _assert_agree(sparse, dense)
        return sparse, dense

    (x, dx), (y, dy) = value(), value()
    i = data.draw(st.integers(-6, 6))
    q = data.draw(st.fractions(-6, 6, max_denominator=5))
    k = data.draw(st.integers(0, 3))
    _assert_agree(x + y, dx + dy)
    _assert_agree(x - y, dx - dy)
    _assert_agree(i - x, i - dx)
    _assert_agree(-x, -dx)
    _assert_agree(x * i, dx * i)
    _assert_agree(i * x, i * dx)
    _assert_agree(x * q, dx * q)
    if i:
        _assert_agree(x / i, dx / i)
    _assert_agree(x * y, dx * dy)
    _assert_agree(x ** k, dx ** k)
    # the second call reads the conjugate kept on the value
    for v, dv in ((x, dx), (x, dx), (x.conj(), dx.conj()), (x * y, dx * dy)):
        _assert_agree(v.conj(), dv.conj())
        assert v.conj() is v.conj()
    for m in (x.order * data.draw(st.integers(1, 3)), n):
        _assert_agree(x.lift(m), dx.lift(m))
        terms, den = x.key(m)
        dense_num, dense_den = dx.key(m)
        assert (terms, den) == (_pairs_of(dense_num), dense_den)
    assert (x == y) == (dx == dy)
    assert (x == i) == (dx == i)
    assert x == x.lift(n) and (x - y == 0) == (dx - dy == 0)
    assert bool(x) == bool(dx)
    assert x.as_rational_integer() == dx.as_rational_integer()
    count = data.draw(st.integers(0, 4))
    fs, gs = zip(*[value() for _ in range(2 * count)]) if count else ((), ())
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
    _assert_agree(weighted_product_sum(fs[:count], fs[count:], weights),
                  dense_weighted_product_sum(gs[:count], gs[count:], weights))
    _assert_agree(weighted_product_sum(fs[:count], fs[count:]),
                  dense_weighted_product_sum(gs[:count], gs[count:]))


def test_power_rows_agree_with_the_dense_reference():
    for n in range(1, 61):
        assert _power_rows(n) == tuple(_pairs_of(row) for row in _dense_power_rows(n))


def test_one_term_conjugates_agree_with_the_dense_reference():
    # a one-term value is conjugated through its power row, not `_reduce`
    for n in range(1, 61):
        for k in range(n):
            for q in (1, -3, Fraction(2, 5)):
                v = zeta(n, k) * q
                _assert_agree(v.conj(), DenseCyclotomic(n, v.coeffs).conj())


@pytest.mark.parametrize("group", [cyclic_group(30), dihedral_group(12), dicyclic_group(6)],
                         ids=lambda g: g.name)
def test_every_family_table_value_is_canonical(group):
    table = family_table(group)
    for row in table.irreducibles:
        for v in row.values + row.conj_values:
            _assert_canonical(v)
            dense = DenseCyclotomic(v.order, v.coeffs)
            assert v._terms == _pairs_of(dense._num) and v._den == dense._den
    rng = random.Random(30)
    values = [v for row in table.irreducibles for v in row.values]
    for _ in range(300):
        x, y = rng.choice(values), rng.choice(values)
        for r in (x + y, x - y, x * y, x.conj() * Fraction(rng.randint(1, 4), 3), y.lift(120)):
            _assert_canonical(r)


def test_storage_holds_only_the_nonzero_terms():
    rows = _power_rows(256)
    assert all(len(row) == 1 for row in rows) and sum(map(len, rows)) == 512
    c256 = family_table(cyclic_group(256))
    values = [v for row in c256.irreducibles for v in row.values]
    assert len(values) == 65_536 and sum(len(v._terms) for v in values) == 65_536
    assert len({id(v) for v in values}) == 256  # one object per root of unity
    d256 = family_table(dihedral_group(128))
    values = [v for row in d256.irreducibles for v in row.values]
    assert sum(len(v._terms) for v in values) <= 2 * len(values)
    assert Cyclotomic.__slots__ == ("order", "_terms", "_den", "_conj")
