"""Exact cyclotomic arithmetic: examples, invariants, float consistency."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.cyclo import (
    Cyclotomic,
    approx,
    as_rational_integer,
    cyclotomic_polynomial,
    euler_phi,
    lift,
    rational,
    weighted_product_sum,
    zeta,
)
from sgp.errors import InvalidLiftError, InvalidOrderError


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


# -- integer certification -------------------------------------------------


def test_as_rational_integer():
    assert as_rational_integer(zeta(1, 0) + zeta(1, 0)) == 2
    assert as_rational_integer(zeta(5, 1)) is None
    assert as_rational_integer(zeta(3, 1) + zeta(3, 2)) == -1
    assert as_rational_integer(rational(Fraction(1, 2))) is None
    assert as_rational_integer(zeta(6, 1) - zeta(6, 1)) == 0


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
    assert lift(zeta(3, 1), 6) == zeta(6, 2)
    assert lift(zeta(3, 1), 6).order == 6
    with pytest.raises(InvalidLiftError):
        lift(zeta(3, 1), 8)


def test_lift_preserves_numeric_value():
    rng = random.Random(7)
    for _ in range(200):
        x = random_value(rng, max_order=12)
        m = x.order * rng.randint(1, 4)
        assert abs(approx(lift(x, m)) - approx(x)) < 1e-9


def test_approx_examples():
    a = approx(zeta(4, 1))
    assert abs(a - 1j) < 1e-12
    golden = approx(zeta(5, 1) + zeta(5, 4))
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
    assert lift(x, m).order == m and lift(x, m) == x
    assert lift(x, 72) * lift(y, 72) == lift(x * y, 72)
    assert lift(x, 72) + lift(y, 72) == lift(x + y, 72)
    assert lift(x, 72).conj() == lift(x.conj(), 72)


def test_approx_is_consistent_with_exact_arithmetic():
    rng = random.Random(99)
    for _ in range(1000):
        x = random_value(rng)
        y = random_value(rng)
        ax, ay = approx(x), approx(y)
        assert abs(approx(x + y) - (ax + ay)) < 1e-9
        assert abs(approx(x * y) - (ax * ay)) < 1e-9


def test_conjugation_matches_complex_conjugate():
    rng = random.Random(5)
    for _ in range(300):
        x = random_value(rng)
        assert abs(approx(x.conj()) - approx(x).conjugate()) < 1e-9


def test_canonical_form_uniqueness():
    rng = random.Random(17)
    for _ in range(400):
        x = random_value(rng)
        y = random_value(rng)
        close = abs(approx(x) - approx(y)) < 1e-9
        assert ((x - y) == 0) == close
    # equal values built along different routes reduce identically
    assert zeta(3, 1) + zeta(3, 2) == rational(-1)
    assert lift(zeta(5, 2), 20) == zeta(20, 8)
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
    # for several primes at once
    rng = random.Random(2718)

    def draw(divisors):
        order = rng.choice(divisors)
        return Cyclotomic(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(euler_phi(order))])

    for n, rounds in ((24, 150), (72, 40), (360, 25)):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(rounds):
            count = rng.randint(0, 6)
            fs = [draw(divisors) for _ in range(count)]
            gs = [draw(divisors) for _ in range(count)]
            weights = [rng.randint(-3, 5) for _ in range(count)]
            naive = rational(0)
            for f, g, w in zip(fs, gs, weights):
                naive = naive + f * g * w
            result = weighted_product_sum(fs, gs, weights)
            assert result == naive
            floats = sum(w * f.approx() * g.approx() for f, g, w in zip(fs, gs, weights))
            assert cmath.isclose(result.approx(), floats, rel_tol=1e-9, abs_tol=1e-6)
    # a genuinely mixed-order case still agrees
    fs = [zeta(5, 1), zeta(4, 1) + 1, rational(Fraction(2, 3))]
    gs = [zeta(5, 4), zeta(6, 1), zeta(4, 3)]
    naive = fs[0] * gs[0] * 2 + fs[1] * gs[1] * 3 + fs[2] * gs[2] * -1
    assert weighted_product_sum(fs, gs, (2, 3, -1)) == naive
    assert weighted_product_sum([zeta(5, 1)], [zeta(5, 4)]) == 1


def test_weighted_product_sum_builds_only_its_result(monkeypatch):
    fs = [rational(Fraction(2, 3)), zeta(4, 1) + 1, zeta(5, 2), zeta(9, 4)]
    gs = [zeta(3, 1), zeta(6, 5), rational(7), zeta(8, 3)]
    naive = fs[0] * gs[0] * 2 + fs[1] * gs[1] * 3 + fs[2] * gs[2] * -1 + fs[3] * gs[3]
    make = Cyclotomic._make
    made = []

    def counted(order, num, den):
        made.append(make(order, num, den))
        return made[-1]

    monkeypatch.setattr(Cyclotomic, "_make", staticmethod(counted))
    result = weighted_product_sum(fs, gs, (2, 3, -1, 1))
    monkeypatch.undo()
    assert len(made) == 1 and made[0] is result
    assert result == naive


def test_str_rendering():
    assert str(rational(3)) == "3"
    assert str(rational(Fraction(-3, 2))) == "-3/2"
    assert str(zeta(12, 1)) == "z12"
    assert str(zeta(4, 3)) == "-z4"
    assert str(zeta(5, 1) + zeta(5, 4)) == "-1 - z5^2 - z5^3"
    assert str(zeta(8, 1) * 2 + 1) == "1 + 2*z8"
    assert str(zeta(3, 1) - zeta(3, 1)) == "0"
