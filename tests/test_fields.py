"""Scalar fields: integral rationals as int, exact division, primality."""

from fractions import Fraction

import pytest

from hopfpbw import PrimeField, QQ
from hopfpbw.fields import PRIME_LIMIT, is_prime

RATIONALS = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4, 6)]


def _expected_type(q):
    return int if q.denominator == 1 else Fraction


def test_rational_results_are_int_exactly_when_integral():
    for a in RATIONALS:
        for b in RATIONALS:
            x, y = QQ.of_fraction(a), QQ.of_fraction(b)
            cases = [(QQ.add, a + b), (QQ.sub, a - b), (QQ.mul, a * b)]
            if b:
                cases.append((QQ.div, a / b))
            for op, want in cases:
                got = op(x, y)
                assert got == want
                assert type(got) is _expected_type(want)
                assert QQ.render(got) == str(want)
        assert type(QQ.neg(QQ.of_fraction(a))) is _expected_type(a)


def test_rational_constants_and_conversions():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of_int(7)) is int and QQ.of_int(7) == 7
    assert type(QQ.of_fraction(Fraction(6, 3))) is int
    assert QQ.of_fraction(Fraction(3, 6)) == Fraction(1, 2)
    # integral Fractions from outside are normalized by every operation
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2), 3)) is int


def test_rational_division_is_exact_never_float():
    for a in range(-7, 8):
        for b in range(-7, 8):
            if b == 0:
                with pytest.raises(ZeroDivisionError):
                    QQ.div(a, b)
                continue
            got = QQ.div(a, b)
            assert not isinstance(got, float)
            assert got == Fraction(a, b)
            assert type(got) is _expected_type(Fraction(a, b))
    assert QQ.inv(4) == Fraction(1, 4) and QQ.inv(Fraction(1, 4)) == 4
    assert type(QQ.inv(Fraction(-1, 4))) is int


def test_rendering_is_unchanged_by_int_scalars():
    for q in RATIONALS:
        assert QQ.render(QQ.of_fraction(q)) == str(q)
    assert QQ.render(QQ.of_fraction(Fraction(-4, 2))) == "-2"


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    for n in range(-3, 5000):
        assert is_prime(n) == _trial_division(n)


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              3215031751, 3825123056546413051, 318665857834031151167461):
        # the last three are strong pseudoprimes to the bases 2..7, 2..23 and 2..37
        assert not is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)


def test_is_prime_accepts_large_primes():
    for p in (32003, 2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 24 + 7):
        assert is_prime(p)
        assert PrimeField(p).char == p


def test_modulus_above_the_certified_limit_is_refused():
    assert PRIME_LIMIT > 3 * 10 ** 24
    for n in (PRIME_LIMIT, PRIME_LIMIT + 2, 10 ** 40 + 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)
        with pytest.raises(ValueError, match="too large"):
            PrimeField(n)
