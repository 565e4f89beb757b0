"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python values: over Q an ``int`` for an integral value and
a ``fractions.Fraction`` (denominator > 1) otherwise, over F_p the canonical
residues ``0..p-1``.  A small field object supplies the operations so
polynomial code stays field-agnostic.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def _normal(q):
    """A rational scalar in normal form: an integral ``Fraction`` becomes its
    ``int`` numerator, anything else is returned as it is."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


class Rationals:
    """The field Q.

    Integral scalars are ``int`` and all others ``Fraction``, so integer
    arithmetic, by far the common case, skips ``Fraction`` normalization.
    Every operation passes a non-``int`` result through ``_normal``.  The
    two kinds compare and hash alike (``Fraction(3) == 3``), and ``str``
    renders both the same way.
    """

    char = 0

    zero = 0
    one = 1

    def of_int(self, n):
        return operator.index(n)   # exact: refuses anything but an integer

    def of_fraction(self, q):
        return _normal(Fraction(q))

    def add(self, a, b):
        r = a + b
        return r if r.__class__ is int else _normal(r)

    def sub(self, a, b):
        r = a - b
        return r if r.__class__ is int else _normal(r)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        r = a * b
        return r if r.__class__ is int else _normal(r)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _normal(Fraction(a) / b)

    def inv(self, a):
        return self.div(self.one, a)

    def render(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this limit (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Exact primality test for ``p`` below ``PRIME_LIMIT``.

    Deterministic Miller-Rabin; a larger ``p`` raises ``ValueError``, since
    no fixed set of bases is proven to decide it.
    """
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus {p} is too large: primality is decided only below {PRIME_LIMIT}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p with scalars stored as residues ``0..p-1``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n):
        return n % self.p

    def of_fraction(self, q):
        q = Fraction(q)
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator {q.denominator} not invertible mod {self.p}")
        return q.numerator * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero scalar")
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        return self.div(self.one, a)

    def render(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = Rationals()
