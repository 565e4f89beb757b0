"""Exact arithmetic in the free algebra and its tensor square.

Polynomials are finitely supported scalar mappings on words, tensor elements
the same on pairs of words.  Scalars are those of the field (see
``fields``): over Q an ``int`` when integral and a ``Fraction`` otherwise,
over F_p a residue; a zero scalar is never stored.  Support iteration order
is canonical: graded-lex descending, so the leading word is the first key;
the constructor sorts once, and code that already holds a canonical mapping
passes ``_normalized=True``.  The standard bracketing is computed once per
word with integer coefficients and cached on the alphabet; scalars are
materialized per field on demand.
"""

from __future__ import annotations

import math

from .word import (
    Alphabet,
    Word,
    is_lyndon,
    lyndon_decomposition,
    shirshov_factorization,
)


class Polynomial:
    """Element of the free algebra over a fixed alphabet and scalar field."""

    __slots__ = ("alphabet", "field", "coeffs")

    def __init__(self, alphabet, field, coeffs, _normalized=False):
        self.alphabet = alphabet
        self.field = field
        if not _normalized:
            support = sorted([w for w, c in coeffs.items() if c], key=alphabet.glex_key, reverse=True)
            coeffs = {w: coeffs[w] for w in support}
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field, {}, _normalized=True)

    @classmethod
    def one(cls, alphabet, field):
        return cls(alphabet, field, {(): field.one}, _normalized=True)

    @classmethod
    def from_word(cls, alphabet, field, w: Word, coeff=None):
        c = field.one if coeff is None else coeff
        return cls(alphabet, field, {tuple(w): c})

    @classmethod
    def generator(cls, alphabet, field, name: str):
        return cls.from_word(alphabet, field, (alphabet.letter(name),))

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.alphabet == other.alphabet
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def coefficient(self, w: Word):
        return self.coeffs.get(tuple(w), self.field.zero)

    def leading_word(self) -> Word:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading word")
        return next(iter(self.coeffs))

    def leading_coefficient(self):
        return self.coeffs[self.leading_word()]

    def degree(self) -> int:
        """Largest degree of a support word; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return self.alphabet.degree(self.leading_word())

    def homogeneous_components(self) -> dict:
        deg = self.alphabet.degree
        parts = {}
        for w, c in self.coeffs.items():
            parts.setdefault(deg(w), {})[w] = c
        return {
            n: Polynomial(self.alphabet, self.field, part, _normalized=True)
            for n, part in sorted(parts.items())
        }

    def is_homogeneous(self) -> bool:
        return len(self.homogeneous_components()) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError("mixed scalar modes")
        if self.alphabet != other.alphabet:
            raise ValueError("operands over different alphabets")

    def __add__(self, other):
        self._check_compatible(other)
        add, zero = self.field.add, self.field.zero
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = add(out.get(w, zero), c)
        return Polynomial(self.alphabet, self.field, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        if c == self.field.zero:
            return Polynomial.zero(self.alphabet, self.field)
        mul = self.field.mul
        return Polynomial(
            self.alphabet, self.field,
            {w: mul(c, v) for w, v in self.coeffs.items()}, _normalized=True,
        )

    def __mul__(self, other):
        self._check_compatible(other)
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        out = {}
        for u, a in self.coeffs.items():
            for v, b in other.coeffs.items():
                w = u + v
                out[w] = add(out.get(w, zero), mul(a, b))
        return Polynomial(self.alphabet, self.field, out)

    def __repr__(self):
        from .expressions import render_polynomial

        return render_polynomial(self)


class TensorElement:
    """Element of the tensor square; keys are pairs of words."""

    __slots__ = ("alphabet", "field", "coeffs")

    def __init__(self, alphabet, field, coeffs, _normalized=False):
        self.alphabet = alphabet
        self.field = field
        if not _normalized:
            key = alphabet.glex_key
            support = sorted([p for p, c in coeffs.items() if c],
                             key=lambda p: (key(p[0]), key(p[1])), reverse=True)
            coeffs = {p: coeffs[p] for p in support}
        self.coeffs = coeffs

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field, {}, _normalized=True)

    @classmethod
    def one(cls, alphabet, field):
        return cls(alphabet, field, {((), ()): field.one}, _normalized=True)

    @classmethod
    def of(cls, left: Polynomial, right: Polynomial):
        """The elementary tensor ``left (x) right``."""
        left._check_compatible(right)
        mul = left.field.mul
        out = {}
        for u, a in left.coeffs.items():
            for v, b in right.coeffs.items():
                out[(u, v)] = mul(a, b)
        return cls(left.alphabet, left.field, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.field == other.field
            and self.alphabet == other.alphabet
            and self.coeffs == other.coeffs
        )

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        deg = self.alphabet.degree
        return max(deg(a) + deg(b) for a, b in self.coeffs)

    def homogeneous_components(self) -> dict:
        deg = self.alphabet.degree
        parts = {}
        for (a, b), c in self.coeffs.items():
            parts.setdefault(deg(a) + deg(b), {})[(a, b)] = c
        return {
            n: TensorElement(self.alphabet, self.field, part, _normalized=True)
            for n, part in sorted(parts.items())
        }

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError("mixed scalar modes")
        if self.alphabet != other.alphabet:
            raise ValueError("operands over different alphabets")

    def __add__(self, other):
        self._check_compatible(other)
        add, zero = self.field.add, self.field.zero
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = add(out.get(p, zero), c)
        return TensorElement(self.alphabet, self.field, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        if c == self.field.zero:
            return TensorElement.zero(self.alphabet, self.field)
        mul = self.field.mul
        return TensorElement(
            self.alphabet, self.field,
            {p: mul(c, v) for p, v in self.coeffs.items()}, _normalized=True,
        )

    def __mul__(self, other):
        self._check_compatible(other)
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        out = {}
        for (a, b), x in self.coeffs.items():
            for (c, d), y in other.coeffs.items():
                p = (a + c, b + d)
                out[p] = add(out.get(p, zero), mul(x, y))
        return TensorElement(self.alphabet, self.field, out)

    def map_legs(self, fleft, fright):
        """Apply linear maps (given on polynomials) to the two legs."""
        alphabet, field = self.alphabet, self.field
        add, mul, zero = field.add, field.mul, field.zero
        out = {}
        for (a, b), c in self.coeffs.items():
            la = fleft(Polynomial.from_word(alphabet, field, a))
            rb = fright(Polynomial.from_word(alphabet, field, b))
            for u, x in la.coeffs.items():
                cx = mul(c, x)
                for v, y in rb.coeffs.items():
                    p = (u, v)
                    out[p] = add(out.get(p, zero), mul(cx, y))
        return TensorElement(alphabet, field, out)

    def __repr__(self):
        from .expressions import render_tensor

        return render_tensor(self)


def multiply(f, g):
    """Product of two polynomials or two tensor elements."""
    if isinstance(f, Polynomial) != isinstance(g, Polynomial):
        raise ValueError("cannot multiply a polynomial by a tensor element")
    return f * g


def commutator(f: Polynomial, g: Polynomial) -> Polynomial:
    return f * g - g * f


def leading_word(f: Polynomial) -> Word:
    return f.leading_word()


# -- standard bracketing ---------------------------------------------------


def _int_mul(u_coeffs: dict, v_coeffs: dict) -> dict:
    out = {}
    for u, a in u_coeffs.items():
        for v, b in v_coeffs.items():
            w = u + v
            out[w] = out.get(w, 0) + a * b
    return {w: c for w, c in out.items() if c}


def _bracket_int(alphabet: Alphabet, w: Word) -> dict:
    """Integer-coefficient standard bracketing of ``w``, cached."""
    cache = alphabet._bracket_cache
    got = cache.get(w)
    if got is not None:
        return got
    if len(w) <= 1:
        value = {w: 1}
    else:
        left, right = shirshov_factorization(w)
        bl = _bracket_int(alphabet, left)
        br = _bracket_int(alphabet, right)
        lr = _int_mul(bl, br)
        if is_lyndon(w):
            rl = _int_mul(br, bl)
            value = {u: c for u in set(lr) | set(rl) if (c := lr.get(u, 0) - rl.get(u, 0))}
        else:
            value = lr
    cache[w] = value
    return value


def _materialize(alphabet, field, int_coeffs: dict) -> Polynomial:
    of = field.of_int
    return Polynomial(alphabet, field, {w: of(c) for w, c in int_coeffs.items()})


def standard_bracket(alphabet: Alphabet, w: Word, field=None) -> Polynomial:
    """The recursive standard bracketing ``[w]``; ``[1] = 1``, ``[x] = x``."""
    from .fields import QQ

    return _materialize(alphabet, field or QQ, _bracket_int(alphabet, tuple(w)))


def bracket_monomial(alphabet: Alphabet, w: Word, field=None) -> Polynomial:
    """Product of the standard bracketings of the Lyndon factors of ``w``."""
    from .fields import QQ

    out = {(): 1}
    for factor in lyndon_decomposition(tuple(w)):
        out = _int_mul(out, _bracket_int(alphabet, factor))
    return _materialize(alphabet, field or QQ, out)


# -- standard comultiplication ---------------------------------------------


def _coproduct_int(alphabet: Alphabet, w: Word) -> dict:
    """Integer coefficients of the standard coproduct of a word, cached."""
    cache = alphabet._coproduct_cache
    got = cache.get(w)
    if got is not None:
        return got
    value = {((), ()): 1}
    for letter in w:
        nxt = {}
        for (a, b), c in value.items():
            ka = (a + (letter,), b)
            kb = (a, b + (letter,))
            nxt[ka] = nxt.get(ka, 0) + c
            nxt[kb] = nxt.get(kb, 0) + c
        value = nxt
    cache[w] = value
    return value


def standard_comultiplication(f: Polynomial) -> TensorElement:
    """The algebra map sending every letter to ``1 (x) x + x (x) 1``."""
    alphabet, field = f.alphabet, f.field
    add, mul, zero, of = field.add, field.mul, field.zero, field.of_int
    out = {}
    for w, c in f.coeffs.items():
        for p, n in _coproduct_int(alphabet, w).items():
            v = mul(c, of(n))
            if v != zero:
                out[p] = add(out.get(p, zero), v)
    return TensorElement(alphabet, field, out)


def binomial(field, n: int, k: int):
    return field.of_int(math.comb(n, k))
