"""Exact arithmetic in the free algebra and its tensor square.

Polynomials are finitely supported scalar mappings on words, tensor elements
the same on pairs of words, and both rest on one sparse-combination core,
``_Combination``: the sorting constructor, equality, degree, homogeneous
components, sum, difference, scaling, product and linear extension are
written once.  Each class supplies four per-key hooks: its sort order
(``_key_order``), the degree of a key (``_key_degree``), the unit key
(``_UNIT_KEY``) and the product of two keys (``_key_product``).  Scalars are
those of the field (see ``fields``): over Q an ``int`` when integral and a
``Fraction`` otherwise, over F_p a residue; a zero scalar is never stored.
Support iteration order is canonical: graded-lex descending, leg by leg for
pairs, so a polynomial's leading word is its first key; the constructor sorts
once, and code that already holds a canonical mapping passes
``_normalized=True``.  The standard bracketing is computed once per word with
integer coefficients and cached on the alphabet; scalars are materialized per
field on demand.
"""

from __future__ import annotations

import math
import operator
from functools import partial

from .word import (
    Alphabet,
    Word,
    is_lyndon,
    lyndon_decomposition,
    shirshov_factorization,
)


class _Combination:
    """The core shared by ``Polynomial`` and ``TensorElement``: a scalar
    mapping on keys, extended through the per-key hooks of the subclass."""

    __slots__ = ("alphabet", "field", "coeffs")

    def __init_subclass__(cls):
        # perfbench/tracer.py wraps the methods it finds in a class's own
        # namespace, so each subclass holds its own binding of the core.
        for name in ("__init__", "__add__", "__sub__", "__neg__", "scale", "__mul__",
                     "homogeneous_components"):
            setattr(cls, name, vars(_Combination)[name])

    def __init__(self, alphabet, field, coeffs, _normalized=False):
        self.alphabet = alphabet
        self.field = field
        if not _normalized:
            support = sorted([k for k, c in coeffs.items() if c],
                             key=partial(self._key_order, alphabet), reverse=True)
            coeffs = {k: coeffs[k] for k in support}
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field, {}, _normalized=True)

    @classmethod
    def one(cls, alphabet, field):
        return cls(alphabet, field, {cls._UNIT_KEY: field.one}, _normalized=True)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.alphabet == other.alphabet
            and self.coeffs == other.coeffs
        )

    def degree(self) -> int:
        """Largest degree of a support key; -1 for zero."""
        return max(map(partial(self._key_degree, self.alphabet), self.coeffs), default=-1)

    def homogeneous_components(self) -> dict:
        deg = partial(self._key_degree, self.alphabet)
        parts = {}
        for k, c in self.coeffs.items():
            parts.setdefault(deg(k), {})[k] = c
        return {
            n: type(self)(self.alphabet, self.field, part, _normalized=True)
            for n, part in sorted(parts.items())
        }

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise ValueError(
                f"cannot combine {type(self).__name__} and {type(other).__name__} operands")
        if self.field != other.field:
            raise ValueError("mixed scalar modes")
        if self.alphabet != other.alphabet:
            raise ValueError("operands over different alphabets")

    def __add__(self, other):
        self._check_compatible(other)
        add, zero = self.field.add, self.field.zero
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = add(out.get(k, zero), c)
        return type(self)(self.alphabet, self.field, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        if c == self.field.zero:
            return type(self).zero(self.alphabet, self.field)
        mul = self.field.mul
        return type(self)(
            self.alphabet, self.field,
            {k: mul(c, v) for k, v in self.coeffs.items()}, _normalized=True,
        )

    def __mul__(self, other):
        self._check_compatible(other)
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        product = self._key_product
        out = {}
        for u, a in self.coeffs.items():
            for v, b in other.coeffs.items():
                k = product(u, v)
                out[k] = add(out.get(k, zero), mul(a, b))
        return type(self)(self.alphabet, self.field, out)

    def extend_linearly(self, image, cls):
        """``sum c * image(k)`` over the terms ``c k`` of ``self``: the linear
        map sending each key ``k`` to the element ``image(k)`` of ``cls``."""
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        out = {}
        for k, c in self.coeffs.items():
            for p, x in image(k).coeffs.items():
                out[p] = add(out.get(p, zero), mul(c, x))
        return cls(self.alphabet, self.field, out)


class Polynomial(_Combination):
    """Element of the free algebra over a fixed alphabet and scalar field."""

    __slots__ = ()
    _UNIT_KEY = ()
    _key_order = staticmethod(Alphabet.glex_key)
    _key_degree = staticmethod(Alphabet.degree)
    _key_product = staticmethod(operator.add)     # concatenation of words

    @classmethod
    def from_word(cls, alphabet, field, w: Word, coeff=None):
        c = field.one if coeff is None else coeff
        return cls(alphabet, field, {tuple(w): c})

    @classmethod
    def generator(cls, alphabet, field, name: str):
        return cls.from_word(alphabet, field, (alphabet.letter(name),))

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

    def is_homogeneous(self) -> bool:
        return len(self.homogeneous_components()) <= 1

    def __repr__(self):
        from .expressions import render_polynomial

        return render_polynomial(self)


class TensorElement(_Combination):
    """Element of the tensor square; keys are pairs of words, ordered by
    the graded lex order of the left leg, then of the right leg."""

    __slots__ = ()
    _UNIT_KEY = ((), ())

    @staticmethod
    def _key_order(alphabet, p):
        return (alphabet.glex_key(p[0]), alphabet.glex_key(p[1]))

    @staticmethod
    def _key_degree(alphabet, p):
        return alphabet.degree(p[0]) + alphabet.degree(p[1])

    @staticmethod
    def _key_product(p, q):
        return (p[0] + q[0], p[1] + q[1])

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
