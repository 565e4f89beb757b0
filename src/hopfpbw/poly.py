"""Exact arithmetic in the free algebra and its tensor square.

Polynomials are finitely supported scalar mappings on words, tensor elements
the same on pairs of words, and both rest on one sparse-combination core,
``_Combination``: the sorting constructor, equality, degree, homogeneous
components, sum, difference, scaling, product and linear extension are
written once.  Each class supplies four per-key hooks: its sort key, read
from the alphabet's table of graded lex keys (``_sort_key``), the degree of
a key (``_key_degree``), the unit key (``_UNIT_KEY``) and the product of two
keys (``_key_product``); a polynomial reads its degree off its leading word
instead of scanning.  Scalars are those of the field (see ``fields``): over
Q an ``int`` when integral and a ``Fraction`` otherwise, over F_p a residue;
a zero scalar is never stored.  Support iteration order is canonical:
graded-lex descending, leg by leg for pairs, so a polynomial's leading word
is its first key; the constructor sorts once, and code that already holds a
canonical mapping passes ``_normalized=True``.
"""

from __future__ import annotations

import math
import operator
from functools import partial

from .fields import QQ
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
                             key=self._sort_key(alphabet), reverse=True)
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

    def _merge(self, other, op):
        """``op`` (the field's ``add`` or ``sub``) applied key-wise, in one pass."""
        self._check_compatible(other)
        zero = self.field.zero
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = op(out.get(k, zero), c)
        return type(self)(self.alphabet, self.field, out)

    def __add__(self, other):
        return self._merge(other, self.field.add)

    def __sub__(self, other):
        return self._merge(other, self.field.sub)

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
    _sort_key = staticmethod(operator.attrgetter("glex_key"))
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

    def degree(self) -> int:
        """Degree of the leading word (``.coeffs`` is glex descending); -1 for zero."""
        return self.alphabet.degree(self.leading_word()) if self.coeffs else -1

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
    def _sort_key(alphabet):
        return lambda p, key=alphabet.glex_key: (key(p[0]), key(p[1]))

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
        """Apply linear maps to the two legs, each distinct leg once; a map takes
        a polynomial and may return any word-keyed combination, e.g. coordinates."""
        alphabet, field = self.alphabet, self.field
        add, mul, zero = field.add, field.mul, field.zero
        lefts, rights, out = {}, {}, {}
        for (a, b), c in self.coeffs.items():
            if a not in lefts:
                lefts[a] = fleft(Polynomial.from_word(alphabet, field, a)).coeffs
            if b not in rights:
                rights[b] = fright(Polynomial.from_word(alphabet, field, b)).coeffs
            for u, x in lefts[a].items():
                cx = mul(c, x)
                for v, y in rights[b].items():
                    p = (u, v)
                    out[p] = add(out.get(p, zero), mul(cx, y))
        return TensorElement(alphabet, field, out)

    def __repr__(self):
        from .expressions import render_tensor

        return render_tensor(self)


def multiply(f, g):
    """Product of two polynomials or two tensor elements."""
    return f * g


def commutator(f, g):
    """``fg - gf`` of two polynomials or two tensor elements, in one pass over
    the term pairs: each ``a*b`` is added at ``uv`` and subtracted at ``vu`` in
    one mapping, which is sorted once."""
    f._check_compatible(g)
    field = f.field
    add, sub, mul, zero = field.add, field.sub, field.mul, field.zero
    product = f._key_product
    out = {}
    for u, a in f.coeffs.items():
        for v, b in g.coeffs.items():
            c = mul(a, b)
            k = product(u, v)
            out[k] = add(out.get(k, zero), c)
            k = product(v, u)
            out[k] = sub(out.get(k, zero), c)
    return type(f)(f.alphabet, field, out)


def leading_word(f: Polynomial) -> Word:
    return f.leading_word()


# -- standard bracketing ---------------------------------------------------


def _shirshov_bracket(alphabet: Alphabet, field, w: Word, memo: dict, reduce=None):
    """``[w]`` by Shirshov recursion: ``[x] = x``; for ``w = lr`` split by
    ``shirshov_factorization``, ``[l][r] - [r][l]`` if ``w`` is Lyndon, else
    ``[l][r]``.  Each value goes through ``reduce`` if given and into ``memo``;
    a reduction multiplicative on the words met (NF below the bound of a
    complete system) thus never builds ``[w]``."""
    if w in memo:
        return memo[w]
    # A post-order walk: a word is revisited, with the halves of its one
    # factorization, once both halves are known.
    stack = [(w, None)]
    while stack:
        v, halves = stack.pop()
        if v in memo:
            continue
        if len(v) <= 1:
            value = Polynomial.from_word(alphabet, field, v)
        else:
            left, right = halves or shirshov_factorization(v)
            if left not in memo or right not in memo:
                stack += [(v, (left, right)), (right, None), (left, None)]
                continue
            bl, br = memo[left], memo[right]
            value = commutator(bl, br) if is_lyndon(v) else bl * br
        memo[v] = value if reduce is None else reduce(value)
    return memo[w]


def primitive_part(f: Polynomial) -> TensorElement:
    """``P(f) = f (x) 1 + 1 (x) f``, the standard coproduct of a Lie polynomial."""
    one = Polynomial.one(f.alphabet, f.field)
    return TensorElement.of(f, one) + TensorElement.of(one, f)


def standard_bracket(alphabet: Alphabet, w: Word, field=None) -> Polynomial:
    """The recursive standard bracketing ``[w]``; ``[1] = 1``, ``[x] = x``."""
    return _shirshov_bracket(alphabet, field or QQ, tuple(w), {})


def bracket_monomial(alphabet: Alphabet, w: Word, field=None) -> Polynomial:
    """Product of the standard bracketings of the Lyndon factors of ``w``."""
    field = field or QQ
    memo = {}
    out = Polynomial.one(alphabet, field)
    for factor in lyndon_decomposition(tuple(w)):
        out = out * _shirshov_bracket(alphabet, field, factor, memo)
    return out


def bracket_term_bound(w: Word) -> int:
    """An upper bound on the terms of ``[w]``, found without building it: the
    smaller of the rearrangements of ``w`` and 2^(Lyndon nodes of the Shirshov
    tree), as each such node at most doubles the product of its children's."""
    rearrangements = math.factorial(len(w))
    for letter in set(w):
        rearrangements //= math.factorial(w.count(letter))
    lyndon_nodes, stack = 0, [tuple(w)]
    while stack and 2 ** lyndon_nodes < rearrangements:
        u = stack.pop()
        if len(u) > 1:
            lyndon_nodes += is_lyndon(u)
            stack.extend(shirshov_factorization(u))
    return min(2 ** lyndon_nodes, rearrangements)


# -- standard comultiplication ---------------------------------------------


def standard_comultiplication(f: Polynomial) -> TensorElement:
    """The algebra map sending every letter to ``1 (x) x + x (x) 1``."""
    from .coalg import Comultiplication

    return Comultiplication.standard(f.alphabet, f.field).of_poly(f)


def binomial(field, n: int, k: int):
    return field.of_int(math.comb(n, k))
