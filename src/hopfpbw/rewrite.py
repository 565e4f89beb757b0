"""Degree-truncated noncommutative Groebner engine under graded lex.

Homogeneous ideals only: truncation at a degree bound is then exact, and the
interreduced monic system obtained by resolving all overlap compositions of
degree <= bound certifies normal forms, irreducible words, dimensions and
heights up to that bound.  Completion processes compositions by ascending
total degree, then by graded-lex order of the overlap word, so output is
deterministic for a fixed input order.  An overlap word with a leading word
strictly inside it (away from both ends) is skipped unreduced: the system is
complete below its degree, so by Bergman's diamond lemma the composition
resolves through the pieces it splits into, each disjoint, nested or an
overlap on a shorter word.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass, field as dataclass_field

from .poly import Polynomial, TensorElement, standard_bracket
from .word import count_words_by_degree, is_lyndon, lyndon_words, words_of_degree


class OutOfCertifiedRange(ValueError):
    """Raised when an operation needs degrees above the certified bound."""


class WholeAlgebraIdeal(ValueError):
    """Raised when the relations generate the unit ideal."""


class RelationError(ValueError):
    """Raised for a relation that is zero, inhomogeneous or above the bound."""


class TruncatedGB:
    """Interreduced monic rewriting system complete up to ``bound``."""

    def __init__(self, alphabet, field, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.alphabet = alphabet
        self.field = field
        self.bound = bound
        self.elements: list[Polynomial] = []
        self._keys: list = []             # glex keys (degree, word) of leading words, parallel
        # (degree, length) -> {leading word: element}, keys ascending
        self._lw_index: dict[tuple, dict] = {}
        self._nf_bracket_cache: dict = {}
        self._irreducible_lyndon: list | None = None   # up to bound, glex sorted

    # -- basis bookkeeping ---------------------------------------------------

    def leading_words(self) -> list:
        return [g.leading_word() for g in self.elements]

    def _insert(self, g: Polynomial):
        lw = g.leading_word()
        key = self.alphabet.glex_key(lw)
        pos = bisect.bisect_left(self._keys, key)
        self.elements.insert(pos, g)
        self._keys.insert(pos, key)
        group = (key[0], len(lw))
        if group not in self._lw_index:   # keep the groups ascending
            self._lw_index[group] = {}
            self._lw_index = dict(sorted(self._lw_index.items()))
        self._lw_index[group][lw] = g
        self._basis_changed()

    def _remove(self, idx: int):
        g = self.elements.pop(idx)
        degree, lw = self._keys.pop(idx)
        group = (degree, len(lw))
        del self._lw_index[group][lw]
        if not self._lw_index[group]:
            del self._lw_index[group]
        self._basis_changed()
        return g

    def _basis_changed(self):
        self._nf_bracket_cache.clear()
        self._irreducible_lyndon = None

    # -- word-level reducibility ----------------------------------------------

    def is_reducible_word(self, w) -> bool:
        """True iff some basis leading word occurs as a factor of ``w``."""
        return self._find_rewrite(w) is not None

    def _ends_in_leading_word(self, w) -> bool:
        for (_, length), lws in self._lw_index.items():
            if w[-length:] in lws:   # a word shorter than length is no key
                return True
        return False

    def _find_rewrite(self, w):
        """The first basis element, in ascending leading-word order, whose
        leading word occurs in ``w``, with its first position; or None.

        The leading words are scanned by ascending degree and the first
        degree with a factor of ``w`` decides, because graded lex compares
        degrees first; within one degree it is plain tuple order, so the
        smallest factor there wins without a ``glex_key``.
        """
        best = None
        for (degree, length), lws in self._lw_index.items():
            if best is not None and degree > best[0]:
                break
            for i in range(len(w) - length + 1):
                lw = w[i:i + length]
                if lw in lws and (best is None or lw < best[1]):  # repeats keep the first position
                    best = (degree, lw, lws[lw], i)
        return None if best is None else best[2:]

    # -- reduction -------------------------------------------------------------

    def _reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of ``f`` by single rewrite steps.

        Each step rewrites the glex-largest reducible support word with
        ``_find_rewrite`` (see ``_eliminate``); a word without a rewrite is
        final.
        """
        if not self.elements or not f.coeffs:
            return f

        def rewrite(w):
            found = self._find_rewrite(w)
            if found is None:
                return None
            g, i = found
            prefix, suffix = w[:i], w[i + len(g.leading_word()):]
            return ((prefix + u + suffix, a) for u, a in g.coeffs.items())

        kept, _ = _eliminate(self.alphabet, self.field, f.coeffs, rewrite)
        return Polynomial(self.alphabet, self.field, kept, _normalized=True)

    def nf_word(self, w) -> Polynomial:
        """Normal form of the word ``w``."""
        return self._reduce(Polynomial.from_word(self.alphabet, self.field, w))

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The unique representative of ``f + I`` on irreducible words."""
        if f.degree() > self.bound:
            raise OutOfCertifiedRange(
                f"degree {f.degree()} exceeds the certified bound {self.bound}")
        return self._reduce(f)

    def normal_form_tensor(self, t: TensorElement) -> TensorElement:
        if t.degree() > self.bound:
            raise OutOfCertifiedRange(
                f"degree {t.degree()} exceeds the certified bound {self.bound}")
        return t.map_legs(self._reduce, self._reduce)

    # -- irreducible-word combinatorics -----------------------------------------

    def irreducible_words(self, n: int) -> list:
        """All irreducible words of degree exactly ``n``, lex ascending."""
        if n > self.bound:
            raise OutOfCertifiedRange(f"degree {n} exceeds bound {self.bound}")
        if n == 0:
            return [()]
        return words_of_degree(self.alphabet, n, prune=self._ends_in_leading_word)

    def dimensions(self) -> list[int]:
        """Quotient dimensions per degree ``0..bound``, counted in one search
        over the irreducible words."""
        return count_words_by_degree(self.alphabet, self.bound, prune=self._ends_in_leading_word)

    def height(self, u):
        """Least ``n`` with ``u**n`` reducible, or None if not observed."""
        u = tuple(u)
        if not is_lyndon(u):
            raise ValueError("height is defined for Lyndon words only")
        d = self.alphabet.degree(u)
        if d > self.bound:
            raise OutOfCertifiedRange(f"degree {d} exceeds bound {self.bound}")
        n = 1
        while n * d <= self.bound:
            if self.is_reducible_word(u * n):
                return n
            n += 1
        return None


def _eliminate(alphabet, field, coeffs: dict, pivot):
    """Triangular elimination down the graded lex order.

    Walks the support of ``coeffs`` from the glex-largest word down.  For a
    word ``w`` with coefficient ``c``, ``pivot(w)`` returns None to keep it,
    or the terms ``(word, scalar)`` of a polynomial whose leading word is
    ``w`` with coefficient one; ``c`` times that polynomial is subtracted,
    which cancels ``w`` and changes only smaller words.  Words wait in a
    max-heap, so a word is final once popped.  Returns ``(kept, pivots)``:
    the kept words and the coefficients the pivots were taken with, both
    keyed glex-descending.
    """
    add, mul, neg, zero = field.add, field.mul, field.neg, field.zero
    descending = alphabet.glex_descending_key

    coeffs = dict(coeffs)
    heap = [(descending(w), w) for w in coeffs]     # heapq pops the smallest
    heapq.heapify(heap)
    kept, pivots = {}, {}
    while heap:
        w = heapq.heappop(heap)[-1]
        c = coeffs.get(w)
        if c is None:
            continue     # cancelled by an earlier pivot
        terms = pivot(w)
        if terms is None:
            kept[w] = c
            continue
        pivots[w] = c
        nc = neg(c)
        for v, a in terms:
            old = coeffs.get(v)
            nv = mul(nc, a) if old is None else add(old, mul(nc, a))
            if nv == zero:
                del coeffs[v]
            else:
                if old is None:
                    heapq.heappush(heap, (descending(v), v))
                coeffs[v] = nv
    return kept, pivots


def _validate_relation(rel: Polynomial, bound: int, label: str):
    """Refuse a relation that is zero, inhomogeneous, constant (the whole
    algebra) or of degree above ``bound``."""
    if rel.is_zero():
        raise RelationError(f"{label} is zero")
    parts = rel.homogeneous_components()
    if len(parts) > 1:
        degrees = " and ".join(str(n) for n in parts)
        raise RelationError(f"{label} is inhomogeneous: degrees {degrees}")
    (deg,) = parts
    if deg == 0:
        raise WholeAlgebraIdeal(f"{label} is a nonzero constant: ideal is the whole algebra")
    if deg > bound:
        raise RelationError(f"{label} has degree {deg} above the bound {bound}")


def _overlap_positions(l1, l2):
    """Overlap lengths k: a nonempty proper suffix of l1 equals a prefix of l2."""
    top = min(len(l1), len(l2))
    for k in range(1, top):
        if l1[len(l1) - k:] == l2[:k]:
            yield k


def compute_truncated_gb(alphabet, field, relations, bound: int) -> TruncatedGB:
    """Interreduced monic rewriting system complete to degree ``bound``."""
    gb = TruncatedGB(alphabet, field, bound)
    for i, rel in enumerate(relations):
        if rel.alphabet != alphabet or rel.field != field:
            raise ValueError(f"relation {i + 1} has mismatched alphabet or scalar mode")
        _validate_relation(rel, bound, f"relation {i + 1}")

    pending = deque(relations)
    pairs: list = []           # heap of (degree, lex key of overlap word, seq, f, g, k)
    seen_pairs: set = set()
    counter = 0

    def push_pairs(h: Polynomial):
        nonlocal counter
        for g in list(gb.elements):
            for first, second in ((h, g), (g, h)):
                l1, l2 = first.leading_word(), second.leading_word()
                for k in _overlap_positions(l1, l2):
                    tag = (l1, l2, k)
                    if tag in seen_pairs:
                        continue
                    seen_pairs.add(tag)
                    overlap = l1 + l2[k:]
                    deg = alphabet.degree(overlap)
                    if deg > bound:
                        continue
                    counter += 1
                    heapq.heappush(
                        pairs,
                        (deg, alphabet.lex_key(overlap), counter, first, second, k))

    def incorporate(f: Polynomial):
        f = gb._reduce(f)
        if f.is_zero():
            return
        if f.degree() == 0:
            raise WholeAlgebraIdeal("unit reached during completion: ideal is the whole algebra")
        f = f.scale(field.inv(f.leading_coefficient()))
        lw = f.leading_word()
        affected = []
        for idx in range(len(gb.elements) - 1, -1, -1):
            g = gb.elements[idx]
            if any(_contains(w, lw) for w in g.coeffs):
                affected.append(gb._remove(idx))
        gb._insert(f)
        push_pairs(f)
        for g in reversed(affected):
            pending.append(g)

    while pending or pairs:
        while pending:
            incorporate(pending.popleft())
        if pairs:
            _deg, _key, _seq, f, g, k = heapq.heappop(pairs)
            l1, l2 = f.leading_word(), g.leading_word()
            if gb.is_reducible_word((l1 + l2[k:])[1:-1]):
                continue   # resolvable through compositions of lower degree
            left_tail = Polynomial.from_word(alphabet, field, l2[k:])
            right_head = Polynomial.from_word(alphabet, field, l1[:len(l1) - k])
            pending.append(f * left_tail - right_head * g)
    return gb


def _contains(w, factor) -> bool:
    span = len(w) - len(factor)
    if span < 0:
        return False
    return any(w[i:i + len(factor)] == factor for i in range(span + 1))


def normal_form(f: Polynomial, gb: TruncatedGB) -> Polynomial:
    return gb.normal_form(f)


def irreducible_lyndon_words(gb: TruncatedGB, max_degree: int) -> list:
    """All irreducible Lyndon words of degree <= ``max_degree``, glex sorted.

    Every prefix of an irreducible Lyndon word is irreducible and can start a
    Lyndon word, so one search visits only such prefixes: it drops a prefix
    that ends in a leading word or fails the Duval scan.  The words up to the
    bound are found once per system and stored on ``gb`` (cleared when the
    basis changes); a lower ``max_degree`` keeps a prefix of that list.
    """
    if max_degree > gb.bound:
        raise OutOfCertifiedRange(f"degree {max_degree} exceeds bound {gb.bound}")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    words = gb._irreducible_lyndon
    if words is None:
        words = lyndon_words(gb.alphabet, gb.bound, prune=gb._ends_in_leading_word)
        words.sort(key=gb.alphabet.glex_key)
        gb._irreducible_lyndon = words
    degree = gb.alphabet.degree
    return [u for u in words if degree(u) <= max_degree]


def height(u, gb: TruncatedGB):
    return gb.height(u)


def admissible_words(gb: TruncatedGB, n: int, kind: str = "irreducible") -> list:
    """Degree-``n`` members of the irreducible / B / C word families."""
    if kind not in ("irreducible", "B", "C"):
        raise ValueError(f"unknown kind {kind!r}")
    if n > gb.bound:
        raise OutOfCertifiedRange(f"degree {n} exceeds bound {gb.bound}")
    if kind == "irreducible":
        return gb.irreducible_words(n)
    if n == 0:
        return [()]
    alphabet = gb.alphabet
    factors = sorted(irreducible_lyndon_words(gb, n), key=alphabet.lex_key)
    degrees = [alphabet.degree(u) for u in factors]
    # B takes any exponent; C stays below the height of each factor.
    caps = [None] * len(factors)
    if kind == "C":
        caps = [None if h is None else h - 1 for h in map(gb.height, factors)]
    out = []
    stack = [(0, (), n)]   # next factor, word so far, degree left
    while stack:
        start, w, remaining = stack.pop()
        if remaining == 0:
            out.append(w)
            continue
        for j in range(start, len(factors)):
            u, d, cap = factors[j], degrees[j], caps[j]
            top = remaining // d if cap is None else min(cap, remaining // d)
            for e in range(1, top + 1):
                stack.append((j + 1, w + u * e, remaining - e * d))
    out.sort(key=alphabet.glex_key)
    return out


def _nf_bracket(gb: TruncatedGB, w) -> Polynomial:
    cached = gb._nf_bracket_cache.get(w)
    if cached is None:
        cached = gb._reduce(standard_bracket(gb.alphabet, w, gb.field))
        gb._nf_bracket_cache[w] = cached
    return cached


def bracket_coordinates(f: Polynomial, gb: TruncatedGB) -> dict:
    """Coordinates of ``f + I`` in the bracketed irreducible-word basis.

    Returns the unique coefficients ``c_w`` over irreducible words with
    ``NF(f) = sum c_w NF([w])``, found by graded-lex-descending
    back-substitution (``[w]`` has leading word ``w``).
    """
    g = gb.normal_form(f)
    _, coords = _eliminate(gb.alphabet, gb.field, g.coeffs,
                           lambda w: _nf_bracket(gb, w).coeffs.items())
    return coords


def tensor_bracket_coordinates(t: TensorElement, gb: TruncatedGB) -> dict:
    """Leg-wise bracket coordinates of a tensor element.

    Returns a mapping ``(w, w') -> scalar`` over pairs of irreducible words
    with ``(NF (x) NF)(t) = sum c NF([w]) (x) NF([w'])``.
    """
    alphabet, fld = t.alphabet, t.field
    key = alphabet.glex_key

    # Every regrouping below is keyed by a pair that is unique where it is
    # read, so each term is assigned, never accumulated.
    by_right: dict = {}
    for (a, b), c in t.coeffs.items():
        by_right.setdefault(b, {})[a] = c
    mid: dict = {}
    for b in sorted(by_right, key=key, reverse=True):
        left = Polynomial(alphabet, fld, by_right[b])
        for w, c in bracket_coordinates(left, gb).items():
            mid[(w, b)] = c

    by_left: dict = {}
    for (w, b), c in mid.items():
        by_left.setdefault(w, {})[b] = c
    out: dict = {}
    for w in sorted(by_left, key=key, reverse=True):
        right = Polynomial(alphabet, fld, by_left[w])
        # bracket_coordinates never returns a zero coordinate.
        for w2, c in bracket_coordinates(right, gb).items():
            out[(w, w2)] = c
    return out


@dataclass
class IrreducibleData:
    """Per-degree irreducible combinatorics of a truncated system."""

    bound: int
    dimensions: list[int]
    lyndon: list                      # irreducible Lyndon words, glex sorted
    heights: dict = dataclass_field(default_factory=dict)


def collect_irreducible_data(gb: TruncatedGB, max_degree: int | None = None) -> IrreducibleData:
    bound = gb.bound if max_degree is None else max_degree
    if bound > gb.bound:
        raise OutOfCertifiedRange(f"degree {bound} exceeds bound {gb.bound}")
    lyndon = irreducible_lyndon_words(gb, bound)
    heights = {u: gb.height(u) for u in lyndon}
    dims = gb.dimensions()[:bound + 1]
    return IrreducibleData(bound=bound, dimensions=dims, lyndon=lyndon, heights=heights)
