"""Degree-truncated noncommutative Groebner engine under graded lex.

Homogeneous ideals only: truncation at a degree bound is then exact, and the
interreduced monic system obtained by resolving all overlap compositions of
degree <= bound certifies normal forms, irreducible words, dimensions and
heights up to that bound.  Completion runs one degree at a time: an element
of degree n holds only words of degree n, so nothing found at degree n or
above reduces a lower one, and every lower degree is final when degree n
starts.  The reduced basis is unique, so it does not depend on the input
order.  An overlap word with a leading word strictly inside it (away from
both ends) is skipped unreduced: the system is complete below its degree,
so by Bergman's diamond lemma the composition resolves through the pieces
it splits into, each disjoint, nested or an overlap on a shorter word.

Every question about words reads one Aho–Corasick automaton of the leading
words: a rewrite is one pass over the word, reducibility a final state, and
the word searches and the dimension count step a state beside each prefix.
A word meets a leading word of its degree or higher only as itself, so a
basis change of degree ``d`` leaves the automaton valid on words of degree
<= ``d``: completion builds the automaton once per degree.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, product
from math import gcd, inf, lcm

from .poly import Polynomial, TensorElement, _shirshov_bracket
from .word import is_lyndon, lyndon_words, words_of_degree


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
        self.elements: list[Polynomial] = []   # glex ascending by leading word
        self._lw_index: dict = {}               # leading word -> _integral(element)
        self._automaton = None                  # exact on words of degree <= _exact_to
        self._exact_to = -1
        self._nf_bracket_cache: dict = {}

    # -- basis bookkeeping ---------------------------------------------------

    def leading_words(self) -> list:
        return [g.leading_word() for g in self.elements]

    def _insert(self, g: Polynomial):
        bisect.insort(self.elements, g, key=lambda h: self.alphabet.glex_key(h.leading_word()))
        self._lw_index[g.leading_word()] = _integral(g.coeffs)
        self._basis_changed(g.degree())

    def _remove(self, idx: int):
        g = self.elements.pop(idx)
        del self._lw_index[g.leading_word()]
        self._basis_changed(g.degree())
        return g

    def _basis_changed(self, degree: int):
        """A leading word of ``degree`` came or went; words of that degree or
        lower meet it only as themselves, so the automaton holds for them."""
        self._exact_to = min(self._exact_to, degree)
        self._nf_bracket_cache.clear()

    def certify(self, degree: int):
        """Refuse a question of ``degree`` above the bound: nothing there is certified."""
        if degree > self.bound:
            raise OutOfCertifiedRange(f"degree {degree} exceeds the certified bound {self.bound}")

    def _tables(self, degree=inf):
        """The automaton of the leading words (``_leading_word_automaton``),
        exact on words of degree at most ``degree``: rebuilt only when a
        leading word of lower degree came or went since the last build."""
        if self._exact_to < degree:
            self._automaton = _leading_word_automaton(self.leading_words(), self.alphabet.size)
            self._exact_to = inf
        return self._automaton

    # -- word-level reducibility ----------------------------------------------

    def is_reducible_word(self, w) -> bool:
        """True iff some basis leading word occurs as a factor of ``w``."""
        return w in self._lw_index or self._factor_rewrite(w) is not None

    def _factor_rewrite(self, w):
        """The glex-smallest leading word that is a proper factor of ``w``
        (of lower degree, so glex smaller than ``w``), the integral form
        (``_integral``) of its element and its first position; or None.

        One pass of ``_tables(deg w)``, exact on a proper factor: each state
        names the smallest leading word ending there, and a match replaces
        the one kept only when it is strictly smaller, so of equal matches
        the first position stays.  ``w`` itself is skipped, live or gone.
        """
        goto, _, rank, words = self._tables(self.alphabet.degree(w))
        best = len(words)
        state = end = 0
        for j, c in enumerate(w):
            state = goto[state][c]
            r = rank[state]
            if r < best:
                best, end = r, j
        if best == len(words) or len(words[best]) == len(w):
            return None
        lw = words[best]
        return lw, self._lw_index[lw], end + 1 - len(lw)

    # -- reduction -------------------------------------------------------------

    def _reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of ``f`` by single rewrite steps (``_rewrite``) down
        the glex-largest reducible support word (see ``_eliminate``)."""
        if not self.elements or not f.coeffs:
            return f
        kept, _ = _eliminate(self.alphabet, self.field, f.coeffs, self._rewrite)
        return Polynomial(self.alphabet, self.field, kept, _normalized=True)

    def _rewrite(self, w):
        """``(L, terms of L g)`` for the glex-smallest leading word of ``g``
        in ``w``, at its first position, or None: a proper factor
        (``_factor_rewrite``), else ``w`` itself, read off the index."""
        found = self._factor_rewrite(w)
        if found is None:
            form = self._lw_index.get(w)
            return form and (form[0], form[1].items())
        lw, (scale, multiple), i = found
        prefix, suffix = w[:i], w[i + len(lw):]
        return scale, ((prefix + u + suffix, a) for u, a in multiple.items())

    def nf_word(self, w) -> Polynomial:
        """Normal form of the word ``w``."""
        return self._reduce(Polynomial.from_word(self.alphabet, self.field, w))

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The unique representative of ``f + I`` on irreducible words."""
        self.certify(f.degree())
        return self._reduce(f)

    def normal_form_tensor(self, t: TensorElement) -> TensorElement:
        self.certify(t.degree())
        return t.map_legs(self._reduce, self._reduce)

    # -- irreducible-word combinatorics -----------------------------------------

    def irreducible_words(self, n: int) -> list:
        """All irreducible words of degree exactly ``n``, lex ascending."""
        self.certify(n)
        return words_of_degree(self.alphabet, n, self._tables()[:2])

    def dimensions(self) -> list[int]:
        """Quotient dimensions per degree ``0..bound``: irreducible words
        counted over (degree, automaton state), ``O(bound * states * letters)``;
        ``counts[d][s]`` words of degree ``d`` end in the state ``s``."""
        goto, final = self._tables()[:2]
        degrees, bound = self.alphabet.degrees, self.bound
        counts = [{} for _ in range(bound + 1)]
        counts[0][0] = 1
        for d, layer in enumerate(counts):
            for s, n in layer.items():
                row = goto[s]
                for c, e in enumerate(degrees):
                    if d + e > bound:   # letters are sorted by degree
                        break
                    t = row[c]
                    if not final[t]:
                        ahead = counts[d + e]
                        ahead[t] = ahead.get(t, 0) + n
        return [sum(layer.values()) for layer in counts]

    def height(self, u):
        """Least ``n`` with ``u**n`` reducible, or None if not observed."""
        u = tuple(u)
        if not is_lyndon(u):
            raise ValueError("height is defined for Lyndon words only")
        d = self.alphabet.degree(u)
        self.certify(d)
        n = 1
        while n * d <= self.bound:
            if self.is_reducible_word(u * n):
                return n
            n += 1
        return None


def _leading_word_automaton(words, size: int):
    """``(goto, final, rank, words)``: the Aho–Corasick automaton (CACM 18,
    1975) of ``words``, distinct nonempty words over ``size`` letters, glex
    ascending.  State 0 is the empty word; ``goto[s][c]`` is the state of the
    longest suffix of ``s c`` that is a prefix of a word.  ``rank[s]`` indexes
    the glex-smallest word that is a suffix of state ``s``, else it is
    ``len(words)``; ``final[s]`` says whether there is one."""
    goto, rank = [[0] * size], [len(words)]
    for r, lw in enumerate(words):   # the trie; 0 marks a missing edge
        s = 0
        for c in lw:
            if not goto[s][c]:
                goto[s][c] = len(goto)
                goto.append([0] * size)
                rank.append(len(words))
            s = goto[s][c]
        rank[s] = r
    fail = [0] * len(goto)
    queue = deque(t for t in goto[0] if t)
    while queue:   # breadth first, so a suffix's row is complete before it is read
        s = queue.popleft()
        rank[s] = min(rank[s], rank[fail[s]])
        row, back = goto[s], goto[fail[s]]
        for c, t in enumerate(row):
            if t:
                fail[t] = back[c]
                queue.append(t)
            else:
                row[c] = back[c]
    return goto, [r < len(words) for r in rank], rank, words


def _integral(coeffs: dict):
    """``(L, L coeffs)`` with ``L`` the lcm of the denominators of the scalars,
    so that every scalar of ``L coeffs`` is an ``int``.  When all are already
    (residues, integral rationals), that is ``(1, coeffs)`` itself."""
    if set(map(type, coeffs.values())) <= {int}:
        return 1, coeffs
    scale = lcm(*(c.denominator for c in coeffs.values()))
    return scale, {w: c.numerator * (scale // c.denominator) for w, c in coeffs.items()}


def _eliminate(alphabet, field, coeffs: dict, pivot):
    """Fraction-free triangular elimination down the graded lex order.

    Walks the support of ``coeffs`` from the glex-largest word down.  For a
    word ``w``, ``pivot(w)`` returns None to keep it, or ``L`` and the terms
    of ``L g``, where ``_integral`` takes a polynomial ``g`` whose leading
    word is ``w`` with coefficient one to ``(L, L g)``.  The pending
    combination is held as integers ``F`` over one denominator ``s``: with
    ``c = F[w]`` and ``t = gcd(c, L)``, the step ``F <- (L/t) F - (c/t) L g``,
    ``s <- s L/t`` subtracts ``(c/s) g``, which cancels ``w`` and changes
    only smaller words.  Over F_p, ``L`` and ``s`` stay 1 and scalars are
    taken mod ``p``.  Words wait in a list sorted by ``alphabet.glex_key``
    and are popped from its end, so a word is final once popped.
    Returns ``(kept, pivots)``, both keyed glex-descending: each
    kept word's scalar ``F[w] / s``, and each pivot word's pair
    ``(F[w], s)``, whose quotient is its pivot's coefficient.
    """
    p, div, key = field.char, field.div, alphabet.glex_key

    s, start = _integral(coeffs)
    pending = dict(start)
    order = sorted(map(key, pending))
    kept, pivots = {}, {}
    while order:
        w = order.pop()[1]
        c = pending.get(w)
        if c is None:
            continue     # cancelled by an earlier pivot
        found = pivot(w)
        if found is None:
            kept[w] = c if s == 1 else div(c, s)
            del pending[w]
            continue
        pivots[w] = (c, s)
        scale, terms = found
        t = gcd(c, scale)
        r, m = scale // t, c // t
        if r != 1:
            s *= r
            for v in pending:
                pending[v] *= r
        for v, a in terms:
            old = pending.get(v)
            nv = -m * a if old is None else old - m * a
            if p:
                nv %= p
            if not nv:
                del pending[v]
            else:
                if old is None:
                    bisect.insort(order, key(v))
                pending[v] = nv
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
    """Interreduced monic rewriting system complete to degree ``bound``.

    One pass per degree ``n = 1..bound``, lower degrees final: reduce the
    relations, then the compositions, inserting each nonzero remainder monic;
    re-reduce each element whose tail holds a degree-``n`` leading word found
    after it; queue the overlaps of each ordered pair with a degree-``n`` member.
    """
    gb, p = TruncatedGB(alphabet, field, bound), field.char
    inputs = [[] for _ in range(bound + 1)]     # per degree: relations, then compositions
    overlaps = [[] for _ in range(bound + 1)]   # per degree: (l1, l2, k)
    for i, rel in enumerate(relations):
        if rel.alphabet != alphabet or rel.field != field:
            raise ValueError(f"relation {i + 1} has mismatched alphabet or scalar mode")
        _validate_relation(rel, bound, f"relation {i + 1}")
        inputs[rel.degree()].append(rel)
    for n in range(1, bound + 1):
        for l1, l2, k in overlaps[n]:
            if gb.is_reducible_word((l1 + l2[k:])[1:-1]):
                continue   # resolvable through compositions of lower degree
            # f t - h g times Lf Lg, from the integral forms: same monic remainder
            (lf, f), (lg, g), t, h = gb._lw_index[l1], gb._lw_index[l2], l2[k:], l1[:-k]
            comp = {u + t: lg * a for u, a in f.items()}
            for u, a in g.items():
                v = h + u
                comp[v] = comp.get(v, 0) - lf * a
            if p:
                comp = {v: c % p for v, c in comp.items()}
            inputs[n].append(Polynomial(alphabet, field, comp))   # drops the zeros
        start = len(gb.elements)   # glex is graded: degree n sorts last
        for f in inputs[n]:
            f = gb._reduce(f)
            if f.coeffs:
                gb._insert(f.scale(field.inv(f.leading_coefficient())))
        inputs[n] = overlaps[n] = None   # spent: free them while the degrees above run
        # Tails are reduced by the lower degrees; a degree-n factor is the whole word.
        found = {g.leading_word() for g in gb.elements[start:]}
        for idx in range(start, len(gb.elements)):
            g = gb.elements[idx]
            if len(found.intersection(g.coeffs)) > 1:
                gb._remove(idx)
                gb._insert(gb._reduce(g))   # same leading word, same place
        old, fresh = gb.elements[:start], gb.elements[start:]
        for f, g in chain(product(fresh, gb.elements), product(old, fresh)):
            l1, l2 = f.leading_word(), g.leading_word()
            for k in _overlap_positions(l1, l2):
                deg = alphabet.degree(l1 + l2[k:])
                if deg <= bound:
                    overlaps[deg].append((l1, l2, k))
    return gb


def normal_form(f: Polynomial, gb: TruncatedGB) -> Polynomial:
    return gb.normal_form(f)


def irreducible_lyndon_words(gb: TruncatedGB, max_degree: int) -> list:
    """All irreducible Lyndon words of degree <= ``max_degree``, glex sorted.

    Every prefix of an irreducible Lyndon word is irreducible and can start a
    Lyndon word, so one search visits only such prefixes: it drops a prefix
    that ends in a leading word or fails the Duval scan.
    """
    gb.certify(max_degree)
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    words = lyndon_words(gb.alphabet, max_degree, gb._tables()[:2])
    words.sort(key=gb.alphabet.glex_key)
    return words


def height(u, gb: TruncatedGB):
    return gb.height(u)


def admissible_words(gb: TruncatedGB, n: int, kind: str = "irreducible") -> list:
    """Degree-``n`` members of the irreducible / B / C word families."""
    if kind not in ("irreducible", "B", "C"):
        raise ValueError(f"unknown kind {kind!r}")
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
    out.sort()   # one degree: tuple order is the lex order
    return out


def _nf_bracket(gb: TruncatedGB, w) -> Polynomial:
    """``NF([w])`` for ``deg w <= bound``, where NF is multiplicative."""
    return _shirshov_bracket(gb.alphabet, gb.field, w, gb._nf_bracket_cache, gb._reduce)


def bracket_coordinates(f: Polynomial, gb: TruncatedGB) -> dict:
    """Coordinates of ``f + I`` in the bracketed irreducible-word basis.

    Returns the unique coefficients ``c_w`` over irreducible words with
    ``NF(f) = sum c_w NF([w])``, found by graded-lex-descending
    back-substitution (``[w]`` has leading word ``w``).
    """
    def pivot(w):
        scale, multiple = _integral(_nf_bracket(gb, w).coeffs)
        return scale, multiple.items()

    _, pivots = _eliminate(gb.alphabet, gb.field, gb.normal_form(f).coeffs, pivot)
    return {w: c if s == 1 else gb.field.div(c, s) for w, (c, s) in pivots.items()}


def tensor_bracket_coordinates(t: TensorElement, gb: TruncatedGB) -> dict:
    """Leg-wise bracket coordinates of a tensor element.

    Returns ``(w, w') -> c`` over pairs of irreducible words, in canonical
    ``TensorElement`` order, with ``(NF (x) NF)(t) = sum c NF([w]) (x) NF([w'])``;
    bracket coordinates are linear, so ``map_legs`` takes them word by word.
    """
    def coordinates(f):   # keyed glex-descending, no zeros
        return Polynomial(f.alphabet, f.field, bracket_coordinates(f, gb), _normalized=True)

    return t.map_legs(coordinates, coordinates).coeffs


@dataclass
class IrreducibleData:
    """Per-degree irreducible combinatorics of a truncated system."""

    bound: int
    dimensions: list[int]
    lyndon: list                      # irreducible Lyndon words, glex sorted
    heights: dict = dataclass_field(default_factory=dict)


def collect_irreducible_data(gb: TruncatedGB, max_degree: int | None = None) -> IrreducibleData:
    bound = gb.bound if max_degree is None else max_degree
    lyndon = irreducible_lyndon_words(gb, bound)
    heights = {u: gb.height(u) for u in lyndon}
    dims = gb.dimensions()[:bound + 1]
    return IrreducibleData(bound=bound, dimensions=dims, lyndon=lyndon, heights=heights)
