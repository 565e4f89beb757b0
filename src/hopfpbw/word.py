"""Words over a well-ordered graded alphabet.

Letters carry positive integer degrees and are totally ordered degree-major,
then by declaration rank.  Words are plain tuples of letter indices; the
``Alphabet`` object owns degrees, names and sort keys.

The lexicographic order used throughout is the reversed-prefix variant:
``u < v`` holds when ``v`` is a proper prefix of ``u``, or when the first
differing position carries a smaller letter in ``u``.  In particular a word
is smaller than each of its proper prefixes (``x**2 < x``), and Lyndon words
are the words strictly greater than all of their proper nonempty suffixes.
"""

from __future__ import annotations

Word = tuple  # tuple of letter indices

LESS, EQUAL, GREATER = -1, 0, 1


class Alphabet:
    """A finite well-ordered alphabet of graded generators.

    ``generators`` is a sequence of ``(name, degree)`` pairs in declaration
    order.  Internally letters are reindexed so that the integer index order
    coincides with the letter order (degree-major, then declaration rank);
    all word comparisons reduce to integer comparisons.
    """

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("alphabet needs at least one generator")
        seen = set()
        for name, degree in generators:
            if not isinstance(degree, int) or degree < 1:
                raise ValueError(f"generator {name!r}: degree must be a positive integer")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        order = sorted(range(len(generators)), key=lambda i: (generators[i][1], i))
        self.names = tuple(generators[i][0] for i in order)
        self.degrees = tuple(generators[i][1] for i in order)
        self.declaration = tuple((name, deg) for name, deg in generators)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.size = len(self.names)
        self._degree_of = self.degrees.__getitem__
        # all letters of one degree: a word's degree is it times the length
        self._letter_degree = self.degrees[0] if len(set(self.degrees)) == 1 else 0

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.declaration == other.declaration

    def __hash__(self):
        return hash(self.declaration)

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"Alphabet({gens})"

    def letter(self, name):
        """Index of the named generator; the single-letter word is ``(i,)``."""
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def word(self, *names):
        return tuple(self.letter(n) for n in names)

    def degree(self, w: Word) -> int:
        if self._letter_degree:
            return self._letter_degree * len(w)
        return sum(map(self._degree_of, w))

    def glex_key(self, w: Word):
        """Sort key for the graded lex order (ascending): ``(degree, w)``.
        No word is a proper prefix of another word of the same degree, so
        within one degree plain tuple order is the lex order."""
        if self._letter_degree:   # ``degree`` inline: one frame per key
            return self._letter_degree * len(w), w
        return sum(map(self._degree_of, w)), w

    def lex_key(self, w: Word):
        """Sort key realizing the reversed-prefix lex order (ascending)."""
        # Right-padding with a maximal sentinel makes proper prefixes larger.
        return (*w, self.size)

    def render_word(self, w: Word) -> str:
        if not w:
            return "1"
        return " ".join(self.names[i] for i in w)


def compare_lex(u: Word, v: Word) -> int:
    """Compare two words lexicographically; returns -1, 0 or 1."""
    for a, b in zip(u, v):
        if a != b:
            return LESS if a < b else GREATER
    if len(u) == len(v):
        return EQUAL
    # The longer word extends the shorter one, hence is smaller.
    return LESS if len(u) > len(v) else GREATER


def compare_glex(alphabet: Alphabet, u: Word, v: Word) -> int:
    """Compare by degree first, ties broken lexicographically."""
    du, dv = alphabet.degree(u), alphabet.degree(v)
    if du != dv:
        return LESS if du < dv else GREATER
    return compare_lex(u, v)


def is_lyndon(u: Word) -> bool:
    """True iff ``u`` is nonempty and exceeds every proper nonempty suffix.

    One Duval scan in the reversed-letter convention, O(len(u)): the word is
    Lyndon iff the scan reaches its end with period ``len(u)``.
    """
    n = len(u)
    if not n:
        return False
    i, j = 0, 1
    while j < n and u[i] >= u[j]:
        i = 0 if u[i] > u[j] else i + 1
        j += 1
    return j == n and i == 0


def shirshov_factorization(u: Word) -> tuple[Word, Word]:
    """Split ``u`` before its lexicographically largest proper suffix, which
    is the last Lyndon factor of ``u[1:]``: one Duval scan, O(len(u))."""
    if len(u) < 2:
        raise ValueError("Shirshov factorization needs a word of length >= 2")
    right = lyndon_decomposition(u[1:])[-1]
    return u[:len(u) - len(right)], right


def lyndon_decomposition(u: Word) -> list[Word]:
    """The unique nondecreasing factorization of ``u`` into Lyndon words.

    Duval's factorization with all letter comparisons reversed: under the
    reversed convention the factorization comes out nondecreasing.
    """
    out = []
    n = len(u)
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and u[i] >= u[j]:
            i = k if u[i] > u[j] else i + 1
            j += 1
        step = j - i
        while k <= i:
            out.append(u[k:k + step])
            k += step
    return out


def factors_below(w: Word, cut: Word, strict: bool = True) -> bool:
    """All Lyndon factors of ``w`` lie below ``cut`` (or equal it, when not
    ``strict``) in the lex order."""
    for factor in lyndon_decomposition(w):
        cmp = compare_lex(factor, cut)
        if cmp == GREATER or (strict and cmp == EQUAL):
            return False
    return True


def enumerate_lyndon(alphabet: Alphabet, max_degree: int) -> list[Word]:
    """All Lyndon words of degree <= ``max_degree``, sorted by graded lex.

    A depth-first search over the prefixes that can still start a Lyndon
    word (see ``lyndon_words``); no other word is built.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    found = lyndon_words(alphabet, max_degree)
    found.sort(key=alphabet.glex_key)
    return found


def lyndon_words(alphabet: Alphabet, max_degree: int, avoid=None) -> list[Word]:
    """Lyndon words of degree <= ``max_degree``, unsorted.

    The search carries the Duval scan of each prefix: its period ``p`` (the
    length of its longest Lyndon prefix, repeated).  A letter larger than the
    one ``p`` places back ends the scan, so no extension of it is Lyndon and
    the subtree is dropped; a smaller letter makes the extension Lyndon; an
    equal one keeps the period.  ``avoid`` is an optional automaton of
    factors to avoid, stepped beside each prefix as in ``words_of_degree``.
    """
    degrees = alphabet.degrees
    goto, final = avoid or ([[0] * alphabet.size], [False])
    found = []
    stack = [((), 0, max_degree, 0)]   # prefix, period, degree left, state
    while stack:
        w, p, budget, s = stack.pop()
        n = len(w)
        if n and p == n:
            found.append(w)
        top = w[n - p] if n else alphabet.size   # the root takes every letter
        row = goto[s]
        for c, d in enumerate(degrees[:top + 1]):
            if d > budget:   # letters are sorted by degree
                break
            if not final[row[c]]:
                stack.append((w + (c,), p if c == top else n + 1, budget - d, row[c]))
    return found


def words_of_degree(alphabet: Alphabet, n: int, avoid=None) -> list[Word]:
    """All words of degree exactly ``n``, sorted by lex (ascending).

    ``avoid`` is an optional automaton ``(goto, final)`` of factors to skip:
    ``goto[s][c]`` steps state ``s`` (0 for the empty word) by the letter
    ``c``, and a word whose state is final ends in such a factor.  Each
    prefix carries its state, and the subtree of a final one is skipped.
    """
    degrees = alphabet.degrees
    goto, final = avoid or ([[0] * alphabet.size], [False])
    out = []
    stack = [((), n, 0)]   # word, degree left, state
    while stack:
        w, budget, s = stack.pop()
        if budget == 0:
            out.append(w)
            continue
        row = goto[s]
        for c, d in enumerate(degrees):
            if d > budget:   # letters are sorted by degree
                break
            if not final[row[c]]:
                stack.append((w + (c,), budget - d, row[c]))
    out.reverse()   # the stack pops the largest letter first
    return out
