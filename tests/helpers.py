"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive and separate from the library code
paths it checks: rotation-based Lyndon recognition, the Shirshov split by
comparing every suffix, exhaustive factorization search, the standard
bracketing and the standard coproduct from their definitions, the coalgebra
laws expanded on plain dicts, dense Fraction Gaussian elimination, partition
counting, necklace counts and the Dynkin projection.
"""

import sys
from fractions import Fraction
from itertools import product

from hopfpbw import Polynomial
from hopfpbw.word import GREATER, compare_lex


def stack_depth():
    """The number of frames on the current call stack."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def all_words(n_letters, max_len):
    for length in range(max_len + 1):
        yield from product(range(n_letters), repeat=length)


def brute_is_lyndon(u):
    """Rotation definition: u nonempty and u > wv for every split u = vw."""
    if not u:
        return False
    for i in range(1, len(u)):
        if compare_lex(u, u[i:] + u[:i]) != GREATER:
            return False
    return True


def reference_shirshov_split(u):
    """``u`` split before its lex-largest proper suffix, found by comparing
    each proper suffix with the largest one so far (quadratic)."""
    best = 1
    for i in range(2, len(u)):
        if compare_lex(u[i:], u[best:]) == GREATER:
            best = i
    return u[:best], u[best:]


def graded_words(degrees, max_degree):
    """All words over letters of the given degrees with degree <= max_degree."""
    for w in all_words(len(degrees), max_degree // min(degrees)):
        if sum(degrees[i] for i in w) <= max_degree:
            yield w


def brute_lyndon_counts(degrees, max_degree):
    """Number of Lyndon words per degree ``1..max_degree``, by exhaustive
    rotation tests."""
    counts = [0] * (max_degree + 1)
    for w in graded_words(degrees, max_degree):
        if brute_is_lyndon(w):
            counts[sum(degrees[i] for i in w)] += 1
    return counts[1:]


def brute_irreducible_lyndon(degrees, leading_words, max_degree):
    """Lyndon words of degree <= max_degree with no leading word as a factor,
    sorted by degree, then lex (a proper prefix after its extensions)."""
    def reducible(w):
        return any(w[i:i + len(lw)] == lw
                   for lw in leading_words for i in range(len(w) - len(lw) + 1))

    found = [w for w in graded_words(degrees, max_degree)
             if brute_is_lyndon(w) and not reducible(w)]
    pad = len(degrees)
    found.sort(key=lambda w: (sum(degrees[i] for i in w), *w, pad))
    return found


def brute_irreducible_counts(degrees, leading_words, max_degree):
    """Number of words per degree ``0..max_degree`` with no leading word as a
    factor, by exhaustive search."""
    counts = [0] * (max_degree + 1)
    for w in graded_words(degrees, max_degree):
        if not any(w[i:i + len(lw)] == lw
                   for lw in leading_words for i in range(len(w) - len(lw) + 1)):
            counts[sum(degrees[i] for i in w)] += 1
    return counts


def brute_first_rewrite(degrees, leading_words, w):
    """``(lw, i)``: the glex-smallest of ``leading_words`` that occurs in ``w``
    and its first position, found by trying each at every position; or None."""
    pad = len(degrees)
    hits = [((sum(degrees[c] for c in lw), *lw, pad), i, lw)
            for lw in leading_words for i in range(len(w) - len(lw) + 1)
            if w[i:i + len(lw)] == lw]
    if not hits:
        return None
    _, i, lw = min(hits)
    return lw, i


def reference_reduce(degrees, elements, coeffs, p=None):
    """Normal form by the plain sort-and-scan loop.

    Each step sorts the support, takes the glex-largest word that contains a
    leading word, and rewrites it with the first element in ascending
    leading-word order that occurs in it, at its first occurrence.
    ``elements`` are monic coefficient mappings; scalars are taken as
    Fractions, or as residues mod ``p``.  Returns the normal form as a dict in
    glex-descending order.
    """
    pad = len(degrees)

    def glex(w):
        return (sum(degrees[i] for i in w), *w, pad)

    def scalar(c):
        return int(c) % p if p else Fraction(c)

    rules = sorted(((max(g, key=glex), g) for g in elements), key=lambda t: glex(t[0]))
    coeffs = {w: scalar(c) for w, c in coeffs.items() if scalar(c)}
    while True:
        hit = None
        for w in sorted(coeffs, key=glex, reverse=True):
            for lw, g in rules:
                spots = [i for i in range(len(w) - len(lw) + 1) if w[i:i + len(lw)] == lw]
                if spots:
                    hit = (w, lw, g, spots[0])
                    break
            if hit:
                break
        if hit is None:
            return {w: coeffs[w] for w in sorted(coeffs, key=glex, reverse=True)}
        w, lw, g, i = hit
        c = coeffs[w]
        for u, a in g.items():
            v = w[:i] + u + w[i + len(lw):]
            value = scalar(coeffs.get(v, 0) - c * scalar(a))
            if value:
                coeffs[v] = value
            else:
                coeffs.pop(v, None)


def unresolved_compositions(degrees, elements, bound, p=None):
    """Compositions of a basis that ``reference_reduce`` does not take to zero.

    ``elements`` are monic coefficient mappings.  For each ordered pair of
    them (an element with itself included) this forms every composition of
    degree <= ``bound``: at each overlap of the leading words, ``l1 = a s``
    and ``l2 = s c`` with ``s`` nonempty and proper, the polynomial
    ``f c - a g``; at each occurrence ``l1 = a l2 c`` of one leading word
    inside another, ``f - a g c``.  None is skipped.  By the diamond lemma the
    basis is complete up to ``bound`` exactly when the returned list of
    ``(l1, l2, f_right, g_left, g_right)`` is empty.
    """
    pad = len(degrees)

    def glex(w):
        return (sum(degrees[i] for i in w), *w, pad)

    leading = [max(g, key=glex) for g in elements]
    failures = []
    for f, l1 in zip(elements, leading):
        for g, l2 in zip(elements, leading):
            # (f_right, g_left, g_right): the composition f f_right - g_left g g_right
            shapes = [(l2[k:], l1[:-k], ()) for k in range(1, min(len(l1), len(l2)))
                      if l1[-k:] == l2[:k]]
            if f is not g:
                shapes += [((), l1[:i], l1[i + len(l2):]) for i in range(len(l1) - len(l2) + 1)
                           if l1[i:i + len(l2)] == l2]
            for f_right, g_left, g_right in shapes:
                if sum(degrees[i] for i in l1 + f_right) > bound:
                    continue
                composition = {}
                for u, a in f.items():
                    composition[u + f_right] = composition.get(u + f_right, 0) + a
                for u, a in g.items():
                    v = g_left + u + g_right
                    composition[v] = composition.get(v, 0) - a
                if reference_reduce(degrees, elements, composition, p):
                    failures.append((l1, l2, f_right, g_left, g_right))
    return failures


def reference_bracket(w, p=None):
    """The standard bracketing ``[w]`` from its definition, as a mapping
    word -> integer (or residue mod ``p``) with no zero values: ``[1] = 1``
    and ``[x] = x``; a Lyndon word ``w = uv``, with ``v`` its longest proper
    Lyndon suffix, gives ``[u][v] - [v][u]``; any other word gives
    ``[l][rest]``, with ``l`` its longest Lyndon prefix (its first Lyndon
    factor)."""
    def times(f, g):
        out = {}
        for u, a in f.items():
            for v, b in g.items():
                out[u + v] = out.get(u + v, 0) + a * b
        return out

    if len(w) <= 1:
        value = {tuple(w): 1}
    elif brute_is_lyndon(w):
        cut = min(i for i in range(1, len(w)) if brute_is_lyndon(w[i:]))
        left, right = reference_bracket(w[:cut]), reference_bracket(w[cut:])
        value = times(left, right)
        for u, c in times(right, left).items():
            value[u] = value.get(u, 0) - c
    else:
        cut = max(i for i in range(1, len(w)) if brute_is_lyndon(w[:i]))
        value = times(reference_bracket(w[:cut]), reference_bracket(w[cut:]))
    value = {u: c % p if p else c for u, c in value.items()}
    return {u: c for u, c in value.items() if c}


def reference_coproduct(w, p=None):
    """The standard coproduct of the word ``w`` from its definition, the sum
    over the subsets S of positions of ``w|S (x) w|(positions not in S)``: a
    mapping of word pairs to integers (or residues mod ``p``) with no zero
    values."""
    out = {}
    for picks in product((True, False), repeat=len(w)):
        left = tuple(x for x, pick in zip(w, picks) if pick)
        right = tuple(x for x, pick in zip(w, picks) if not pick)
        out[(left, right)] = out.get((left, right), 0) + 1
    out = {pair: c % p if p else c for pair, c in out.items()}
    return {pair: c for pair, c in out.items() if c}


def reference_coassoc_counit(degrees, elements, images, bound, p=None):
    """Where the counit and coassociativity laws fail in the quotient, from
    their definitions on plain dicts.

    ``images`` maps each letter to its coproduct, a mapping of word pairs to
    integers; ``elements`` are the monic Groebner basis elements.  Each word
    of degree <= ``bound`` that contains no leading word is checked: both
    sides of each law are expanded from the images, and every tensor leg is
    reduced with ``reference_reduce``, over Q or mod ``p``.  Returns the
    failures as ``(w, law)`` pairs, ``law`` one of "eps (x) id",
    "id (x) eps" and "coassociativity".
    """
    pad = len(degrees)
    leading = [max(g, key=lambda w: (sum(degrees[i] for i in w), *w, pad)) for g in elements]
    normal_forms, coproducts = {}, {}

    def nf(w):
        if w not in normal_forms:
            reduced_w = reference_reduce(degrees, elements, {w: 1}, p)
            # integral rationals as int, so that products stay cheap
            normal_forms[w] = {u: int(x) if int(x) == x else x for u, x in reduced_w.items()}
        return normal_forms[w]

    def coproduct(w):
        if w not in coproducts:
            out = {((), ()): 1}
            for x in w:
                step = {}
                for (a, b), c in out.items():
                    for (u, v), d in images[x].items():
                        step[(a + u, b + v)] = step.get((a + u, b + v), 0) + c * d
                out = step
            coproducts[w] = out
        return coproducts[w]

    def reduced(terms):
        """Leg-wise normal form of a mapping of word tuples to scalars."""
        out = {}
        for legs, c in terms.items():
            for picks in product(*(nf(leg).items() for leg in legs)):
                value = c
                for _u, x in picks:
                    value *= x
                key = tuple(u for u, _x in picks)
                out[key] = out.get(key, 0) + value
        out = {key: int(c) % p if p else Fraction(c) for key, c in out.items()}
        return {key: c for key, c in out.items() if c}

    failures = []
    for w in graded_words(degrees, bound):
        if any(w[i:i + len(lw)] == lw for lw in leading for i in range(len(w) - len(lw) + 1)):
            continue
        dw = coproduct(w)
        for law, empty_leg in (("eps (x) id", 0), ("id (x) eps", 1)):
            side = {}
            for pair, c in dw.items():
                if not pair[empty_leg]:
                    leg = (pair[1 - empty_leg],)
                    side[leg] = side.get(leg, 0) + c
            if reduced(side) != reduced({(w,): 1}):
                failures.append((w, law))
        # (Delta (x) id) Delta(w) - (id (x) Delta) Delta(w), then its legs reduced
        difference = {}
        for (a, b), c in dw.items():
            for (u, v), x in coproduct(a).items():
                difference[(u, v, b)] = difference.get((u, v, b), 0) + c * x
            for (u, v), x in coproduct(b).items():
                difference[(a, u, v)] = difference.get((a, u, v), 0) - c * x
        if reduced({legs: c for legs, c in difference.items() if c}):
            failures.append((w, "coassociativity"))
    return failures


def brute_factorizations(u, lyndon_words=None):
    """All nondecreasing factorizations of ``u`` into Lyndon words."""
    if lyndon_words is None:
        lyndon_words = None  # recognition on the fly
    out = []

    def rec(rest, acc):
        if not rest:
            out.append(list(acc))
            return
        for cut in range(1, len(rest) + 1):
            head = rest[:cut]
            if not brute_is_lyndon(head):
                continue
            if acc and compare_lex(acc[-1], head) == GREATER:
                continue
            acc.append(head)
            rec(rest[cut:], acc)
            acc.pop()

    rec(u, [])
    return out


def echelon_rank(rows, p=None):
    """Rank of a sparse matrix over Q, or over F_p when ``p`` is given; rows
    are dicts keyed by column."""
    def scalar(c):
        return Fraction(c) if p is None else int(c) % p

    rows = [dict(r) for r in rows if r]
    pivots = {}
    rank = 0
    for row in rows:
        row = {k: scalar(v) for k, v in row.items() if scalar(v)}
        while row:
            col = min(row)
            if col in pivots:
                factor = row[col]
                pivot = pivots[col]
                for k, v in pivot.items():
                    row[k] = scalar(row.get(k, 0) - factor * v)
                row = {k: v for k, v in row.items() if v}
            else:
                inv = 1 / row[col] if p is None else pow(row[col], -1, p)
                row = {k: scalar(v * inv) for k, v in row.items()}
                pivots[col] = row
                rank += 1
                row = {}
    return rank


def ideal_dimension_oracle(alphabet, relations, degree, p=None):
    """dim of the degree-``degree`` component of the quotient, by dense
    linear algebra over the input relations (independent of completion);
    over Q, or over F_p when ``p`` is given."""
    from hopfpbw.word import words_of_degree

    words = {w: i for i, w in enumerate(words_of_degree(alphabet, degree))}
    rows = []
    for rel in relations:
        d = rel.degree()
        if d > degree:
            continue
        for left_deg in range(degree - d + 1):
            right_deg = degree - d - left_deg
            if right_deg < 0:
                continue
            for a in words_of_degree(alphabet, left_deg):
                for b in words_of_degree(alphabet, right_deg):
                    row = {}
                    for w, c in rel.coeffs.items():
                        row[words[a + w + b]] = row.get(words[a + w + b], Fraction(0)) + Fraction(c)
                    rows.append(row)
    return len(words) - echelon_rank(rows, p)


def weighted_monomial_count(degrees, n):
    """Number of multisets from parts with the given degrees summing to n."""
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for d in degrees:
        for k in range(d, n + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs[n]


def necklace_count(k, n):
    """Number of Lyndon words of length n over k letters (Witt formula)."""

    def mobius(m):
        result = 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        if m > 1:
            result = -result
        return result

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * k ** (n // d)
    return total // n


def dynkin_map(f: Polynomial) -> Polynomial:
    """Right-nested bracketing of each word: w = a1..an -> [a1,[a2,[...]]],
    expanded on plain dicts with integer coefficients, as in
    ``reference_bracket``."""
    field = f.field
    out = {}
    for w, c in f.coeffs.items():
        if not w:
            continue
        acc = {(w[-1],): 1}
        for letter in reversed(w[:-1]):
            nested = {}
            for u, a in acc.items():
                nested[(letter,) + u] = nested.get((letter,) + u, 0) + a
                nested[u + (letter,)] = nested.get(u + (letter,), 0) - a
            acc = nested
        for u, a in acc.items():
            out[u] = field.add(out.get(u, field.zero), field.mul(c, field.of_int(a)))
    return Polynomial(f.alphabet, field, out)


def is_lie_by_dynkin(f: Polynomial) -> bool:
    """Dynkin-Specht-Wever: each word-length component must satisfy
    ``dynkin(f_m) = m * f_m``."""
    by_length = {}
    for w, c in f.coeffs.items():
        by_length.setdefault(len(w), {})[w] = c
    for m, coeffs in by_length.items():
        part = Polynomial(f.alphabet, f.field, coeffs)
        if m == 0:
            if not part.is_zero():
                return False
            continue
        if dynkin_map(part) != part.scale(f.field.of_int(m)):
            return False
    return True
