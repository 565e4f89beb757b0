"""Free-algebra arithmetic, bracketings, coproducts and their support lemmas."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hopfpbw import (
    Alphabet,
    Polynomial,
    PrimeField,
    QQ,
    TensorElement,
    bracket_coordinates,
    bracket_monomial,
    commutator,
    enumerate_lyndon,
    free_gb,
    is_lyndon,
    lyndon_decomposition,
    multiply,
    parse_polynomial,
    standard_bracket,
    standard_comultiplication,
)
from hopfpbw.poly import binomial
from hopfpbw.word import GREATER, LESS, compare_lex, shirshov_factorization
import hopfpbw.poly as poly

from helpers import all_words, graded_words, reference_bracket, reference_shirshov_split

AB2 = Alphabet([("x1", 1), ("x2", 1)])
AB3 = Alphabet([("x1", 1), ("x2", 1), ("x3", 1)])


def P(src, alphabet=AB2, field=QQ):
    return parse_polynomial(src, alphabet, field)


def test_multiplication_examples():
    assert P("x1") * P("x2") == P("x1*x2")
    x = Polynomial.from_word(AB2, QQ, (0,))
    one = Polynomial.one(AB2, QQ)
    assert TensorElement.of(x, one) * TensorElement.of(one, x) == TensorElement.of(x, x)
    assert (P("x1") + P("x2")) * (P("x1") - P("x2")) == P("x1^2 - x1*x2 + x2*x1 - x2^2")


def test_multiplication_mixed_modes_rejected():
    for other, message in ((P("x1", field=PrimeField(5)), "mixed scalar modes"),
                           (P("x1", alphabet=AB3), "different alphabets")):
        for op in (multiply, commutator):
            with pytest.raises(ValueError, match=message):
                op(P("x1"), other)
    # a polynomial never combines with a tensor element, in either order
    x = P("x1")
    t = TensorElement.of(x, P("x2"))
    for mixed in (lambda: x + t, lambda: x * t, lambda: t * x, lambda: t - x,
                  lambda: multiply(x, t), lambda: multiply(t, x),
                  lambda: commutator(x, t), lambda: commutator(t, x)):
        with pytest.raises(ValueError, match="Polynomial and TensorElement|TensorElement and Polynomial"):
            mixed()
    assert not x == t and not t == x


def test_arithmetic_properties_randomized():
    rng = random.Random(5)
    words = list(all_words(2, 3))

    def random_poly():
        return Polynomial(
            AB2, QQ,
            {rng.choice(words): Fraction(rng.randint(-3, 3)) for _ in range(4)})

    for _ in range(60):
        f, g, h = random_poly(), random_poly(), random_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g).degree() <= max(f.degree(), g.degree())

    # tensors over Q and F_p: few short words and small scalars, so that
    # sums and products cancel
    short = list(all_words(2, 2))
    for field in (QQ, PrimeField(5)):
        def scalar():
            return field.of_int(rng.randint(-2, 2))

        def random_tensor():
            return TensorElement(
                AB2, field,
                {(rng.choice(short), rng.choice(short)): scalar() for _ in range(4)})

        for _ in range(60):
            _check_tensor_arithmetic(random_tensor(), random_tensor(), random_tensor(), scalar())


def _assert_canonical_tensor(t):
    """No zero scalar is stored and keys run (glex left, glex right) descending."""
    key = t.alphabet.glex_key
    assert all(c != t.field.zero for c in t.coeffs.values())
    keys = list(t.coeffs)
    assert keys == sorted(keys, key=lambda p: (key(p[0]), key(p[1])), reverse=True)


def _check_tensor_arithmetic(f, g, h, c):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert (f - g) + g == f and (f - f).is_zero()
    assert f.scale(c) + g.scale(c) == (f + g).scale(c)
    for t in (f + g, f - g, -f, f * g, f.scale(c)):
        _assert_canonical_tensor(t)
    parts = (f * g).homogeneous_components()
    for n, part in parts.items():
        _assert_canonical_tensor(part)
        assert part.degree() == n
    assert sum(parts.values(), TensorElement.zero(f.alphabet, f.field)) == f * g


# Letters declared out of degree order, so the alphabet reindexes them.
MIXED = Alphabet([("b", 2), ("a", 1), ("c", 3), ("d", 1)])
_MIXED_WORDS = list(graded_words(MIXED.degrees, 4))
_MIXED_LEGS = list(graded_words(MIXED.degrees, 2))


def _recomputed_glex_key(w):
    return (sum(MIXED.degrees[i] for i in w), w)


def _combinations(cls, field):
    """Small random polynomials or tensor elements over ``MIXED``; few keys
    and small scalars, zero included, so that sums and products cancel."""
    keys = (st.sampled_from(_MIXED_WORDS) if cls is Polynomial
            else st.tuples(st.sampled_from(_MIXED_LEGS), st.sampled_from(_MIXED_LEGS)))
    scalars = st.fractions(-3, 3, max_denominator=4).filter(   # invertible in the field
        lambda q: not field.char or q.denominator % field.char)
    return st.dictionaries(keys, scalars, max_size=6).map(
        lambda coeffs: cls(MIXED, field, {k: field.of_fraction(c) for k, c in coeffs.items()}))


_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
_CLASSES = pytest.mark.parametrize("cls", [Polynomial, TensorElement],
                                   ids=["polynomial", "tensor"])


@_FIELDS
@_CLASSES
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_difference_equals_sum_with_the_negation(cls, field, data):
    f, g = data.draw(_combinations(cls, field)), data.draw(_combinations(cls, field))
    difference, reference = f - g, f + g.scale(-1)
    assert difference == reference
    assert list(difference.coeffs.items()) == list(reference.coeffs.items())


@_FIELDS
@_CLASSES
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_support_order_is_glex_descending_by_recomputed_keys(cls, field, data):
    key = (_recomputed_glex_key if cls is Polynomial
           else lambda p: (_recomputed_glex_key(p[0]), _recomputed_glex_key(p[1])))
    f, g = data.draw(_combinations(cls, field)), data.draw(_combinations(cls, field))
    for h in (f, g, f + g, f - g, g - f, f * g):
        keys = list(h.coeffs)
        assert keys == sorted(keys, key=key, reverse=True)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=repr)
@_CLASSES
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_commutator_equals_the_difference_of_products(cls, field, data):
    f, g = data.draw(_combinations(cls, field)), data.draw(_combinations(cls, field))
    # f with itself and with a polynomial in f: products whose supports cancel
    for x, y in ((f, g), (g, f), (f, f), (f, f * f + f.scale(field.of_int(3)))):
        got, want = commutator(x, y), x * y - y * x
        assert got == want
        assert [(k, c, type(c)) for k, c in got.coeffs.items()] == \
            [(k, c, type(c)) for k, c in want.coeffs.items()]
    assert commutator(f, f).is_zero() and commutator(f, f * f).is_zero()


def test_cold_bracket_walk_factorizes_each_node_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return shirshov_factorization(w)

    monkeypatch.setattr(poly, "shirshov_factorization", counted)
    for w in all_words(3, 7):
        nodes, stack = set(), [w]
        while stack:
            u = stack.pop()
            if len(u) >= 2 and u not in nodes:
                nodes.add(u)
                stack.extend(reference_shirshov_split(u))
        calls.clear()
        poly._shirshov_bracket(AB3, QQ, w, {})
        assert sorted(calls) == sorted(nodes), w


def test_prime_field_agrees_with_reduction():
    rng = random.Random(17)
    F5 = PrimeField(5)
    words = list(all_words(2, 3))
    for _ in range(40):
        fq = Polynomial(AB2, QQ, {rng.choice(words): Fraction(rng.randint(-9, 9)) for _ in range(4)})
        gq = Polynomial(AB2, QQ, {rng.choice(words): Fraction(rng.randint(-9, 9)) for _ in range(4)})
        fp = Polynomial(AB2, F5, {w: F5.of_fraction(c) for w, c in fq.coeffs.items()})
        gp = Polynomial(AB2, F5, {w: F5.of_fraction(c) for w, c in gq.coeffs.items()})
        prod_q = fq * gq
        prod_p = fp * gp
        assert prod_p == Polynomial(AB2, F5, {w: F5.of_fraction(c) for w, c in prod_q.coeffs.items()})


def test_commutator_examples():
    f = P("x1*x2 + 2*x2")
    assert commutator(f, f).is_zero()
    assert commutator(P("x2"), P("x1")) == P("x2*x1 - x1*x2")
    a, b, c = P("x1", AB3), P("x2", AB3), P("x3", AB3)
    jacobi = (commutator(a, commutator(b, c))
              + commutator(b, commutator(c, a))
              + commutator(c, commutator(a, b)))
    assert jacobi.is_zero()


def test_standard_bracket_examples():
    x = AB2.word("x1")
    assert standard_bracket(AB2, x) == P("x1")
    assert standard_bracket(AB2, ()) == Polynomial.one(AB2, QQ)
    assert standard_bracket(AB2, AB2.word("x2", "x1")) == P("x2*x1 - x1*x2")
    assert standard_bracket(AB2, AB2.word("x2", "x1", "x1")) == P(
        "x2*x1^2 - 2*x1*x2*x1 + x1^2*x2")


def test_bracket_monomial_examples():
    w = AB2.word("x1", "x2")
    assert bracket_monomial(AB2, w) == P("x1*x2")
    w = AB2.word("x1", "x2", "x1")
    assert bracket_monomial(AB2, w) == P("x1") * P("x2*x1 - x1*x2")
    for u in enumerate_lyndon(AB2, 5):
        assert bracket_monomial(AB2, u) == standard_bracket(AB2, u)


def test_bracket_monomial_agrees_with_bracket_everywhere():
    # the recursion factors through the Shirshov split of each factor
    for w in all_words(2, 6):
        assert bracket_monomial(AB2, w) == standard_bracket(AB2, w)
    mixed = Alphabet([("a", 1), ("b", 2), ("c", 3)])
    for w in graded_words(mixed.degrees, 7):
        assert bracket_monomial(mixed, w) == standard_bracket(mixed, w)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=repr)
def test_brackets_match_their_definition(field):
    mixed = Alphabet([("c", 3), ("a", 1), ("b", 2)])
    for w in graded_words(mixed.degrees, 7):
        expected = reference_bracket(w, field.char or None)
        assert dict(standard_bracket(mixed, w, field).coeffs) == expected
        assert dict(bracket_monomial(mixed, w, field).coeffs) == expected


def test_leading_word_examples():
    assert standard_bracket(AB2, AB2.word("x2", "x1")).leading_word() == AB2.word("x2", "x1")
    graded = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    f_flat = parse_polynomial("x2*x1 - x1*x2 - x3", AB3, QQ)
    assert f_flat.leading_word() == AB3.word("x2", "x1")
    f_graded = parse_polynomial("x2*x1 - x1*x2 - x3", graded, QQ)
    assert f_graded.leading_word() == graded.word("x3")
    assert Polynomial.one(AB2, QQ).leading_word() == ()
    with pytest.raises(ValueError):
        Polynomial.zero(AB2, QQ).leading_word()


def test_leading_word_of_brackets_everywhere():
    for w in all_words(2, 7):
        if w:
            assert standard_bracket(AB2, w).leading_word() == w


def test_bracketing_leading_lemma_exhaustive():
    # [w] - w is supported on lex-smaller words with the same letter multiset.
    for w in all_words(3, 6):
        if not w:
            continue
        rest = standard_bracket(AB3, w) - Polynomial.from_word(AB3, QQ, w)
        for v in rest.coeffs:
            assert compare_lex(v, w) == LESS
            assert sorted(v) == sorted(w)


def test_standard_comultiplication_examples():
    x = P("x1")
    one = Polynomial.one(AB2, QQ)
    assert standard_comultiplication(x) == TensorElement.of(one, x) + TensorElement.of(x, one)
    xx = P("x1^2")
    expected = (TensorElement.of(one, xx)
                + TensorElement.of(x, x).scale(Fraction(2))
                + TensorElement.of(xx, one))
    assert standard_comultiplication(xx) == expected
    F2 = PrimeField(2)
    x2 = Polynomial.from_word(AB2, F2, (0, 0))
    one2 = Polynomial.one(AB2, F2)
    assert standard_comultiplication(x2) == (
        TensorElement.of(one2, x2) + TensorElement.of(x2, one2))


def test_map_legs_applies_polynomial_maps_leg_wise():
    # Each map receives one word of its leg as a polynomial and returns its
    # image; the result is extended bilinearly.
    t = TensorElement.of(P("x1*x2 + 2*x2"), P("x1 - x2^2"))
    seen = []

    def square(f):
        seen.append(f)
        return f * f

    def swap_letters(f):
        seen.append(f)
        (w,) = f.coeffs
        return Polynomial.from_word(AB2, QQ, tuple(1 - x for x in w))

    image = t.map_legs(square, swap_letters)
    assert image == TensorElement.of(P("x1*x2*x1*x2 + 2*x2^2"), P("x2 - x1^2"))
    assert seen and all(isinstance(f, Polynomial) and len(f.coeffs) == 1 for f in seen)
    assert t.map_legs(lambda f: Polynomial.zero(AB2, QQ), swap_letters).is_zero()


def test_map_legs_maps_each_distinct_leg_once():
    t = TensorElement.of(P("x1 + x2 + x1*x2"), P("x1 - x2^2"))
    calls = []

    def counting(side):
        def image(f):
            calls.append((side, f.leading_word()))
            return f.scale(2)
        return image

    assert t.map_legs(counting("left"), counting("right")) == t.scale(4)
    assert sorted(calls) == sorted(
        [("left", (0,)), ("left", (1,)), ("left", (0, 1)), ("right", (0,)), ("right", (1, 1))])


def test_coproduct_is_algebra_map():
    rng = random.Random(3)
    words = list(all_words(2, 3))
    for _ in range(30):
        f = Polynomial(AB2, QQ, {rng.choice(words): Fraction(rng.randint(-3, 3)) for _ in range(3)})
        g = Polynomial(AB2, QQ, {rng.choice(words): Fraction(rng.randint(-3, 3)) for _ in range(3)})
        assert standard_comultiplication(f * g) == (
            standard_comultiplication(f) * standard_comultiplication(g))


def test_power_formula_for_coproducts():
    # binomial expansion of the coproduct of bracket powers, also mod 2
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for u in enumerate_lyndon(AB2, 3):
            bu = standard_bracket(AB2, u, field)
            n = 1
            power = bu
            while (n + 1) * AB2.degree(u) <= 6 and n < 4:
                n += 1
                power = power * bu
                expected = TensorElement.zero(AB2, field)
                partial = [Polynomial.one(AB2, field)]
                for _ in range(n):
                    partial.append(partial[-1] * bu)
                for p in range(n + 1):
                    expected = expected + TensorElement.of(
                        partial[p], partial[n - p]).scale(binomial(field, n, p))
                assert standard_comultiplication(power) == expected


def _free_coords(f, bound):
    return bracket_coordinates(f, free_gb(f.alphabet, f.field, bound))


def test_bracket_coordinates_zero_ideal_example():
    coords = _free_coords(P("x2*x1"), 2)
    assert coords == {AB2.word("x2", "x1"): Fraction(1), AB2.word("x1", "x2"): Fraction(1)}


def test_bracketing_expansion_lemma():
    # [[u],[v]] expands over bracket monomials with factors in (v, uv].
    lyndon = enumerate_lyndon(AB3, 4)
    for u in lyndon:
        for v in lyndon:
            if compare_lex(u, v) != GREATER:
                continue
            uv = u + v
            if AB3.degree(uv) > 6:
                continue
            f = commutator(standard_bracket(AB3, u), standard_bracket(AB3, v))
            for w, _c in _free_coords(f, AB3.degree(uv)).items():
                assert sorted(w) == sorted(uv)
                for factor in lyndon_decomposition(w):
                    assert compare_lex(v, factor) == LESS
                    assert compare_lex(factor, uv) != GREATER


def test_reordering_bracketing_lemma():
    # products of bracketed Lyndon words re-expand between the extreme factors
    lyndon = [u for u in enumerate_lyndon(AB2, 4)]

    def sequences(total):
        if total == 0:
            yield []
            return
        for u in lyndon:
            d = AB2.degree(u)
            if d <= total:
                for rest in sequences(total - d):
                    yield [u] + rest

    for total in range(1, 6):
        for seq in sequences(total):
            if len(seq) < 2:
                continue
            f = Polynomial.one(AB2, QQ)
            for u in seq:
                f = f * standard_bracket(AB2, u)
            lo = min(seq, key=AB2.lex_key)
            hi = max(seq, key=AB2.lex_key)
            multiset = sorted(letter for u in seq for letter in u)
            for w, _c in _free_coords(f, total).items():
                assert sorted(w) == multiset
                for factor in lyndon_decomposition(w):
                    assert compare_lex(factor, lo) != LESS
                    assert compare_lex(factor, hi) != GREATER


def test_commutator_subalgebra_lemma():
    # [[u], products of brackets below v] stays below uv, for u > v Lyndon.
    lyndon = enumerate_lyndon(AB2, 4)
    rng = random.Random(41)
    for u in lyndon:
        for v in lyndon:
            if compare_lex(u, v) != GREATER:
                continue
            smaller = [w for w in lyndon if compare_lex(w, v) == LESS]
            if not smaller:
                continue
            if AB2.degree(u + v) > 5:
                continue
            for _ in range(4):
                seq = [rng.choice(smaller) for _ in range(rng.randint(1, 2))]
                total = AB2.degree(u) + sum(AB2.degree(w) for w in seq)
                if total > 6:
                    continue
                g = Polynomial.one(AB2, QQ)
                for w in seq:
                    g = g * standard_bracket(AB2, w)
                f = commutator(standard_bracket(AB2, u), g)
                for w, _c in _free_coords(f, total).items():
                    for factor in lyndon_decomposition(w):
                        assert compare_lex(factor, u + v) == LESS


def test_homogeneous_components_and_canonical_order():
    f = P("x1 + x2*x1 + 3")
    parts = f.homogeneous_components()
    assert sorted(parts) == [0, 1, 2]
    keys = list(f.coeffs)
    glex = [AB2.glex_key(w) for w in keys]
    assert glex == sorted(glex, reverse=True)


def test_is_lyndon_guard_on_brackets():
    # non-Lyndon words still get the product-split bracketing
    w = AB2.word("x1", "x1")
    assert standard_bracket(AB2, w) == P("x1^2")
    assert not is_lyndon(w)


def test_bracket_of_a_long_word_needs_no_recursion_depth():
    two = Alphabet([("x", 1), ("y", 1)])
    assert standard_bracket(two, (0,) * 1200) == Polynomial.from_word(two, QQ, (0,) * 1200)
