"""Word orders, Lyndon recognition, factorizations and enumeration."""

import random
import tracemalloc
from itertools import product

import pytest

from hopfpbw import (
    Alphabet,
    compare_glex,
    compare_lex,
    enumerate_lyndon,
    is_lyndon,
    lyndon_decomposition,
    shirshov_factorization,
)
from hopfpbw.word import EQUAL, GREATER, LESS

from helpers import (
    all_words,
    brute_factorizations,
    brute_is_lyndon,
    brute_lyndon_counts,
    graded_words,
    necklace_count,
    reference_shirshov_split,
)

AB2 = Alphabet([("x1", 1), ("x2", 1)])
AB3 = Alphabet([("x1", 1), ("x2", 1), ("x3", 1)])
X1, X2 = 0, 1


@pytest.mark.parametrize("degrees", [(1, 1), (2, 2, 2), (1, 2), (3, 1, 3)])
def test_word_degree_is_the_sum_of_its_letter_degrees(degrees):
    alphabet = Alphabet([(f"a{i}", d) for i, d in enumerate(degrees)])
    for w in all_words(alphabet.size, 4):
        assert alphabet.degree(w) == sum(alphabet.degrees[c] for c in w)


def test_compare_lex_examples():
    # a word is greater than its own square; extending after a difference keeps order
    assert compare_lex((X1,), (X1, X1)) == GREATER
    assert compare_lex((X2, X1), (X2, X2, X1)) == LESS
    assert compare_lex((X1, X2), (X1, X2)) == EQUAL
    assert compare_lex((X1, X2), (X2, X1)) == LESS


def test_compare_lex_total_order():
    words = list(all_words(2, 5))
    rng = random.Random(7)
    for _ in range(3000):
        u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
        cuv, cvu = compare_lex(u, v), compare_lex(v, u)
        assert cuv == -cvu
        if cuv == LESS and compare_lex(v, w) == LESS:
            assert compare_lex(u, w) == LESS


def test_compare_glex_examples():
    graded = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    x1, x2, x3 = graded.letter("x1"), graded.letter("x2"), graded.letter("x3")
    assert compare_glex(graded, (x3,), (x2, x1)) == GREATER
    assert compare_glex(AB3, (2,), (1, 0)) == LESS  # all degrees one
    assert compare_glex(AB3, (), (0,)) == LESS


def test_glex_concatenation_compatible():
    rng = random.Random(11)
    graded = Alphabet([("a", 1), ("b", 2), ("c", 3)])
    words = [w for w in all_words(3, 4)]
    for _ in range(2000):
        u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
        c = compare_glex(graded, u, v)
        if c != EQUAL:
            assert compare_glex(graded, u + w, v + w) == c
            assert compare_glex(graded, w + u, w + v) == c


def test_glex_key_agrees_with_compare():
    graded = Alphabet([("a", 1), ("b", 2)])
    words = list(all_words(2, 5))
    by_key = sorted(words, key=graded.glex_key)
    for u, v in zip(by_key, by_key[1:]):
        assert compare_glex(graded, u, v) == LESS


def _mixed_alphabet():
    return Alphabet([("x1", 1), ("x2", 1), ("x3", 2), ("x4", 3)])


def test_glex_key_gives_degree_and_word_cold_and_warm():
    words = list(graded_words((1, 1, 2, 3), 7))
    alphabet = _mixed_alphabet()
    for w in words + words:   # a fresh alphabet, then the same words again
        assert alphabet.glex_key(w) == (sum(alphabet.degrees[i] for i in w), w)


def test_glex_key_leaves_equality_and_hash_alone():
    warm, cold = _mixed_alphabet(), _mixed_alphabet()
    for w in graded_words((1, 1, 2, 3), 5):
        warm.glex_key(w)
    assert warm == cold and hash(warm) == hash(cold)
    assert {warm: 1}[cold] == 1


def test_glex_key_retains_nothing_after_a_sort():
    # The key is computed on call: sorting every degree-9 word of a
    # one-degree alphabet and dropping the list leaves no key behind.  A
    # first sort on another alphabet fills the interpreter's free lists of
    # small tuples, which tracemalloc would otherwise count as held.
    alphabet = Alphabet([("x1", 1), ("x2", 1), ("x3", 1)])
    words = list(product(range(3), repeat=9))
    sorted(words, key=AB3.glex_key)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ordered = sorted(words, key=alphabet.glex_key)
        assert len(ordered) == 3 ** 9
        del ordered
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


def test_is_lyndon_examples():
    assert is_lyndon((X1,)) and is_lyndon((X2,))
    assert is_lyndon((X2, X1))
    assert not is_lyndon((X1, X2))
    assert is_lyndon((X2, X2, X1, X2, X1))
    assert not is_lyndon(())


def test_lyndon_matches_rotation_definition_exhaustive():
    for u in all_words(3, 6):
        assert is_lyndon(u) == brute_is_lyndon(u)


def test_linear_scan_matches_rotation_definition_to_length_8():
    for u in all_words(3, 8):
        assert is_lyndon(u) == brute_is_lyndon(u)


def test_suffix_characterization_L1():
    # L1: Lyndon iff greater than every proper nonempty suffix.
    for u in all_words(3, 7):
        if not u:
            continue
        by_suffix = all(compare_lex(u, u[i:]) == GREATER for i in range(1, len(u)))
        assert is_lyndon(u) == by_suffix


def test_shirshov_examples():
    u = (X2, X2, X1, X2, X1)
    assert shirshov_factorization(u) == ((X2, X2, X1), (X2, X1))
    assert shirshov_factorization((X2, X1)) == ((X2,), (X1,))
    assert shirshov_factorization((X2, X1, X1)) == ((X2, X1), (X1,))
    with pytest.raises(ValueError):
        shirshov_factorization((X1,))


def test_shirshov_factorization_matches_the_quadratic_scan():
    # letters x1:1, x2:1, x3:2 are indices 0, 1, 2; the split ignores degrees
    for u in all_words(3, 8):
        if len(u) >= 2:
            assert shirshov_factorization(u) == reference_shirshov_split(u), u


def test_L3_shirshov_parts():
    for u in all_words(3, 7):
        if len(u) < 2:
            continue
        left, right = shirshov_factorization(u)
        expected = (
            is_lyndon(left) and is_lyndon(right) and compare_lex(left, right) == GREATER
        )
        assert is_lyndon(u) == expected


def test_L4_factorization_of_products():
    lyndon = [u for u in all_words(2, 5) if is_lyndon(u)]
    for u in lyndon:
        for v in lyndon:
            if compare_lex(u, v) != GREATER:
                continue
            splits_here = shirshov_factorization(u + v) == (u, v)
            if len(u) == 1:
                cond = True
            else:
                cond = compare_lex(shirshov_factorization(u)[1], v) != GREATER
            assert splits_here == cond


def test_L2_products_keep_order():
    rng = random.Random(23)
    words = [w for w in all_words(3, 4) if w]
    hits = 0
    while hits < 200:
        u1, u2, up = rng.choice(words), rng.choice(words), rng.choice(words)
        if not (compare_lex(u1, u2) == GREATER and compare_lex(u2, up) == GREATER):
            continue
        if not (is_lyndon(u1 + u2) and is_lyndon(up)):
            continue
        hits += 1
        chain = [u1 + u2 + up, u1 + up, up]
        assert compare_lex(chain[0], chain[1]) == GREATER
        assert compare_lex(chain[1], chain[2]) == GREATER
        assert compare_lex(u1 + u2 + up, u2 + up) == GREATER
        assert compare_lex(u2 + up, up) == GREATER


def test_lex_order_lemma_randomized():
    # u < v with v not a prefix of u: any continuations preserve the order.
    rng = random.Random(31)
    words = list(all_words(3, 4))
    checked = 0
    while checked < 500:
        u, v = rng.choice(words), rng.choice(words)
        if compare_lex(u, v) != LESS or v == u[:len(v)]:
            continue
        w, w2 = rng.choice(words), rng.choice(words)
        assert compare_lex(u + w, v + w2) == LESS
        checked += 1


def test_decomposition_examples():
    assert lyndon_decomposition((X2, X1)) == [(X2, X1)]
    assert lyndon_decomposition((X1, X2, X1)) == [(X1,), (X2, X1)]
    assert lyndon_decomposition((X2, X1, X2)) == [(X2, X1), (X2,)]
    assert lyndon_decomposition(()) == []


def test_L5_decomposition_roundtrip_and_uniqueness():
    for u in all_words(2, 7):
        factors = lyndon_decomposition(u)
        joined = ()
        for f in factors:
            joined += f
            assert is_lyndon(f)
        assert joined == u
        for a, b in zip(factors, factors[1:]):
            assert compare_lex(a, b) != GREATER
        if u:
            assert brute_factorizations(u) == [factors]
    for u in all_words(3, 5):
        if u:
            assert brute_factorizations(u) == [lyndon_decomposition(u)]


def test_lex_order_of_decompositions_lemma():
    # Comparison rule through Lyndon decompositions matches plain comparison.
    words = [w for w in all_words(2, 6) if w]
    decs = {w: lyndon_decomposition(w) for w in words}
    for u in words:
        for v in words:
            du, dv = decs[u], decs[v]
            m, n = len(du), len(dv)
            rule = False
            if n < m and du[:n] == dv:
                rule = True
            else:
                for l in range(min(m, n)):
                    if du[l] != dv[l]:
                        rule = compare_lex(du[l], dv[l]) == LESS
                        break
            assert (compare_lex(u, v) == LESS) == rule


def test_enumerate_single_letter():
    single = Alphabet([("x", 1)])
    assert enumerate_lyndon(single, 3) == [(0,)]


def test_enumerate_two_letters_bound3():
    words = enumerate_lyndon(AB2, 3)
    rendered = [AB2.render_word(w) for w in words]
    assert rendered == ["x1", "x2", "x2 x1", "x2 x1 x1", "x2 x2 x1"]


def test_enumerate_counts_match_necklace_formula():
    words = enumerate_lyndon(AB2, 5)
    by_length = {}
    for w in words:
        by_length[len(w)] = by_length.get(len(w), 0) + 1
    assert [by_length.get(n, 0) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    for n in range(1, 6):
        assert by_length.get(n, 0) == necklace_count(2, n)
    three = enumerate_lyndon(AB3, 4)
    counts3 = {}
    for w in three:
        counts3[len(w)] = counts3.get(len(w), 0) + 1
    for n in range(1, 5):
        assert counts3.get(n, 0) == necklace_count(3, n)


def test_enumerate_weighted_alphabet_matches_brute_force():
    degrees = [1, 1, 2]
    graded = Alphabet([("a", 1), ("b", 1), ("c", 2)])
    words = enumerate_lyndon(graded, 9)
    counts = [0] * 9
    for w in words:
        counts[graded.degree(w) - 1] += 1
    assert counts == brute_lyndon_counts(degrees, 9)
    assert set(words) == {w for w in graded_words(degrees, 9) if brute_is_lyndon(w)}
    assert words == sorted(words, key=graded.glex_key)


def test_enumerate_respects_degrees():
    graded = Alphabet([("x", 1), ("y", 2)])
    words = enumerate_lyndon(graded, 3)
    assert all(graded.degree(w) <= 3 for w in words)
    x, y = graded.letter("x"), graded.letter("y")
    assert (y, x) in words  # degree 3, Lyndon since y > x
    assert (y,) in words


def test_alphabet_order_is_degree_major():
    mixed = Alphabet([("b", 2), ("a", 1), ("c", 1)])
    # degree-1 letters first (declaration order inside a degree), then degree 2
    assert mixed.names == ("a", "c", "b")
    assert mixed.degrees == (1, 1, 2)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet([("x", 0)])
    with pytest.raises(ValueError):
        Alphabet([("x", 1), ("x", 2)])
    with pytest.raises(ValueError):
        Alphabet([])
