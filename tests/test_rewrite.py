"""Truncated completion, normal forms, irreducible combinatorics, coordinates."""

import gc
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfpbw import (
    Alphabet,
    Polynomial,
    PrimeField,
    QQ,
    WholeAlgebraIdeal,
    admissible_words,
    bracket_coordinates,
    collect_irreducible_data,
    compute_truncated_gb,
    enumerate_lyndon,
    free_gb,
    irreducible_lyndon_words,
    parse_polynomial,
    standard_bracket,
    tensor_bracket_coordinates,
)
from hopfpbw.poly import TensorElement
from hopfpbw.cli import parse_presentation
from hopfpbw import rewrite
from hopfpbw.rewrite import OutOfCertifiedRange, TruncatedGB, _eliminate, _nf_bracket
from hopfpbw.word import words_of_degree

from helpers import (
    brute_first_rewrite,
    brute_irreducible_counts,
    brute_irreducible_lyndon,
    echelon_rank,
    graded_words,
    ideal_dimension_oracle,
    reference_bracket,
    reference_reduce,
    stack_depth,
    unresolved_compositions,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PRESENTATIONS = Path(__file__).resolve().parent.parent / "perfbench" / "presentations"

HEIS = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
AB2 = Alphabet([("x1", 1), ("x2", 1)])


def heis_relations(field=QQ):
    return [parse_polynomial(s, HEIS, field) for s in
            ("x2*x1 - x1*x2 - x3", "x3*x1 - x1*x3", "x3*x2 - x2*x3")]


def heis_gb(bound=6, field=QQ):
    return compute_truncated_gb(HEIS, field, heis_relations(field), bound)


def commutative_gb(bound=6):
    rel = parse_polynomial("x2*x1 - x1*x2", AB2, QQ)
    return compute_truncated_gb(AB2, QQ, [rel], bound)


def test_empty_relations_give_free_algebra():
    gb = compute_truncated_gb(AB2, QQ, [], 4)
    assert gb.elements == []
    assert gb.dimensions() == [1, 2, 4, 8, 16]
    f = parse_polynomial("x2*x1 + 3*x1", AB2, QQ)
    assert gb.normal_form(f) == f


def test_commutative_example():
    gb = commutative_gb()
    assert [g.leading_word() for g in gb.elements] == [AB2.word("x2", "x1")]
    assert gb.normal_form(parse_polynomial("x2*x1", AB2, QQ)) == parse_polynomial(
        "x1*x2", AB2, QQ)
    assert irreducible_lyndon_words(gb, 6) == [AB2.word("x1"), AB2.word("x2")]
    assert gb.dimensions() == [1, 2, 3, 4, 5, 6, 7]


def test_heisenberg_leading_words():
    gb = heis_gb()
    rendered = [HEIS.render_word(g.leading_word()) for g in gb.elements]
    assert rendered == ["x3", "x2 x1 x1", "x2 x2 x1"]


def test_heisenberg_normal_forms():
    gb = heis_gb()
    inside = parse_polynomial("x3 - x2*x1 + x1*x2", HEIS, QQ)
    assert gb.normal_form(inside).is_zero()
    assert gb.normal_form(parse_polynomial("x3", HEIS, QQ)) == parse_polynomial(
        "x2*x1 - x1*x2", HEIS, QQ)
    for g in gb.elements:
        assert gb.normal_form(g).is_zero()


def test_heisenberg_irreducible_lyndon():
    gb = heis_gb()
    assert [HEIS.render_word(u) for u in irreducible_lyndon_words(gb, 6)] == [
        "x1", "x2", "x2 x1"]


def test_ideal_membership_certificate_randomized():
    # random two-sided multiples of the relations reduce to zero
    gb = heis_gb()
    rng = random.Random(9)
    rels = heis_relations()
    letters = list(range(HEIS.size))
    for _ in range(80):
        g = rng.choice(rels)
        left = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        right = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        f = (Polynomial.from_word(HEIS, QQ, left) * g
             * Polynomial.from_word(HEIS, QQ, right))
        if f.degree() <= gb.bound:
            assert gb.normal_form(f).is_zero()


def test_normal_form_is_linear_idempotent_multiplicative():
    gb = heis_gb()
    rng = random.Random(13)
    words = [w for n in range(4) for w in gb.irreducible_words(n)]
    all_words = [w for n in range(4) for w in words_of_degree(HEIS, n)]

    def rand_poly():
        return Polynomial(HEIS, QQ, {rng.choice(all_words): Fraction(rng.randint(-4, 4))
                                     for _ in range(3)})

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        nf_f, nf_g = gb.normal_form(f), gb.normal_form(g)
        assert gb.normal_form(nf_f) == nf_f
        assert gb.normal_form(f + g) == nf_f + nf_g
        assert gb.normal_form(f * g) == gb.normal_form(nf_f * nf_g)
    assert words  # irreducible sets nonempty


def test_dimensions_match_linear_algebra_oracle():
    gb = heis_gb(5)
    for n in range(6):
        assert len(gb.irreducible_words(n)) == ideal_dimension_oracle(HEIS, heis_relations(), n)
    cgb = commutative_gb(6)
    rel = parse_polynomial("x2*x1 - x1*x2", AB2, QQ)
    for n in range(7):
        assert len(cgb.irreducible_words(n)) == ideal_dimension_oracle(AB2, [rel], n)


def test_standard_basis_lemma_rank_per_degree():
    # bracketed irreducible words are linearly independent and span per degree
    gb = heis_gb(5)
    for n in range(6):
        irreducible = gb.irreducible_words(n)
        columns = {w: i for i, w in enumerate(words_of_degree(HEIS, n))}
        rows = []
        for w in irreducible:
            nf = gb.normal_form(standard_bracket(HEIS, w, QQ))
            rows.append({columns[v]: c for v, c in nf.coeffs.items()})
        assert echelon_rank(rows) == len(irreducible)


def test_whole_algebra_rejected():
    one = Polynomial.one(AB2, QQ)
    with pytest.raises(WholeAlgebraIdeal):
        compute_truncated_gb(AB2, QQ, [one.scale(Fraction(2))], 4)


def test_inhomogeneous_rejected():
    bad = parse_polynomial("x2*x1 - x1", AB2, QQ)
    with pytest.raises(ValueError, match="inhomogeneous"):
        compute_truncated_gb(AB2, QQ, [bad], 4)


def test_degree_above_bound_rejected():
    deep = parse_polynomial("x1^5", AB2, QQ)
    with pytest.raises(ValueError, match="above the bound"):
        compute_truncated_gb(AB2, QQ, [deep], 4)
    gb = commutative_gb(3)
    with pytest.raises(OutOfCertifiedRange):
        gb.normal_form(parse_polynomial("x1^4", AB2, QQ))


def test_heights_char3_cube():
    single = Alphabet([("x", 1)])
    F3 = PrimeField(3)
    rel = parse_polynomial("x^3", single, F3)
    gb = compute_truncated_gb(single, F3, [rel], 9)
    assert gb.height(single.word("x")) == 3
    assert gb.dimensions() == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]


def test_heights_not_observed_char0():
    gb = heis_gb(8)
    for u in irreducible_lyndon_words(gb, 8):
        assert gb.height(u) is None


def test_height_requires_lyndon():
    gb = commutative_gb()
    with pytest.raises(ValueError):
        gb.height(AB2.word("x1", "x2"))
    # reducible Lyndon words have height 1
    assert gb.height(AB2.word("x2", "x1")) == 1


def test_admissible_words_examples():
    gb = heis_gb()
    rendered = [HEIS.render_word(w) for w in admissible_words(gb, 2, "B")]
    assert rendered == ["x1 x1", "x1 x2", "x2 x1", "x2 x2"]
    free = compute_truncated_gb(AB2, QQ, [], 3)
    assert admissible_words(free, 1, "B") == [(0,), (1,)]
    single = Alphabet([("x", 1)])
    F3 = PrimeField(3)
    gb3 = compute_truncated_gb(single, F3, [parse_polynomial("x^3", single, F3)], 9)
    assert admissible_words(gb3, 4, "C") == []
    assert admissible_words(gb3, 2, "C") == [(0, 0)]
    assert admissible_words(gb3, 0, "C") == [()]


def test_b_words_contain_all_irreducible_words():
    gb = heis_gb(5)
    for n in range(6):
        b = set(admissible_words(gb, n, "B"))
        c = set(admissible_words(gb, n, "C"))
        assert set(gb.irreducible_words(n)) <= b
        assert c <= b


def test_bracket_coordinates_examples():
    free = free_gb(AB2, QQ, 4)
    coords = bracket_coordinates(parse_polynomial("x2*x1", AB2, QQ), free)
    assert coords == {AB2.word("x2", "x1"): Fraction(1), AB2.word("x1", "x2"): Fraction(1)}
    gb = heis_gb()
    for w in gb.irreducible_words(3):
        unit = bracket_coordinates(standard_bracket(HEIS, w, QQ), gb)
        assert unit == {w: Fraction(1)}
    coords3 = bracket_coordinates(parse_polynomial("x3", HEIS, QQ), gb)
    assert coords3 == {HEIS.word("x2", "x1"): Fraction(1)}


def test_bracket_coordinates_reconstruct():
    gb = heis_gb()
    rng = random.Random(29)
    pool = [w for n in range(5) for w in words_of_degree(HEIS, n)]
    for _ in range(20):
        f = Polynomial(HEIS, QQ, {rng.choice(pool): Fraction(rng.randint(-3, 3))
                                  for _ in range(4)})
        coords = bracket_coordinates(f, gb)
        rebuilt = Polynomial.zero(HEIS, QQ)
        for w, c in coords.items():
            rebuilt = rebuilt + gb.normal_form(standard_bracket(HEIS, w, QQ)).scale(c)
        assert rebuilt == gb.normal_form(f)
        assert all(not gb.is_reducible_word(w) for w in coords)


def test_tensor_bracket_coordinates_roundtrip():
    gb = heis_gb()
    x1 = Polynomial.from_word(HEIS, QQ, HEIS.word("x1"))
    x3 = Polynomial.from_word(HEIS, QQ, HEIS.word("x3"))
    t = TensorElement.of(x3, x1) + TensorElement.of(x1, x1).scale(Fraction(2))
    coords = tensor_bracket_coordinates(t, gb)
    w21 = HEIS.word("x2", "x1")
    w1 = HEIS.word("x1")
    assert coords == {(w21, w1): Fraction(1), (w1, w1): Fraction(2)}


def test_determinism_bit_identical():
    a = heis_gb()
    b = heis_gb()
    assert [repr(g) for g in a.elements] == [repr(g) for g in b.elements]
    assert collect_irreducible_data(a) == collect_irreducible_data(b)
    assert admissible_words(a, 4, "B") == admissible_words(b, 4, "B")


def test_overlap_completion_adds_elements():
    # x^2 = xy forces a cascade: with lw(yx), completion reveals new relations
    rel = parse_polynomial("x2*x1 - x1*x1", AB2, QQ)
    gb = compute_truncated_gb(AB2, QQ, [rel], 6)
    # every S-polynomial of degree <= 6 reduces to zero afterwards
    for g in gb.elements:
        assert gb.normal_form(g).is_zero()
    for n in range(7):
        assert len(gb.irreducible_words(n)) == ideal_dimension_oracle(AB2, [rel], n)


def test_enumerate_lyndon_and_reducibility_free():
    free = compute_truncated_gb(AB2, QQ, [], 5)
    assert irreducible_lyndon_words(free, 5) == enumerate_lyndon(AB2, 5)


def test_interreduction_cascade():
    # the degree-3 relation holds the leading word of the degree-2 one, so
    # completed degree by degree it reduces to zero and is never inserted
    r1 = parse_polynomial("x2*x1^2 - x1^2*x2", AB2, QQ)
    r2 = parse_polynomial("x2*x1 - x1*x2", AB2, QQ)
    gb = compute_truncated_gb(AB2, QQ, [r1, r2], 6)
    assert [g.leading_word() for g in gb.elements] == [AB2.word("x2", "x1")]
    assert gb.normal_form(r1).is_zero()
    # same reduced system regardless of processing order
    gb_rev = compute_truncated_gb(AB2, QQ, [r2, r1], 6)
    assert [repr(g) for g in gb.elements] == [repr(g) for g in gb_rev.elements]


def test_irreducible_words_above_bound_rejected():
    gb = commutative_gb(4)
    with pytest.raises(OutOfCertifiedRange):
        gb.irreducible_words(5)
    with pytest.raises(OutOfCertifiedRange):
        admissible_words(gb, 5, "B")


def test_random_ideals_match_dimension_oracle():
    # randomized presentations, dimensions against dense linear algebra
    rng = random.Random(2024)
    trials = 0
    while trials < 12:
        degs = [rng.choice([2, 2, 3, 3, 4]) for _ in range(rng.randint(1, 3))]
        rels = []
        for d in degs:
            pool = words_of_degree(AB2, d)
            coeffs = {w: Fraction(rng.randint(-2, 2)) for w in pool
                      if rng.random() < 0.6}
            coeffs = {w: c for w, c in coeffs.items() if c}
            if coeffs:
                rels.append(Polynomial(AB2, QQ, coeffs))
        if not rels:
            continue
        trials += 1
        gb = compute_truncated_gb(AB2, QQ, rels, 5)
        for n in range(6):
            assert len(gb.irreducible_words(n)) == ideal_dimension_oracle(AB2, rels, n)


def test_leading_words_form_an_antichain():
    # interreduction: no leading word occurs as a factor of another, and no
    # support word of any element is reducible by a different element
    sklyanin = [compute_truncated_gb(SKLYANIN, field, sklyanin_relations(*draw, field), 9)
                for field in (QQ, PrimeField(32003)) for draw in SKLYANIN_DRAWS]
    for gb in (heis_gb(), commutative_gb(),
               compute_truncated_gb(
                   AB2, QQ, [parse_polynomial("x2*x1 - x1*x1", AB2, QQ)], 6), *sklyanin):
        lws = gb.leading_words()
        for i, a in enumerate(lws):
            for j, b in enumerate(lws):
                if i == j:
                    continue
                assert not any(b == a[k:k + len(b)]
                               for k in range(len(a) - len(b) + 1))
        for g in gb.elements:
            for w in list(g.coeffs)[1:]:
                assert not gb.is_reducible_word(w)


def _fixture_gb(name, bound):
    alphabet, field, relations, _images, _digest, _bound = parse_presentation(
        str(FIXTURES / name))
    return compute_truncated_gb(alphabet, field, relations, bound)


def test_irreducible_lyndon_words_match_brute_force():
    serre = Alphabet([("e1", 1), ("e2", 1)])
    serre_rels = [parse_polynomial(s, serre, QQ) for s in (
        "e1^2*e2 - 2*e1*e2*e1 + e2*e1^2", "e2^2*e1 - 2*e2*e1*e2 + e1*e2^2")]
    systems = [_fixture_gb("heisenberg.json", 9), _fixture_gb("char3_cube.json", 9),
               _fixture_gb("char5_fifth.json", 10),
               compute_truncated_gb(serre, QQ, serre_rels, 10)]
    for gb in systems:
        degrees = gb.alphabet.degrees
        expected = brute_irreducible_lyndon(degrees, gb.leading_words(), gb.bound)
        assert irreducible_lyndon_words(gb, gb.bound) == expected
        # searched to degree d
        for d in range(1, gb.bound):
            assert irreducible_lyndon_words(gb, d) == [
                w for w in expected if sum(degrees[i] for i in w) <= d]


def test_stored_lyndon_words_follow_basis_changes():
    gb = TruncatedGB(AB2, QQ, 4)
    assert irreducible_lyndon_words(gb, 4) == enumerate_lyndon(AB2, 4)
    gb._insert(parse_polynomial("x2*x1 - x1*x2", AB2, QQ))
    assert irreducible_lyndon_words(gb, 4) == [AB2.word("x1"), AB2.word("x2")]
    gb._remove(0)
    assert irreducible_lyndon_words(gb, 4) == enumerate_lyndon(AB2, 4)


MIXED = Alphabet([("x1", 1), ("x2", 1), ("x3", 2), ("x4", 3)])


@pytest.mark.parametrize("relations", [
    [], ["x2*x1 - x1*x2 - x3", "x4*x1 - x1*x4", "x3*x3 - x1*x4"]], ids=["free", "avoid"])
def test_word_searches_come_out_in_order(relations):
    # The searches emit their words in order, unsorted: words_of_degree in
    # lex order, the B and C families in graded lex order.
    gb = compute_truncated_gb(MIXED, QQ, [parse_polynomial(r, MIXED, QQ) for r in relations], 7)
    leading = gb.leading_words()
    irreducible = [w for w in graded_words(MIXED.degrees, 7)
                   if not any(w[i:i + len(lw)] == lw
                              for lw in leading for i in range(len(w) - len(lw) + 1))]
    avoid = gb._tables()[:2] if relations else None
    for n in range(8):
        expected = sorted((w for w in irreducible if MIXED.degree(w) == n), key=MIXED.lex_key)
        assert words_of_degree(MIXED, n, avoid) == expected
        assert gb.irreducible_words(n) == expected
        for kind in ("B", "C"):
            words = admissible_words(gb, n, kind)
            assert words == sorted(words, key=MIXED.glex_key)


def test_enumerators_leave_no_garbage():
    gb = heis_gb(8)
    calls = [
        lambda: words_of_degree(AB2, 8),
        lambda: enumerate_lyndon(AB2, 8),
        lambda: irreducible_lyndon_words(gb, 8),
        lambda: gb.irreducible_words(8),
        lambda: admissible_words(gb, 8, "B"),
        lambda: admissible_words(gb, 8, "C"),
    ]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls:
            assert call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- the rewriting engine against an independent reference ----------------------


SERRE_A2 = Alphabet([("e1", 1), ("e2", 1)])
SERRE_A2_RELATIONS = ("e1^2*e2 - 2*e1*e2*e1 + e2*e1^2", "e2^2*e1 - 2*e2*e1*e2 + e1*e2^2")

CORPUS = sorted(path.name for path in FIXTURES.glob("*.json"))


def _reference(gb, f):
    return reference_reduce(gb.alphabet.degrees, [g.coeffs for g in gb.elements], f.coeffs,
                            gb.field.char or None)


@pytest.fixture
def checked_reduce(monkeypatch):
    """Compare every ``_reduce`` call with the reference, against the system
    of that moment; returns the list of inputs checked."""
    original = TruncatedGB._reduce
    seen = []

    def checked(gb, f):
        got = original(gb, f)
        assert list(got.coeffs.items()) == list(_reference(gb, f).items())
        seen.append(f)
        return got

    monkeypatch.setattr(TruncatedGB, "_reduce", checked)
    return seen


@pytest.mark.parametrize("name", CORPUS)
def test_reduce_matches_reference_on_corpus(name, checked_reduce):
    alphabet, field, relations, _images, _digest, bound = parse_presentation(str(FIXTURES / name))
    gb = compute_truncated_gb(alphabet, field, relations, min(bound, 6))
    assert len(checked_reduce) >= len(relations)
    # the relations and their one-letter multiples, against the final system
    letters = [Polynomial.from_word(alphabet, field, (x,)) for x in range(alphabet.size)]
    for rel in relations:
        for f in [rel] + [x * rel + rel * x for x in letters]:
            if f.degree() <= gb.bound:
                assert gb._reduce(f).is_zero()


def _assert_nf_brackets_match_reference(gb):
    """``_nf_bracket`` of every word, Lyndon or not, up to the bound is the
    reference normal form of the bracket built from its definition."""
    p = gb.field.char or None
    elements = [g.coeffs for g in gb.elements]
    for w in graded_words(gb.alphabet.degrees, gb.bound):
        expected = reference_reduce(gb.alphabet.degrees, elements, reference_bracket(w, p), p)
        assert list(_nf_bracket(gb, w).coeffs.items()) == list(expected.items()), w


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@pytest.mark.parametrize("path", [FIXTURES / name for name in CORPUS]
                         + [PRESENTATIONS / "serre_a2.json", PRESENTATIONS / "serre_b2.json"],
                         ids=lambda path: path.name)
def test_nf_bracket_matches_reference(path, field):
    alphabet, field, relations, _images, _digest, bound = parse_presentation(str(path), field)
    _assert_nf_brackets_match_reference(
        compute_truncated_gb(alphabet, field, relations, min(bound, 7)))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_nf_bracket_reduces_letters(field):
    # x2 - x1 makes the letter x2 reducible, so NF([x2]) = x1.
    relations = [parse_polynomial(src, HEIS, field)
                 for src in ("x2 - x1", "x3*x1 - x1*x3 - x1^3")]
    gb = compute_truncated_gb(HEIS, field, relations, 6)
    assert _nf_bracket(gb, HEIS.word("x2")) == Polynomial.generator(HEIS, field, "x1")
    _assert_nf_brackets_match_reference(gb)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@pytest.mark.parametrize("system", [("x2*x1 - x1^2", "x2^2"), ("x2^2 - x1^2",)])
def test_reduce_keeps_the_rewrite_choice_on_incomplete_systems(field, system):
    # On a system that is not complete the result depends on the choice: in
    # the first, x2^2*x1 gives x1^3 by x2*x1 (the smaller leading word) but 0
    # by x2^2; in the second, x2^3 gives x1^2*x2 at the first occurrence of
    # x2^2 but x2*x1^2 at the second.
    gb = TruncatedGB(AB2, field, 5)
    for src in system:
        gb._insert(parse_polynomial(src, AB2, field))
    words = [w for n in range(6) for w in words_of_degree(AB2, n)]
    rng = random.Random(5)
    inputs = [{w: 1} for w in words]
    inputs += [{rng.choice(words): rng.randint(1, 4) for _ in range(3)} for _ in range(100)]
    for coeffs in inputs:
        f = Polynomial(AB2, field, {w: field.of_int(c) for w, c in coeffs.items()})
        assert list(gb._reduce(f).coeffs.items()) == list(_reference(gb, f).items())


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@pytest.mark.parametrize("alphabet, system, word, nf", [
    # by x2*x1 (degree 2) x1^4, by x2^3 (degree 3) 0
    (AB2, ("x2^3", "x2*x1 - x1^2"), "x2^3*x1", "x1^4"),
    # by x2^2 0, by x1*x2^2 (degree 3, but a smaller tuple) x1^3
    (AB2, ("x1*x2^2 - x1^3", "x2^2"), "x1*x2^2", "0"),
    # both of degree 2: by x2^2 (length 2, the smaller tuple) x1*x2*x1*x2,
    # by x3 (length 1) x1^3*x2
    (HEIS, ("x3 - x1*x2", "x2^2 - x1*x2"), "x3*x2^2", "x1*x2*x1*x2"),
], ids=["lower-degree", "tuple-across-degrees", "tuple-across-lengths"])
def test_reduce_takes_the_glex_smallest_leading_word(field, alphabet, system, word, nf):
    gb = TruncatedGB(alphabet, field, 6)
    for src in system:
        gb._insert(parse_polynomial(src, alphabet, field))
    assert gb._reduce(parse_polynomial(word, alphabet, field)) == parse_polynomial(
        nf, alphabet, field)
    rng = random.Random(7)
    words = [w for n in range(7) for w in words_of_degree(alphabet, n)]
    for _ in range(100):
        f = Polynomial(alphabet, field, {rng.choice(words): field.of_int(rng.randint(1, 4))
                                         for _ in range(3)})
        assert list(gb._reduce(f).coeffs.items()) == list(_reference(gb, f).items())


def test_reduce_matches_reference_during_serre_completion(checked_reduce):
    for field in (QQ, PrimeField(7)):
        rels = [parse_polynomial(s, SERRE_A2, field) for s in SERRE_A2_RELATIONS]
        gb = compute_truncated_gb(SERRE_A2, field, rels, 7)
        for n in range(5):
            for w in words_of_degree(SERRE_A2, n):
                gb.nf_word(w)
    assert len(checked_reduce) > 50


def _assert_scalars_normal(field, coeffs):
    """Over Q an ``int`` when integral and otherwise a ``Fraction`` with
    denominator > 1; over F_p a residue ``0..p-1``.  ``==`` cannot see this,
    since ``Fraction(3) == 3``."""
    for c in coeffs.values():
        if field.char:
            assert type(c) is int and 0 <= c < field.char, c
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


_HEIS_WORDS = [w for n in range(6) for w in words_of_degree(HEIS, n)]


@st.composite
def _monic_systems(draw, field):
    """A few monic elements with distinct leading words of degree 1..3 and
    tails on glex-smaller words, their scalars fractions with denominators
    up to 6 over Q or residues over F_7."""
    scalars = (st.fractions(-4, 4, max_denominator=6) if field.char == 0
               else st.integers(1, field.char - 1))
    leading = draw(st.lists(st.sampled_from([w for w in _HEIS_WORDS
                                             if 1 <= HEIS.degree(w) <= 3]),
                            min_size=1, max_size=4, unique=True))
    system = []
    for lw in leading:
        smaller = [w for w in _HEIS_WORDS if HEIS.glex_key(w) < HEIS.glex_key(lw)]
        tail = draw(st.dictionaries(st.sampled_from(smaller), scalars, max_size=4))
        coeffs = {w: field.of_fraction(c) for w, c in tail.items()}
        coeffs[lw] = field.one
        system.append(Polynomial(HEIS, field, coeffs))
    return system


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_of_monic_systems_matches_reference(field, data):
    # Fractional pivots make the integer form rescale (L > 1); the inputs
    # carry raw Fractions, integral ones included.
    system = data.draw(_monic_systems(field))
    gb = TruncatedGB(HEIS, field, 5)
    for g in system:
        gb._insert(g)
    scalars = (st.fractions(-4, 4, max_denominator=6) if field.char == 0
               else st.integers(0, field.char - 1))
    for _ in range(3):
        f = Polynomial(HEIS, field, data.draw(st.dictionaries(st.sampled_from(_HEIS_WORDS),
                                                              scalars, max_size=5)))
        got = gb._reduce(f).coeffs
        expected = reference_reduce(HEIS.degrees, [g.coeffs for g in system], f.coeffs,
                                    field.char or None)
        assert list(got.items()) == list(expected.items())
        _assert_scalars_normal(field, got)


class _TrackedSystem:
    """A ``TruncatedGB`` on HEIS beside its own plain copy of the system, so
    each ``_reduce`` is compared with the reference on the system as it
    stands at that moment."""

    def __init__(self, field):
        self.field = field
        self.gb = TruncatedGB(HEIS, field, 8)
        self.system = {}   # leading word -> coefficients

    def insert(self, g):
        assert g.leading_coefficient() == self.field.one
        self.gb._insert(g)
        self.system[g.leading_word()] = g.coeffs

    def remove(self, lw):
        idx = self.gb.leading_words().index(lw)
        assert self.gb._remove(idx).leading_word() == lw
        del self.system[lw]

    def check(self, f):
        got = self.gb._reduce(f).coeffs
        expected = reference_reduce(HEIS.degrees, list(self.system.values()), f.coeffs,
                                    self.field.char or None)
        assert list(got.items()) == list(expected.items())
        return got


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_reduce_follows_scripted_basis_changes(field):
    # The rewrite memo and the automaton outlive basis changes of their own
    # degree or higher; each step below breaks one of them if it outlives
    # a change it should not.
    tracked = _TrackedSystem(field)

    def poly(src):
        return parse_polynomial(src, HEIS, field)

    tracked.insert(poly("x2*x1*x2 - x1^3"))
    w4 = poly("x2*x2*x1*x2 + 2*x2*x1*x2*x1 + x3*x2*x1")
    assert tracked.check(w4) != w4.coeffs   # memo and automaton now at degree 4
    # a lower-degree insert after higher-degree reductions
    tracked.insert(poly("x2*x1 - x1*x2"))
    tracked.check(w4)
    # the same leading word removed, then inserted again with another tail
    tracked.remove(HEIS.word("x2", "x1"))
    tracked.check(w4)
    tracked.insert(poly("x2*x1 - x1^2"))
    tracked.check(w4)
    # an inhomogeneous tail
    tracked.insert(poly("x3*x1 - x1*x3 - x1 - 1"))
    tracked.check(poly("x3*x1*x2 + x2*x3*x1 + x3*x1"))
    # words longer than a just-inserted leading word of the memo's degree
    tracked.insert(poly("x2*x2*x2 - x1*x2*x2"))
    tracked.check(poly("x2*x2*x2*x2 + x1*x2*x2*x2*x2 + x3*x2*x2*x2"))


def test_reduce_on_an_alphabet_past_one_byte_per_letter():
    # a letter index above 255 has no byte, so the memo keys such words by tuple
    big = Alphabet([(f"g{i}", 1) for i in range(300)])
    gb = TruncatedGB(big, QQ, 4)
    gb._insert(parse_polynomial("g299*g0 - g0*g299", big, QQ))
    f = parse_polynomial("g299*g0*g299*g0 + g299*g299*g0", big, QQ)
    expected = reference_reduce(big.degrees, [g.coeffs for g in gb.elements], f.coeffs)
    for _ in range(2):   # the second pass reads the memo
        assert list(gb._reduce(f).coeffs.items()) == list(expected.items())


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_follows_interleaved_basis_changes(field, data):
    # Inserts, removals and re-inserts of any degree between reductions, and
    # inputs reduced again after a change.  A tail stays in its leading
    # word's degree or reaches lower ones; an input is a word built around
    # the leading words present, with another word of its degree.
    tracked = _TrackedSystem(field)
    scalars = (st.fractions(-4, 4, max_denominator=6) if field.char == 0
               else st.integers(1, field.char - 1))
    candidates = [w for w in _HEIS_WORDS if 1 <= HEIS.degree(w) <= 4]

    def element(lw):
        lower = data.draw(st.booleans())
        smaller = [w for w in _HEIS_WORDS if HEIS.glex_key(w) < HEIS.glex_key(lw)
                   and (lower or HEIS.degree(w) == HEIS.degree(lw))]
        tail = data.draw(st.dictionaries(st.sampled_from(smaller), scalars, max_size=3)
                         if smaller else st.just({}))
        return Polynomial(HEIS, field, {**{w: field.of_fraction(c) for w, c in tail.items()},
                                        lw: field.one})

    def scaled(words):
        return Polynomial(HEIS, field, {w: field.of_fraction(data.draw(scalars)) for w in words})

    inputs = []
    for _ in range(data.draw(st.integers(4, 14))):
        present = list(tracked.system)
        op = data.draw(st.sampled_from(["insert", "remove", "reinsert", "reduce", "again"]))
        if op == "insert" or not present:
            free = [w for w in candidates if w not in tracked.system]
            tracked.insert(element(data.draw(st.sampled_from(free))))
        elif op in ("remove", "reinsert"):
            lw = data.draw(st.sampled_from(present))
            tracked.remove(lw)
            if op == "reinsert":
                tracked.insert(element(lw))
        elif op == "again" and inputs:
            tracked.check(inputs[-1])
        else:
            pieces = st.one_of(st.sampled_from(present), st.sampled_from([(0,), (1,), (2,)]))
            w = data.draw(st.lists(pieces, min_size=1, max_size=3).map(
                lambda ws: sum(ws, ())[:5]))
            same = [u for u in _HEIS_WORDS if HEIS.degree(u) == HEIS.degree(w)] or [w]
            inputs.append(scaled({w, data.draw(st.sampled_from(same))}))
            tracked.check(inputs[-1])


@pytest.mark.parametrize("alphabet", [AB2, HEIS, Alphabet([("a", 2), ("b", 1), ("c", 3)])],
                         ids=["ab2", "heis", "weighted"])
def test_elimination_pops_words_in_descending_glex_order(alphabet):
    words = [w for n in range(7) for w in words_of_degree(alphabet, n)]
    random.Random(3).shuffle(words)
    popped = []

    def keep(w):
        popped.append(w)
        return None

    kept, pivots = _eliminate(alphabet, QQ, {w: 1 for w in words}, keep)
    expected = sorted(words, key=alphabet.glex_key, reverse=True)
    assert popped == expected
    assert list(kept) == expected and not pivots


def test_word_normal_forms_follow_basis_changes():
    gb = TruncatedGB(AB2, QQ, 4)
    w = AB2.word("x2", "x1")
    word = Polynomial.from_word(AB2, QQ, w)
    assert gb.nf_word(w) == word
    gb._insert(parse_polynomial("x2*x1 - x1*x2", AB2, QQ))
    assert gb.nf_word(w) == parse_polynomial("x1*x2", AB2, QQ)
    gb._remove(0)
    assert gb.nf_word(w) == word


def test_word_normal_forms_agree_with_normal_form():
    gb = heis_gb(6)
    for n in range(5):
        for w in words_of_degree(HEIS, n):
            assert gb.nf_word(w) == gb.normal_form(Polynomial.from_word(HEIS, QQ, w))


def _serre_gb(bound=8):
    rels = [parse_polynomial(s, SERRE_A2, QQ) for s in SERRE_A2_RELATIONS]
    return compute_truncated_gb(SERRE_A2, QQ, rels, bound)


@pytest.mark.parametrize("system", ["heisenberg", "char3_cube", "serre_a2"])
def test_dimensions_match_brute_force_count(system):
    gb = _serre_gb(9) if system == "serre_a2" else _fixture_gb(f"{system}.json", 9)
    expected = brute_irreducible_counts(gb.alphabet.degrees, gb.leading_words(), gb.bound)
    assert gb.dimensions() == expected
    assert expected == [len(gb.irreducible_words(n)) for n in range(gb.bound + 1)]
    for top in range(1, gb.bound + 1):
        assert collect_irreducible_data(gb, top).dimensions == expected[:top + 1]
    with pytest.raises(OutOfCertifiedRange):
        collect_irreducible_data(gb, gb.bound + 1)


def test_counting_walk_and_reduction_leave_no_garbage():
    gb = _serre_gb(8)
    f = Polynomial.from_word(SERRE_A2, QQ, SERRE_A2.word("e2", "e2", "e2", "e1", "e1", "e1"))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in (gb.dimensions, lambda: gb.normal_form(f), lambda: bracket_coordinates(f, gb)):
            assert call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- normal-form laws, property-based -------------------------------------------


HEIS_GB = {QQ: heis_gb(6), PrimeField(5): heis_gb(6, PrimeField(5))}
HEIS_WORDS = [w for n in range(4) for w in words_of_degree(HEIS, n)]


def _polynomials(field):
    if field.char == 0:
        scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        scalars = st.integers(min_value=0, max_value=field.char - 1)
    return st.dictionaries(st.sampled_from(HEIS_WORDS), scalars, max_size=4).map(
        lambda d: Polynomial(HEIS, field, {w: field.of_fraction(c) for w, c in d.items()}))


@pytest.mark.parametrize("field", list(HEIS_GB), ids=repr)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_laws(field, data):
    gb = HEIS_GB[field]
    f = data.draw(_polynomials(field))
    g = data.draw(_polynomials(field))
    a = field.of_fraction(data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4)
                                   if field.char == 0 else st.integers(0, field.char - 1)))
    nf_f, nf_g = gb.normal_form(f), gb.normal_form(g)
    assert gb.normal_form(nf_f) == nf_f                                   # idempotent
    assert all(not gb.is_reducible_word(w) for w in nf_f.coeffs)
    assert gb.normal_form(f + g.scale(a)) == nf_f + nf_g.scale(a)         # linear
    assert gb.normal_form(f * g) == gb.normal_form(nf_f * nf_g)           # multiplicative


# -- completion: every composition resolves, the interior criterion saves work ---


SKLYANIN = Alphabet([("x", 1), ("y", 1), ("z", 1)])


def sklyanin_relations(a, b, c, field):
    """a*y*z + b*z*y + c*x^2 and its two cyclic shifts."""
    x, y, z = range(3)
    return [Polynomial(SKLYANIN, field, {(p, q): field.of_int(a), (q, p): field.of_int(b),
                                         (r, r): field.of_int(c)})
            for p, q, r in ((y, z, x), (z, x, y), (x, y, z))]


def _assert_complete(gb):
    assert unresolved_compositions(gb.alphabet.degrees, [g.coeffs for g in gb.elements],
                                   gb.bound, gb.field.char or None) == []


@pytest.mark.parametrize("path", [FIXTURES / name for name in CORPUS]
                         + [PRESENTATIONS / "serre_a2.json", PRESENTATIONS / "serre_b2.json"],
                         ids=lambda path: path.name)
def test_completed_basis_resolves_every_composition(path):
    alphabet, field, relations, _images, _digest, bound = parse_presentation(str(path))
    _assert_complete(compute_truncated_gb(alphabet, field, relations, min(bound or 7, 7)))


SKLYANIN_DRAWS = ((7, -3, -8), (2, -4, 3), (-5, 1, 9))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_completed_sklyanin_basis_resolves_every_composition(field):
    for draw in SKLYANIN_DRAWS:
        _assert_complete(compute_truncated_gb(SKLYANIN, field, sklyanin_relations(*draw, field), 7))


@pytest.mark.parametrize("relations, expected", [
    ([parse_polynomial(s, AB2, QQ) for s in ("x2*x1^2 - x1^2*x2", "x2*x1 - x1*x2")],
     [("+", 2)]),
    (sklyanin_relations(*SKLYANIN_DRAWS[0], QQ), None),
], ids=["cascade", "sklyanin"])
def test_completion_never_returns_to_a_lower_degree(monkeypatch, relations, expected):
    # every element is homogeneous, so once degree n is reached no element
    # of a lower degree is inserted or removed again
    events = []
    insert, remove = TruncatedGB._insert, TruncatedGB._remove

    def recorded_insert(gb, g):
        events.append(("+", g.degree()))
        insert(gb, g)

    def recorded_remove(gb, idx):
        g = remove(gb, idx)
        events.append(("-", g.degree()))
        return g

    monkeypatch.setattr(TruncatedGB, "_insert", recorded_insert)
    monkeypatch.setattr(TruncatedGB, "_remove", recorded_remove)
    compute_truncated_gb(relations[0].alphabet, QQ, relations, 7)
    degrees = [d for _, d in events]
    assert degrees and degrees == sorted(degrees)
    assert expected is None or events == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_reduce_matches_reference_during_sklyanin_completion(field, checked_reduce):
    # Over Q the Sklyanin bases carry denominators, which the fixture
    # corpus rarely reaches.
    for draw in SKLYANIN_DRAWS:
        compute_truncated_gb(SKLYANIN, field, sklyanin_relations(*draw, field), 7)
    assert len(checked_reduce) > 100


def test_bracket_coordinates_with_fractional_brackets():
    # NF(f) = sum c_w NF([w]), both sides from the reference oracles.
    gb = compute_truncated_gb(SKLYANIN, QQ, sklyanin_relations(7, -3, -8, QQ), 6)
    elements = [g.coeffs for g in gb.elements]

    def reference_nf(coeffs):
        return reference_reduce(SKLYANIN.degrees, elements, coeffs)

    brackets = {}
    rng = random.Random(41)
    pool = [w for n in range(7) for w in words_of_degree(SKLYANIN, n)]
    for _ in range(15):
        n = rng.randint(3, 6)
        words = [w for w in pool if len(w) == n]
        f = Polynomial(SKLYANIN, QQ, {rng.choice(words): Fraction(rng.randint(-6, 6),
                                                                   rng.randint(1, 4))
                                      for _ in range(4)})
        coords = bracket_coordinates(f, gb)
        _assert_scalars_normal(QQ, coords)
        rebuilt = {}
        for w, c in coords.items():
            if w not in brackets:
                brackets[w] = reference_nf(reference_bracket(w))
            for u, a in brackets[w].items():
                rebuilt[u] = rebuilt.get(u, 0) + c * a
        assert {u: a for u, a in rebuilt.items() if a} == reference_nf(f.coeffs)
    assert any(a.denominator > 1 for nf in brackets.values() for a in nf.values())


TENSOR_GBS = {
    (system, field): (heis_gb(6, field) if system == "heisenberg" else
                      compute_truncated_gb(SKLYANIN, field,
                                           sklyanin_relations(*SKLYANIN_DRAWS[0], field), 6))
    for system in ("heisenberg", "sklyanin") for field in (QQ, PrimeField(7))
}


@st.composite
def _tensors(draw, alphabet, field):
    """A tensor with up to five terms of total degree <= 6."""
    scalars = (st.fractions(-4, 4, max_denominator=6) if field.char == 0
               else st.integers(1, field.char - 1))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        left = draw(st.integers(0, 6))
        right = draw(st.integers(0, 6 - left))
        key = (draw(st.sampled_from(words_of_degree(alphabet, left))),
               draw(st.sampled_from(words_of_degree(alphabet, right))))
        coeffs[key] = field.of_fraction(draw(scalars))
    return TensorElement(alphabet, field, coeffs)


@pytest.mark.parametrize("system, field", list(TENSOR_GBS), ids=repr)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_bracket_coordinates_match_reference(system, field, data):
    # (NF (x) NF)(t) = sum c NF([w]) (x) NF([w']), both sides from the
    # reference oracles, on irreducible coordinate words in canonical order.
    gb = TENSOR_GBS[system, field]
    alphabet, p = gb.alphabet, field.char or None
    elements = [g.coeffs for g in gb.elements]

    def nf(coeffs):
        return reference_reduce(alphabet.degrees, elements, coeffs, p)

    def scalar(c):
        return c % p if p else c

    t = data.draw(_tensors(alphabet, field))
    coords = tensor_bracket_coordinates(t, gb)
    assert all(not gb.is_reducible_word(w) for pair in coords for w in pair)
    assert list(coords) == sorted(coords, reverse=True, key=lambda pair: (
        alphabet.glex_key(pair[0]), alphabet.glex_key(pair[1])))
    _assert_scalars_normal(field, coords)
    rebuilt, expected = {}, {}
    for (w, w2), c in coords.items():
        for u, a in nf(reference_bracket(w, p)).items():
            for v, b in nf(reference_bracket(w2, p)).items():
                rebuilt[u, v] = scalar(rebuilt.get((u, v), 0) + c * a * b)
    for (a, b), c in t.coeffs.items():
        for u, x in nf({a: 1}).items():
            for v, y in nf({b: 1}).items():
                expected[u, v] = scalar(expected.get((u, v), 0) + c * x * y)
    assert {k: c for k, c in rebuilt.items() if c} == {k: c for k, c in expected.items() if c}


SKLYANIN_LEADING_WORDS = (
    "zx zy zz yyx yyz yxyy yyyy yxyxx yxyxy yxyxz yxxyxx yxxyxz yxxyyy yxxxyxy yxxxyyy "
    "yxxyxyx yxxyxyz yxxxxyyy yxxxyxxx yxxxyxxy yxxxyxxz yxxxxxyyy yxxxxyxxx yxxxxyxxz "
    "yxxxxyxyx yxxxxyxyz").split()


def test_interior_criterion_skips_reductions(monkeypatch):
    # Overlaps with a leading word strictly inside are resolved by
    # compositions of lower degree; without the criterion this takes 134.
    original = TruncatedGB._reduce
    calls = []

    def counted(gb, f):
        calls.append(f)
        return original(gb, f)

    monkeypatch.setattr(TruncatedGB, "_reduce", counted)
    gb = compute_truncated_gb(SKLYANIN, QQ, sklyanin_relations(7, -3, -8, QQ), 9)
    assert len(calls) == 97
    assert gb.leading_words() == [SKLYANIN.word(*w) for w in SKLYANIN_LEADING_WORDS]
    assert gb.dimensions() == [(n + 1) * (n + 2) // 2 for n in range(10)]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_completion_builds_the_automaton_once_per_degree(monkeypatch, field):
    # Degree n's inputs hold words of degree n; its overlap interiors, asked
    # before them, are of degree n - 2 (Sklyanin letters are of degree 1).
    builds, finds, products, completing, calls = [], [], [], [0], [0]
    build, find, multiply = rewrite._leading_word_automaton, TruncatedGB._factor_rewrite, \
        Polynomial.__mul__
    reduce, reducible = TruncatedGB._reduce, TruncatedGB.is_reducible_word

    def counted_build(*args):
        builds.append(completing[0])
        return build(*args)

    def counted_find(gb, w):
        finds.append((calls[0], w))
        return find(gb, w)

    def counted_product(f, g):
        products.append(f)
        return multiply(f, g)

    def reduce_input(gb, f):
        completing[0] = f.degree()
        calls[0] += 1
        return reduce(gb, f)

    def interior(gb, w):
        completing[0] = len(w) + 2
        calls[0] += 1
        return reducible(gb, w)

    monkeypatch.setattr(rewrite, "_leading_word_automaton", counted_build)
    monkeypatch.setattr(TruncatedGB, "_factor_rewrite", counted_find)
    monkeypatch.setattr(Polynomial, "__mul__", counted_product)
    monkeypatch.setattr(TruncatedGB, "_reduce", reduce_input)
    monkeypatch.setattr(TruncatedGB, "is_reducible_word", interior)
    gb = compute_truncated_gb(SKLYANIN, field, sklyanin_relations(7, -3, -8, field), 9)
    assert len(gb.elements) == len(SKLYANIN_LEADING_WORDS)
    assert len(builds) == len(set(builds)) <= gb.bound   # 34 when each insert dropped it
    assert max(Counter(finds).values()) == 1             # a word once per input or interior
    assert products == []


# -- dimensions against dense linear algebra, property-based ---------------------


@st.composite
def _graded_presentations(draw, field):
    degrees = [1] + draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2))
    alphabet = Alphabet([(f"x{i}", d) for i, d in enumerate(degrees)])
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        words = words_of_degree(alphabet, draw(st.integers(2, 4)))
        coeffs = draw(st.dictionaries(st.sampled_from(words), st.integers(-3, 3), min_size=1,
                                      max_size=4))
        f = Polynomial(alphabet, field, {w: field.of_int(c) for w, c in coeffs.items()})
        if not f.is_zero():
            relations.append(f)
    return alphabet, relations


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=repr)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_dimensions_match_dimension_oracle(field, data):
    alphabet, relations = data.draw(_graded_presentations(field))
    gb = compute_truncated_gb(alphabet, field, relations, 5)
    assert gb.dimensions() == [ideal_dimension_oracle(alphabet, relations, n, field.char or None)
                               for n in range(6)]
    # the reduced truncated basis does not depend on the input order
    reversed_gb = compute_truncated_gb(alphabet, field, relations[::-1], 5)
    assert [g.coeffs for g in reversed_gb.elements] == [g.coeffs for g in gb.elements]


def test_nf_bracket_of_a_long_word_needs_no_recursion_depth():
    two = Alphabet([("x", 1), ("y", 1)])
    gb = compute_truncated_gb(two, QQ, [parse_polynomial("x*x", two, QQ)], 1200)
    assert _nf_bracket(gb, (1,) + (0,) * 1199).is_zero()


# -- the leading-word automaton ---------------------------------------------------


@st.composite
def _leading_word_sets(draw):
    """An alphabet of 2-3 letters of degree 1-3 and a set of leading words
    that is not interreduced: words, their factors, their extensions on the
    left (shared suffixes) and their squares (self-overlapping repeats)."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    alphabet = Alphabet([(f"x{i}", d) for i, d in enumerate(degrees)])
    letters = st.integers(0, alphabet.size - 1)
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=3).map(tuple),
                          min_size=1, max_size=3))
    for u in list(words):
        i = draw(st.integers(0, len(u) - 1))
        words += draw(st.sampled_from([[], [u[i:i + draw(st.integers(1, len(u) - i))]],
                                       [(draw(letters),) + u], [u + u]]))
    return alphabet, sorted(set(words), key=alphabet.glex_key)


def _inserted_system(draw, alphabet, field, leading):
    """``TruncatedGB`` holding one monic element per leading word, each with
    a tail of up to two glex-smaller words, put in with ``_insert``."""
    pool = [w for n in range(5) for w in words_of_degree(alphabet, n)]
    gb = TruncatedGB(alphabet, field, 6)
    for lw in leading:
        smaller = [w for w in pool if alphabet.glex_key(w) < alphabet.glex_key(lw)]
        tail = draw(st.dictionaries(st.sampled_from(smaller), st.integers(-3, 3), max_size=2))
        coeffs = {w: field.of_int(c) for w, c in tail.items()}
        coeffs[lw] = field.one
        gb._insert(Polynomial(alphabet, field, coeffs))
    return gb, pool


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_automaton_matches_brute_force_on_arbitrary_leading_words(field, data):
    alphabet, leading = data.draw(_leading_word_sets())
    gb, pool = _inserted_system(data.draw, alphabet, field, leading)
    degrees, p = alphabet.degrees, field.char or None
    pieces = st.one_of(st.sampled_from(leading), st.integers(0, alphabet.size - 1).map(
        lambda c: (c,)))
    for _ in range(4):
        w = sum(data.draw(st.lists(pieces, max_size=5)), ())
        expected = brute_first_rewrite(degrees, leading, w)
        found = gb._factor_rewrite(w)   # a proper factor, else w itself off the index
        whole = (w, 0) if w in gb._lw_index else None
        assert (whole if found is None else (found[0], found[2])) == expected
        assert gb.is_reducible_word(w) == (expected is not None)
        f = Polynomial(alphabet, field, {w: field.one, **{
            u: field.of_int(c) for u, c in data.draw(st.dictionaries(
                st.sampled_from(pool), st.integers(1, 4), max_size=3)).items()}})
        expected_nf = reference_reduce(degrees, [g.coeffs for g in gb.elements], f.coeffs, p)
        assert list(gb._reduce(f).coeffs.items()) == list(expected_nf.items())
    counts = brute_irreducible_counts(degrees, leading, gb.bound)
    assert gb.dimensions() == counts
    assert [len(gb.irreducible_words(n)) for n in range(gb.bound + 1)] == counts
    assert irreducible_lyndon_words(gb, gb.bound) == brute_irreducible_lyndon(
        degrees, leading, gb.bound)


def test_long_words_need_no_recursion_depth():
    two = Alphabet([("x", 1), ("y", 1)])
    gb = TruncatedGB(two, QQ, 2)
    gb._insert(parse_polynomial("y*y - x*y", two, QQ))
    w = (1, 0) * 2500   # (y x)^2500, irreducible
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        plain, reducible = gb.is_reducible_word(w), gb.is_reducible_word(w + (1, 1))
        nf = gb._reduce(Polynomial.from_word(two, QQ, w + (1, 1)))
    finally:
        sys.setrecursionlimit(limit)
    assert not plain and reducible
    assert nf.coeffs == {w + (0, 1): 1}


def test_dimensions_count_by_state_not_by_word():
    # x, y of degree 1 with y*y: the words avoiding y y, counted by Fibonacci
    # numbers; there are about 4.2e12 of them in degree 60.
    two = Alphabet([("x", 1), ("y", 1)])
    gb = compute_truncated_gb(two, QQ, [parse_polynomial("y*y", two, QQ)], 60)
    start = time.perf_counter()
    dims = gb.dimensions()
    elapsed = time.perf_counter() - start
    fibonacci = [1, 2]
    while len(fibonacci) < 61:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert dims == fibonacci
    assert elapsed < 0.5


def test_automaton_is_built_once_per_changed_basis(monkeypatch):
    builds = []
    build = rewrite._leading_word_automaton

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(rewrite, "_leading_word_automaton", counted)
    gb = TruncatedGB(AB2, QQ, 5)
    for src in ("x2*x2", "x2*x1 - x1^2", "x1^3"):
        gb._insert(parse_polynomial(src, AB2, QQ))
    gb._remove(0)
    gb._insert(parse_polynomial("x2*x1*x2", AB2, QQ))
    assert builds == []
    f = parse_polynomial("x2^3*x1 + x2*x1*x2", AB2, QQ)
    queries = [
        lambda: gb.is_reducible_word(AB2.word("x2", "x1")),
        lambda: gb._factor_rewrite(AB2.word("x2", "x2")),
        lambda: gb._reduce(f),
        gb.dimensions,
        lambda: gb.irreducible_words(4),
        lambda: irreducible_lyndon_words(gb, 5),
        lambda: gb.height(AB2.word("x1")),
    ]
    for query in queries:
        query()
    assert len(builds) == 1
    gb._remove(1)
    gb._insert(parse_polynomial("x1^2*x2", AB2, QQ))
    gb._remove(0)
    assert len(builds) == 1
    for query in queries:
        query()
    assert len(builds) == 2


def test_stale_automaton_rewrites_by_no_removed_leading_word(monkeypatch):
    # After a degree-3 leading word goes, degree-3 words still read the old
    # automaton, which matches the gone word only as a whole word.
    builds = []
    build = rewrite._leading_word_automaton

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(rewrite, "_leading_word_automaton", counted)
    gb = TruncatedGB(AB2, QQ, 5)
    for src in ("x2*x2", "x2*x1*x2 - x1^3"):
        gb._insert(parse_polynomial(src, AB2, QQ))
    gb.dimensions()
    gb._remove(1)
    gb._insert(parse_polynomial("x2*x1*x1 - x1^3", AB2, QQ))
    assert not gb.is_reducible_word(AB2.word("x2", "x1", "x2"))
    assert gb.is_reducible_word(AB2.word("x2", "x1", "x1"))
    f = parse_polynomial("x2*x1*x2 + x2*x1*x1", AB2, QQ)
    reduced = gb._reduce(f)
    assert reduced == parse_polynomial("x2*x1*x2 + x1^3", AB2, QQ)
    assert len(builds) == 1
    assert gb.is_reducible_word(AB2.word("x2", "x1", "x1", "x1"))
    assert len(builds) == 2
    fresh = TruncatedGB(AB2, QQ, 5)
    for g in gb.elements:
        fresh._insert(g)
    assert fresh._reduce(f) == reduced
