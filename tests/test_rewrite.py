"""Truncated completion, normal forms, irreducible combinatorics, coordinates."""

import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest

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
from hopfpbw.rewrite import OutOfCertifiedRange, TruncatedGB
from hopfpbw.word import words_of_degree

from helpers import brute_irreducible_lyndon, echelon_rank, ideal_dimension_oracle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
    # a later relation whose leading word divides an earlier one forces the
    # earlier element to be reprocessed and absorbed
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
    for gb in (heis_gb(), commutative_gb(),
               compute_truncated_gb(
                   AB2, QQ, [parse_polynomial("x2*x1 - x1*x1", AB2, QQ)], 6)):
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
        # lower degrees are read from the stored list
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
