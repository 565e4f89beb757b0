"""Comultiplication extension, certificates, Lie tests, antipodes."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopfpbw import (
    Alphabet,
    Antipode,
    Comultiplication,
    OutOfCertifiedRange,
    Polynomial,
    PrimeField,
    QQ,
    TensorElement,
    antipode_normal_form,
    check_coassoc_counit,
    check_power_comultiplication,
    check_stability,
    check_triangular,
    commutator,
    compute_truncated_gb,
    enumerate_lyndon,
    extend_comultiplication,
    free_gb,
    irreducible_lyndon_words,
    is_lie_polynomial,
    parse_polynomial,
    parse_tensor,
    standard_bracket,
    standard_comultiplication,
    tensor_bracket_coordinates,
)
from hopfpbw.cli import parse_presentation
from hopfpbw.poly import primitive_part
from hopfpbw.rewrite import _nf_bracket
from hopfpbw.structure import _reduced_coproducts
from hopfpbw.word import shirshov_factorization

from helpers import (
    all_words,
    graded_words,
    is_lie_by_dynkin,
    reference_coassoc_counit,
    reference_coproduct,
    stack_depth,
)

AB2 = Alphabet([("x1", 1), ("x2", 1)])
PAIR = Alphabet([("x", 1), ("y", 2)])


def pair_comul(field=QQ):
    return Comultiplication(PAIR, field, {"y": parse_tensor("1#y + y#1 + x#x", PAIR, field)})


def pair_gb(field=QQ, bound=6):
    rel = parse_polynomial("y*x - x*y", PAIR, field)
    return compute_truncated_gb(PAIR, field, [rel], bound)


def reference_comultiplication(f):
    """The standard coproduct of ``f``, term by term from ``reference_coproduct``."""
    out = {}
    for w, c in f.coeffs.items():
        for pair, n in reference_coproduct(w).items():
            out[pair] = out.get(pair, 0) + c * n
    return TensorElement(f.alphabet, f.field, out)


def test_extension_agrees_with_standard_on_primitives():
    comul = Comultiplication.standard(AB2, QQ)
    rng = random.Random(2)
    words = list(all_words(2, 4))
    for _ in range(25):
        f = Polynomial(AB2, QQ, {rng.choice(words): Fraction(rng.randint(-3, 3))
                                 for _ in range(3)})
        assert comul.of_poly(f) == reference_comultiplication(f)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=repr)
def test_standard_coproduct_matches_the_subset_oracle(field):
    alphabet = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    comul = Comultiplication.standard(alphabet, field)
    for w in graded_words(alphabet.degrees, 7):
        expected = reference_coproduct(w, field.char or None)
        assert comul.of_word(w).coeffs == expected, w
        f = Polynomial.from_word(alphabet, field, w)
        assert standard_comultiplication(f).coeffs == expected, w


def test_extension_examples():
    comul = pair_comul()
    one = TensorElement.one(PAIR, QQ)
    assert comul.of_poly(Polynomial.one(PAIR, QQ)) == one
    xy = parse_polynomial("x*y", PAIR, QQ)
    expanded = comul.of_poly(xy)
    expected = parse_tensor(
        "1#x*y + y#x + x#x^2 + x#y + x*y#1 + x^2#x", PAIR, QQ)
    assert expanded == expected
    assert len(expanded.coeffs) == 6


def test_extension_requires_all_images():
    with pytest.raises(ValueError, match="missing comultiplication image"):
        extend_comultiplication(
            {"y": parse_tensor("1#y + y#1", PAIR, QQ)},
            parse_polynomial("x", PAIR, QQ))


def test_extension_is_multiplicative():
    comul = pair_comul()
    rng = random.Random(8)
    pool = [(), (0,), (1,), (0, 0), (0, 1), (1, 0)]
    for _ in range(25):
        f = Polynomial(PAIR, QQ, {rng.choice(pool): Fraction(rng.randint(-3, 3))
                                  for _ in range(3)})
        g = Polynomial(PAIR, QQ, {rng.choice(pool): Fraction(rng.randint(-3, 3))
                                  for _ in range(3)})
        assert comul.of_poly(f * g) == comul.of_poly(f) * comul.of_poly(g)


def test_triangular_examples():
    assert check_triangular(Comultiplication.standard(AB2, QQ)).ok
    assert check_triangular(pair_comul()).ok
    bad = Comultiplication(
        AB2, QQ, {"x1": parse_tensor("1#x1 + x1#1 + x2#x2", AB2, QQ)})
    report = check_triangular(bad)
    assert not report.ok
    assert any("x1" in d for d in report.details)


def test_triangular_lower_tail_modes():
    # a lower-degree tail passes the plain check but fails the graded one
    comul = Comultiplication(
        PAIR, QQ, {"y": parse_tensor("1#y + y#1 + x#x + 1#1", PAIR, QQ)})
    assert check_triangular(comul, graded=False).ok
    assert not check_triangular(comul, graded=True).ok


def test_triangular_same_degree_violation():
    # a top-degree term must keep every Lyndon factor below the generator
    three = Alphabet([("a", 1), ("b", 1), ("c", 2)])
    comul = Comultiplication(
        three, QQ, {"b": parse_tensor("1#b + b#1", three, QQ),
                    "c": parse_tensor("1#c + c#1 + b#b", three, QQ)})
    assert check_triangular(comul).ok
    bad = Comultiplication(
        three, QQ, {"c": parse_tensor("1#c + c#1 + b#b", three, QQ),
                    "a": parse_tensor("1#a + a#1", three, QQ)})
    assert check_triangular(bad).ok  # b < c, fine
    # scalar legs beyond the primitive part are rejected
    scal = Comultiplication(
        three, QQ, {"c": parse_tensor("1#c + c#1 + 2*1#b*b", three, QQ)})
    report = check_triangular(scal)
    assert not report.ok
    assert any("scalar tensor leg" in d for d in report.details)


def test_triangular_names_the_scalar_leg_term_it_refuses():
    # y x = [y x] + [x][y]: the detail names the term, not a bracket coordinate.
    three = Alphabet([("x", 1), ("y", 1), ("z", 2)])
    comul = Comultiplication(three, QQ, {"z": parse_tensor("1#z + z#1 + 1#y*x", three, QQ)})
    assert check_triangular(comul, graded=True).details == [
        "z: top-degree term with a scalar tensor leg (1 # y x)"]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_triangular_accepts_any_top_degree_term_with_nonempty_legs(field):
    # Nonempty legs of a top-degree term have degrees below deg x, so they
    # hold only letters below x, and every Lyndon factor is below x.
    rng = random.Random(f"triangular {field!r}")
    terms = 0
    for _ in range(40):
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        alphabet = Alphabet([(f"x{i}", d) for i, d in enumerate(degrees)])
        words = list(graded_words(alphabet.degrees, 2))
        images = {}
        for x, d in enumerate(alphabet.degrees):
            legs = [(w, w2) for w in words for w2 in words
                    if w and w2 and alphabet.degree(w + w2) == d]
            image = {((), (x,)): field.one, ((x,), ()): field.one}
            for pair in rng.sample(legs, min(len(legs), 3)):
                image[pair] = field.of_int(rng.randint(1, 6))
            terms += len(image) - 2
            images[x] = TensorElement(alphabet, field, image)
        comul = Comultiplication(alphabet, field, images)
        assert check_triangular(comul, graded=True).ok
        assert check_triangular(comul, graded=False).ok
    assert terms > 50


def test_stability_examples():
    heis = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    rels = [parse_polynomial(s, heis, QQ) for s in
            ("x2*x1 - x1*x2 - x3", "x3*x1 - x1*x3", "x3*x2 - x2*x3")]
    gb = compute_truncated_gb(heis, QQ, rels, 6)
    assert check_stability(Comultiplication.standard(heis, QQ), gb).ok

    single = Alphabet([("x", 1)])
    gb2 = compute_truncated_gb(single, QQ, [parse_polynomial("x^2", single, QQ)], 6)
    report = check_stability(Comultiplication.standard(single, QQ), gb2)
    assert not report.ok
    assert report.details == ["Delta(x^2) has residue 2*x#x"]

    assert check_stability(pair_comul(), pair_gb()).ok


def test_stability_char_p_powers():
    single = Alphabet([("x", 1)])
    for p in (2, 3, 5):
        field = PrimeField(p)
        gb = compute_truncated_gb(
            single, field, [parse_polynomial(f"x^{p}", single, field)], 2 * p)
        assert check_stability(Comultiplication.standard(single, field), gb).ok


def test_coassoc_counit_examples():
    gb = pair_gb()
    assert check_coassoc_counit(pair_comul(), gb, 6).ok
    assert check_coassoc_counit(Comultiplication.standard(PAIR, QQ), gb, 6).ok
    rescaled = Comultiplication(
        PAIR, QQ, {"y": parse_tensor("1#y + y#1 + 2*x#x", PAIR, QQ)})
    assert check_coassoc_counit(rescaled, gb, 4).ok
    counit_violation = Comultiplication(
        PAIR, QQ, {"y": parse_tensor("1#y + y#1 + y#1", PAIR, QQ)})
    report = check_coassoc_counit(counit_violation, gb, 4)
    assert not report.ok
    assert any("counit" in d and "y" in d for d in report.details)


def test_counit_violation_with_word_term():
    # an extra word (x) 1 term breaks the counit on one side
    two = Alphabet([("x", 1), ("y", 1)])
    gb = compute_truncated_gb(two, QQ, [], 4)
    comul = Comultiplication(
        two, QQ, {"y": parse_tensor("1#y + y#1 + x#1", two, QQ)})
    report = check_coassoc_counit(comul, gb, 3)
    assert not report.ok
    assert any("counit fails on y" in d for d in report.details)


def test_noncoassociative_triangular_detected():
    # an image using a non-primitive generator on a leg breaks coassociativity
    three = Alphabet([("a", 1), ("b", 1), ("c", 2)])
    gb = compute_truncated_gb(three, QQ, [], 4)
    comul = Comultiplication(
        three, QQ, {"b": parse_tensor("1#b + b#1", three, QQ),
                    "c": parse_tensor("1#c + c#1 + a#b + b#b", three, QQ)})
    report = check_coassoc_counit(comul, gb, 4)
    assert report.ok  # still coassociative: legs are primitive
    twisted = Comultiplication(
        three, QQ, {"c": parse_tensor("1#c + c#1 + a#c", three, QQ)})
    rep = check_triangular(twisted)
    assert not rep.ok  # c not below c


ABC = Alphabet([("a", 1), ("b", 1), ("c", 2)])
_ABC_RELATIONS = {
    "none": [],
    "commuting": ["b*a - a*b", "c*a - a*c", "c*b - b*c"],
    "heisenberg": ["b*a - a*b - c", "c*a - a*c", "c*b - b*c"],
    "square": ["a*a"],
}
# Degree-2 terms that keep the image of c coassociative when a and b are
# primitive, and terms of degree <= deg x that may break a law for x.
_SAFE_C_TERMS = [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
_FAULT_TERMS = {
    0: [((), (0,)), ((0,), ()), ((), (1,)), ((1,), ())],
    1: [((), (1,)), ((1,), ()), ((), (0,)), ((0,), ())],
    2: [((), (2,)), ((2,), ()), ((), (0, 0)), ((0, 1), ()), ((0,), ()), ((), (1,)),
    ],
}


def _seeded_images(rng):
    """Generator images over ABC as integer mappings: c gets random safe
    terms, and about half the cases add one term that may break a law."""
    images = {x: {((), (x,)): 1, ((x,), ()): 1} for x in range(3)}
    for pair in rng.sample(_SAFE_C_TERMS, rng.randint(0, 2)):
        images[2][pair] = rng.choice((1, 2, -1))
    if rng.random() < 0.6:
        x = rng.randrange(3)
        pair = rng.choice(_FAULT_TERMS[x])
        images[x][pair] = images[x].get(pair, 0) + rng.choice((1, 2, -1))
    return images


def _seeded_cases(field, bound=5):
    """The seeded comultiplications over ABC, with each relation set's basis:
    ``(label, seed, gb, images, comul)``."""
    for label, sources in _ABC_RELATIONS.items():
        gb = compute_truncated_gb(
            ABC, field, [parse_polynomial(r, ABC, field) for r in sources], bound)
        for seed in range(8):
            images = _seeded_images(random.Random(f"{field!r} {label} {seed}"))
            comul = Comultiplication(ABC, field, {
                x: TensorElement(ABC, field, {pair: field.of_int(c) for pair, c in image.items()})
                for x, image in images.items()})
            yield label, seed, gb, images, comul


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=repr)
def test_coassoc_counit_matches_the_oracle(field):
    bound, p, verdicts = 5, field.char or None, []
    for label, seed, gb, images, comul in _seeded_cases(field, bound):
        elements = [g.coeffs for g in gb.elements]
        failures = reference_coassoc_counit(ABC.degrees, elements, images, bound, p)
        # the verdict is the per-word one; the details name the generators
        expected = []
        for w, law in failures:
            if len(w) == 1:
                word = ABC.names[w[0]]
                expected.append(f"coassociativity fails on {word}" if law == "coassociativity"
                                else f"counit fails on {word} via {law}")
        report = check_coassoc_counit(comul, gb, bound)
        assert sorted(report.details) == sorted(expected), (label, seed)
        assert report.ok == (not failures)
        verdicts.append(report.ok)
    # both verdicts are well represented
    assert 8 <= verdicts.count(False) <= 24, verdicts


def test_antipode_law_on_generators_matches_every_word():
    verdicts = []
    for field in (QQ, PrimeField(3), PrimeField(7)):
        for label, seed, gb, _images, comul in _seeded_cases(field):
            try:
                antipode = Antipode(comul, gb, precheck=False)
            except ValueError:   # not triangular
                continue
            S = {}
            per_word = True
            for n in range(gb.bound + 1):
                target = Polynomial.one(ABC, field) if n == 0 else Polynomial.zero(ABC, field)
                for w in gb.irreducible_words(n):
                    left = right = Polynomial.zero(ABC, field)
                    for (a, b), c in comul.of_word(w).coeffs.items():
                        pa, pb = (Polynomial.from_word(ABC, field, v) for v in (a, b))
                        for v, pv in ((a, pa), (b, pb)):
                            if v not in S:
                                S[v] = antipode.of(pv)
                        left = left + (S[a] * pb).scale(c)
                        right = right + (pa * S[b]).scale(c)
                    per_word &= gb.normal_form(left) == target == gb.normal_form(right)
            assert antipode.convolution_check(gb.bound).ok == per_word, (field, label, seed)
            verdicts.append(per_word)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 3, verdicts


@pytest.mark.parametrize("query", [
    lambda comul, gb, f: gb.normal_form(f),
    lambda comul, gb, f: gb.normal_form_tensor(TensorElement.of(f, Polynomial.one(f.alphabet, QQ))),
    lambda comul, gb, f: gb.irreducible_words(4),
    lambda comul, gb, f: gb.height((1, 0, 0, 0)),
    lambda comul, gb, f: irreducible_lyndon_words(gb, 4),
    lambda comul, gb, f: check_coassoc_counit(comul, gb, 4),
    lambda comul, gb, f: Antipode(comul, gb).of(f),
], ids=["normal_form", "normal_form_tensor", "irreducible_words", "height",
        "irreducible_lyndon_words", "check_coassoc_counit", "antipode"])
def test_every_query_above_the_bound_is_refused_alike(query):
    # x^4 and y x x x are of degree 4, above the bound 3
    two = Alphabet([("x", 1), ("y", 1)])
    gb = compute_truncated_gb(two, QQ, [parse_polynomial("y*x - x*y", two, QQ)], 3)
    comul, f = Comultiplication.standard(two, QQ), parse_polynomial("x^4", two, QQ)
    with pytest.raises(OutOfCertifiedRange, match=r"^degree 4 exceeds the certified bound 3$"):
        query(comul, gb, f)


def test_law_checks_refuse_above_the_bound():
    comul, gb = pair_comul(), pair_gb()
    with pytest.raises(OutOfCertifiedRange):
        check_coassoc_counit(comul, gb, gb.bound + 1)
    with pytest.raises(OutOfCertifiedRange):
        Antipode(comul, gb).convolution_check(gb.bound + 1)


def test_is_lie_polynomial():
    for u in enumerate_lyndon(AB2, 5):
        assert is_lie_polynomial(standard_bracket(AB2, u, QQ))
    assert not is_lie_polynomial(parse_polynomial("x1*x2", AB2, QQ))
    heis = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    f = parse_polynomial("x3 - x2*x1 + x1*x2", heis, QQ)
    assert is_lie_polynomial(f)
    with pytest.raises(ValueError):
        is_lie_polynomial(parse_polynomial("x", Alphabet([("x", 1)]), PrimeField(3)))


def test_is_lie_agrees_with_dynkin():
    rng = random.Random(37)
    words = [w for w in all_words(2, 5) if w]
    for _ in range(120):
        f = Polynomial(AB2, QQ, {rng.choice(words): Fraction(rng.randint(-2, 2))
                                 for _ in range(3)})
        assert is_lie_polynomial(f) == is_lie_by_dynkin(f)
    # and on brackets plus deliberate non-examples
    for u in enumerate_lyndon(AB2, 5):
        b = standard_bracket(AB2, u, QQ)
        assert is_lie_by_dynkin(b)
        if len(u) >= 2:
            spoiled = b + Polynomial.from_word(AB2, QQ, u[:1] * len(u))
            assert is_lie_polynomial(spoiled) == is_lie_by_dynkin(spoiled)


def test_is_lie_polynomial_reads_bracket_coordinates(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the Lie test expanded a coproduct")

    monkeypatch.setattr(Comultiplication, "of_word", refuse)
    heis = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    bracket = standard_bracket(heis, (1, 1, 0, 1) + (0,) * 10, QQ)
    assert len(bracket.coeffs) == 70 and bracket.degree() == 14
    assert is_lie_polynomial(bracket)
    assert not is_lie_polynomial(bracket + parse_polynomial("x1*x2", heis, QQ))


def test_of_word_needs_no_recursion_depth():
    comul = Comultiplication.standard(Alphabet([("x", 1), ("y", 1)]), QQ)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        image = comul.of_word((0,) * 200)
    finally:
        sys.setrecursionlimit(limit)
    assert image.coeffs == {((0,) * k, (0,) * (200 - k)): math.comb(200, k) for k in range(201)}


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=repr)
def test_bracket_walk_equals_the_expanded_coproduct(field):
    # Every seeded image, those that break the laws included: over the free
    # algebra, where z_w = [w], the table of condition (1) gives
    # Delta'_w = Delta([w]) - P([w]) exactly.
    free = free_gb(ABC, field, 6)
    free_words = irreducible_lyndon_words(free, free.bound)
    free_z = {w: _nf_bracket(free, w) for w in free_words}
    checked = nonzero = coordinates = 0
    for label, seed, gb, _images, comul in _seeded_cases(field):
        table = _reduced_coproducts(comul, free, free_words)
        for w in enumerate_lyndon(ABC, 6):
            bw = standard_bracket(ABC, w, field)
            assert free_z[w] == bw and table[w] + primitive_part(bw) == comul.of_poly(bw), (label, seed, w)
            checked += 1
            nonzero += bool(table[w])
        # On the quotient, Delta'_u built from z_u = NF([u]) has the leg-wise
        # coordinates of Delta([u]) - 1 (x) z_u - z_u (x) 1, as NF([u] - z_u) = 0.
        for u, reduced in _reduced_coproducts(comul, gb, irreducible_lyndon_words(gb, gb.bound)).items():
            bracket = free_z[u]
            rest = comul.of_poly(bracket) - primitive_part(gb.normal_form(bracket))
            coords = tensor_bracket_coordinates(reduced, gb)
            assert coords == tensor_bracket_coordinates(rest, gb), (label, seed, u)
            coordinates += bool(coords)
    assert checked > 1000 and nonzero > 1000 and coordinates > 200


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=repr)
def test_shirshov_factors_come_before_their_word(field):
    # The condition (1) table is built in the order of irreducible_lyndon_words
    # and reads both factors of each word from the entries already made.
    checked = 0
    for label, sources in _ABC_RELATIONS.items():
        gb = compute_truncated_gb(ABC, field, [parse_polynomial(r, ABC, field) for r in sources], 6)
        words = irreducible_lyndon_words(gb, gb.bound)
        position = {u: i for i, u in enumerate(words)}
        for i, u in enumerate(words):
            if len(u) >= 2:
                assert all(position.get(f, i) < i for f in shirshov_factorization(u)), (label, u)
                checked += 1
    assert checked > 80


def test_antipode_examples():
    comul = pair_comul()
    gb = pair_gb()
    x = parse_polynomial("x", PAIR, QQ)
    y = parse_polynomial("y", PAIR, QQ)
    one = Polynomial.one(PAIR, QQ)
    assert antipode_normal_form(comul, gb, x) == -x
    assert antipode_normal_form(comul, gb, y) == parse_polynomial("x^2 - y", PAIR, QQ)
    assert antipode_normal_form(comul, gb, one) == one


def test_antipode_law_on_corpus():
    cases = []
    heis = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])
    rels = [parse_polynomial(s, heis, QQ) for s in
            ("x2*x1 - x1*x2 - x3", "x3*x1 - x1*x3", "x3*x2 - x2*x3")]
    cases.append((Comultiplication.standard(heis, QQ),
                  compute_truncated_gb(heis, QQ, rels, 5)))
    cases.append((pair_comul(), pair_gb()))
    for comul, gb in cases:
        antipode = Antipode(comul, gb)
        assert antipode.convolution_check(gb.bound).ok


def test_left_antipode_law_holds_by_construction():
    # S(x) is solved from m(S (x) id) Delta(x) = 0, so convolution_check
    # evaluates only the right law; the left sum is zero on every letter.
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*(root / "fixtures").glob("*.json"),
                    *(root / "perfbench" / "presentations").glob("*.json")])
    checked = 0
    for path in paths:
        for field in (None, PrimeField(7), PrimeField(2)):
            try:
                alphabet, field, relations, images, _digest, bound = parse_presentation(
                    str(path), field, 6)
                comul = Comultiplication(alphabet, field, images)
                gb = compute_truncated_gb(alphabet, field, relations, min(bound, 6))
                antipode = Antipode(comul, gb, precheck=False)
            except ValueError:   # a coefficient or relation the field refuses, not triangular
                continue
            for x in range(alphabet.size):
                if alphabet.degrees[x] <= gb.bound and not gb.is_reducible_word((x,)):
                    left = comul.image(x).extend_linearly(antipode._s_id, Polynomial)
                    assert not gb._reduce(left), (path.name, field, alphabet.names[x])
                    checked += 1
    assert checked >= 60, checked


def test_antipode_legs_append_words_without_a_product(monkeypatch):
    # m(S (x) id) and m(id (x) S) append the other leg's word to each word of
    # S(a) or S(b): the terms of the product, in its order, with no product formed.
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*(root / "fixtures").glob("*.json"),
                    *(root / "perfbench" / "presentations").glob("*.json")])
    cases = []
    for path in paths:
        for field in (None, PrimeField(7), PrimeField(2)):
            try:
                alphabet, field, relations, images, _digest, bound = parse_presentation(
                    str(path), field, 6)
                comul = Comultiplication(alphabet, field, images)
                gb = compute_truncated_gb(alphabet, field, relations, min(bound, 6))
                antipode = Antipode(comul, gb, precheck=False)
            except ValueError:
                continue
            word = lambda w: Polynomial.from_word(alphabet, field, w)
            for x in range(alphabet.size):
                for a, b in comul.image(x).coeffs:
                    s_a, s_b = antipode._of_word(a), antipode._of_word(b)
                    cases.append((antipode, (a, b), {a: s_a, b: s_b}, s_a * word(b), word(a) * s_b))
    products, mul = [], Polynomial.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for antipode, pair, images, s_id, id_s in cases:
        monkeypatch.setattr(antipode, "_of_word", images.__getitem__)
        for got, expected in ((antipode._s_id(pair), s_id), (antipode._id_s(pair), id_s)):
            assert got == expected and list(got.coeffs) == list(expected.coeffs)
    assert products == [] and len(cases) >= 150, len(cases)


def test_antipode_is_antimultiplicative_mod_ideal():
    comul = pair_comul()
    gb = pair_gb()
    antipode = Antipode(comul, gb)
    rng = random.Random(19)
    pool = [(), (0,), (1,), (0, 0), (0, 1)]
    for _ in range(20):
        f = Polynomial(PAIR, QQ, {rng.choice(pool): Fraction(rng.randint(-3, 3))
                                  for _ in range(2)})
        g = Polynomial(PAIR, QQ, {rng.choice(pool): Fraction(rng.randint(-3, 3))
                                  for _ in range(2)})
        assert antipode.of(f * g) == gb.normal_form(antipode.of(g) * antipode.of(f))


def test_antipode_refuses_above_the_bound():
    comul, gb = pair_comul(), pair_gb(bound=3)
    xyy = parse_polynomial("x*y*y", PAIR, QQ)
    with pytest.raises(OutOfCertifiedRange, match="degree 5 exceeds the certified bound 3"):
        Antipode(comul, gb).of(xyy)
    with pytest.raises(OutOfCertifiedRange, match="degree 5 exceeds the certified bound 3"):
        antipode_normal_form(comul, gb, xyy)


def test_antipode_refused_without_counit():
    two = Alphabet([("x", 1), ("y", 1)])
    gb = compute_truncated_gb(two, QQ, [], 3)
    comul = Comultiplication(two, QQ, {"y": parse_tensor("1#y + y#1 + x#1", two, QQ)})
    with pytest.raises(ValueError, match="refused"):
        antipode_normal_form(comul, gb, parse_polynomial("y", two, QQ))


def test_antipode_refused_on_non_triangular_images():
    two = Alphabet([("x", 1), ("y", 1)])
    gb = compute_truncated_gb(two, QQ, [parse_polynomial("y*x - x*y", two, QQ)], 4)
    comul = Comultiplication(two, QQ, {"x": parse_tensor("1#x + x#1 + y#y", two, QQ)})
    with pytest.raises(ValueError, match="refused"):
        Antipode(comul, gb, precheck=False)


def test_power_comultiplication_letter_standard():
    comul = Comultiplication.standard(AB2, QQ)
    report = check_power_comultiplication(comul, AB2.word("x1"), 2)
    assert report.ok


def test_power_comultiplication_bracket_primitive():
    comul = Comultiplication.standard(AB2, QQ)
    u = AB2.word("x2", "x1")
    # n = 1: the coproduct of a bracket of primitives is exactly primitive
    assert check_power_comultiplication(comul, u, 1).ok
    bu = standard_bracket(AB2, u, QQ)
    one = Polynomial.one(AB2, QQ)
    assert standard_comultiplication(bu) == (
        TensorElement.of(one, bu) + TensorElement.of(bu, one))
    # n = 2: the binomial terms account for everything (remainder zero)
    assert check_power_comultiplication(comul, u, 2).ok
    sq = bu * bu
    expected = (TensorElement.of(one, sq) + TensorElement.of(bu, bu).scale(Fraction(2))
                + TensorElement.of(sq, one))
    assert standard_comultiplication(sq) == expected


def test_power_comultiplication_nonprimitive():
    comul = pair_comul()
    report = check_power_comultiplication(comul, PAIR.word("y"), 1)
    assert report.ok  # x#x has both legs below y with r = s = 0
    assert check_power_comultiplication(comul, PAIR.word("y"), 2).ok


def test_power_comultiplication_random_graded_triangular():
    # random graded triangular images keep the membership for small powers
    rng = random.Random(53)
    three = Alphabet([("a", 1), ("b", 1), ("c", 2)])
    for _ in range(6):
        coeff = Fraction(rng.randint(-2, 2))
        img = parse_tensor("1#c + c#1", three, QQ)
        if coeff:
            pick = rng.choice(["a#a", "a#b", "b#a", "b#b"])
            img = img + parse_tensor(pick, three, QQ).scale(coeff)
        comul = Comultiplication(three, QQ, {"c": img})
        assert check_triangular(comul).ok
        for u in enumerate_lyndon(three, 3):
            n = 1
            while n * three.degree(u) <= 6 and n <= 3:
                assert check_power_comultiplication(comul, u, n).ok
                n += 1


def test_power_comultiplication_flags_violations():
    # a non-triangular image fails the precheck
    bad = Comultiplication(
        AB2, QQ, {"x1": parse_tensor("1#x1 + x1#1 + x2#x2", AB2, QQ)})
    report = check_power_comultiplication(bad, AB2.word("x1"), 1)
    assert not report.ok
    assert report.details[0] == "triangularity precheck failed"


def test_nongraded_triangular_full_path():
    # a genuine lower-degree tail: deg y = 3 with a degree-2 remainder term;
    # plain triangularity holds, the graded variant refuses, and the antipode
    # comes out inhomogeneous
    skew = Alphabet([("x", 1), ("y", 3)])
    comul = Comultiplication(
        skew, QQ, {"y": parse_tensor("1#y + y#1 + x#x", skew, QQ)})
    assert not check_triangular(comul, graded=True).ok
    assert check_triangular(comul, graded=False).ok
    gb = compute_truncated_gb(
        skew, QQ, [parse_polynomial("y*x - x*y", skew, QQ)], 6)
    assert check_stability(comul, gb).ok
    assert check_coassoc_counit(comul, gb, 6).ok
    antipode = Antipode(comul, gb)
    sy = antipode.of(parse_polynomial("y", skew, QQ))
    assert sy == parse_polynomial("x^2 - y", skew, QQ)
    assert not sy.is_homogeneous()
    assert antipode.convolution_check(6).ok
