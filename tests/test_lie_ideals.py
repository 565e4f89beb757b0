"""Ideals generated by Lie polynomials: stability both ways, on random input,
and the Lie flag of recovered generators against two independent tests."""

import random
from fractions import Fraction

from hopfpbw import (
    Alphabet,
    Comultiplication,
    Polynomial,
    Presentation,
    QQ,
    check_stability,
    compute_truncated_gb,
    enumerate_lyndon,
    is_lie_polynomial,
    is_lyndon,
    parse_polynomial,
    recover_lie_generators,
    standard_bracket,
    verify_quasi_lie,
)
from hopfpbw.structure import _reducible_lyndon_coordinates

from helpers import graded_words, is_lie_by_dynkin

AB2 = Alphabet([("x1", 1), ("x2", 1)])


def random_lie_relation(rng, alphabet, degree):
    """A nonzero homogeneous integer combination of brackets of Lyndon words."""
    pool = [u for u in enumerate_lyndon(alphabet, degree)
            if alphabet.degree(u) == degree]
    while True:
        f = Polynomial.zero(alphabet, QQ)
        for u in pool:
            c = rng.randint(-2, 2)
            if c:
                f = f + standard_bracket(alphabet, u).scale(Fraction(c))
        if not f.is_zero():
            return f


def test_random_lie_ideals_are_stable():
    rng = random.Random(71)
    comul = Comultiplication.standard(AB2, QQ)
    for trial in range(8):
        degrees = rng.sample([2, 3, 3, 4, 4], k=rng.randint(1, 2))
        rels = [random_lie_relation(rng, AB2, d) for d in degrees]
        gb = compute_truncated_gb(AB2, QQ, rels, 6)
        report = check_stability(comul, gb)
        assert report.ok, f"trial {trial}: {report.details}"


def test_random_lie_ideals_recover_lie_generators():
    rng = random.Random(97)
    for _ in range(5):
        degree = rng.choice([2, 3, 4])
        rels = [random_lie_relation(rng, AB2, degree)]
        pres = Presentation(AB2, QQ, rels, bound=6)
        entries = recover_lie_generators(pres)
        assert entries, "a nonzero Lie relation kills at least one Lyndon word"
        assert all(flag for _v, _g, flag in entries)
        gb = pres.groebner()
        for _v, g, _flag in entries:
            assert is_lie_polynomial(g)
            assert gb.normal_form(g).is_zero()


def test_random_lie_ideals_pass_quasi_primitivity():
    rng = random.Random(131)
    for _ in range(4):
        rels = [random_lie_relation(rng, AB2, rng.choice([2, 3]))]
        parts = verify_quasi_lie(Presentation(AB2, QQ, rels, bound=5))
        assert all(p.ok for p in parts), [p.details for p in parts]


def test_quasi_primitivity_of_free_algebra():
    parts = verify_quasi_lie(Presentation(AB2, QQ, [], bound=5))
    assert all(p.ok for p in parts)
    # part (1) is vacuous: there are no reducible Lyndon words
    assert parts[0].details == []


def _presentation(gens, relations, bound):
    alphabet = Alphabet(gens)
    return Presentation(alphabet, QQ, [parse_polynomial(r, alphabet, QQ) for r in relations],
                        bound=bound)


def test_lie_flags_agree_with_both_oracles():
    heisenberg = _presentation([("x1", 1), ("x2", 1), ("x3", 2)],
                               ["x2*x1 - x1*x2 - x3", "x3*x1 - x1*x3", "x3*x2 - x2*x3"], 6)
    commuting_pair = _presentation([("x", 1), ("y", 2)], ["y*x - x*y"], 6)
    rng = random.Random(97)
    random_ideals = [Presentation(AB2, QQ, [random_lie_relation(rng, AB2, rng.choice([2, 3, 4]))],
                                  bound=6) for _ in range(5)]
    checked = 0
    for pres in (heisenberg, commuting_pair, *random_ideals):
        for _v, g, flag in recover_lie_generators(pres):
            assert flag == is_lie_polynomial(g) == is_lie_by_dynkin(g)
            checked += 1
    assert checked > 20


def _random_relation(rng, alphabet, degree):
    """A nonzero homogeneous integer combination of words, rarely Lie."""
    pool = [w for w in graded_words(alphabet.degrees, degree) if alphabet.degree(w) == degree]
    while True:
        f = Polynomial.zero(alphabet, QQ)
        for w in rng.sample(pool, k=min(len(pool), 3)):
            f = f + Polynomial.from_word(alphabet, QQ, w, rng.choice([-2, -1, 1, 2]))
        if not f.is_zero():
            return f


def test_lyndon_coordinate_criterion_on_unstable_ideals():
    # g = [v] - sum c_w [w] is Lie iff every w with c_w != 0 is Lyndon; on
    # ideals that are not coideals the criterion is often false.
    abc = Alphabet([("a", 1), ("b", 1), ("c", 2)])
    comul = Comultiplication.standard(abc, QQ)
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    unstable = 0
    for _ in range(40):
        rels = [_random_relation(rng, abc, rng.choice([2, 3, 4]))
                for _ in range(rng.randint(1, 2))]
        gb = compute_truncated_gb(abc, QQ, rels, 6)
        unstable += not check_stability(comul, gb).ok
        for v, coords in _reducible_lyndon_coordinates(gb):
            g = standard_bracket(abc, v, QQ)
            for w, c in coords.items():
                g = g - standard_bracket(abc, w, QQ).scale(c)
            criterion = all(map(is_lyndon, coords))
            assert criterion == is_lie_by_dynkin(g)
            seen[criterion] += 1
    assert unstable > 30
    assert seen[True] > 50 and seen[False] > 300
