"""The shared ingredients of the PBW certificates equal what they replace:
the commutator table equals the coordinates of free-algebra brackets, the
coproduct of ``z_u`` has the coordinates of the coproduct of ``[u]``, and the
product counts equal the enumerated ordered monomials."""

import random
import sys
from pathlib import Path

import pytest

from hopfpbw import (
    Alphabet,
    Comultiplication,
    Polynomial,
    Presentation,
    TensorElement,
    admissible_words,
    bracket_coordinates,
    commutator,
    enumerate_lyndon,
    extract_ihoe,
    free_gb,
    irreducible_lyndon_words,
    standard_bracket,
    tensor_bracket_coordinates,
    verify_structure_theorem,
)
from hopfpbw.cli import _parse_field, parse_presentation
from hopfpbw.poly import primitive_part
from hopfpbw.rewrite import _nf_bracket
from hopfpbw.word import GREATER, compare_lex, shirshov_factorization
import hopfpbw.poly as poly
import hopfpbw.structure as structure

from helpers import (brute_factorizations, brute_is_lyndon, graded_words, reference_bracket,
                     reference_shirshov_split, stack_depth)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
BENCH_PRESENTATIONS = sorted((ROOT / "perfbench" / "presentations").glob("*.json"))
FIELDS = (None, "Q", "Fp:7")   # None keeps the file's field
MAX_BOUND = 8


def _presentations():
    """Every fixture under its own field, over Q and over F_7, at its file
    bound (at most ``MAX_BOUND``); a relation that a field kills is left out."""
    for path in FIXTURES:
        for spec in FIELDS:
            override = _parse_field(spec) if spec else None
            alphabet, field, rels, images, _digest, bound = parse_presentation(path, override)
            try:
                pres = Presentation(alphabet, field, rels, images, min(bound, MAX_BOUND))
            except ValueError:
                continue
            yield f"{path.stem}/{spec or 'file'}", pres


PRESENTATIONS = dict(_presentations())


@pytest.fixture(scope="module")
def certified():
    """The presentations where triangularity and stability hold, with their reports."""
    reports = {name: verify_structure_theorem(pres) for name, pres in PRESENTATIONS.items()}
    return {name: (PRESENTATIONS[name], r) for name, r in reports.items() if r.hypotheses_ok}


def test_certified_cases_cover_both_fields(certified):
    assert len(certified) >= 20
    assert {"heisenberg/Q", "heisenberg/Fp:7", "divided_powers/file",
            "char2_square/file", "jordan_char2/file"} <= set(certified)


def test_commutator_table_equals_free_algebra_brackets(certified):
    checked = 0
    for _name, (pres, report) in certified.items():
        gb, alphabet, field = report.gb, pres.alphabet, pres.field
        expected_pairs = [
            (u, v) for u in report.gamma for v in report.gamma
            if compare_lex(u, v) == GREATER and alphabet.degree(u + v) <= gb.bound]
        assert list(report.commutators) == expected_pairs
        for (u, v), coords in report.commutators.items():
            free = commutator(standard_bracket(alphabet, u, field),
                              standard_bracket(alphabet, v, field))
            assert coords == bracket_coordinates(free, gb)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("path, bound", [(ROOT / "fixtures" / "free2.json", 8),
                                         (ROOT / "perfbench" / "presentations" / "serre_a2.json", None)],
                         ids=["free2", "serre_a2"])
def test_commutator_table_follows_the_order_of_its_words(path, bound):
    # A report forms its table over gamma, lex sorted; the table follows
    # whatever order it is given, the glex order of the search included.
    alphabet, field, rels, _images, _digest, file_bound = parse_presentation(path)
    gb = Presentation(alphabet, field, rels, None, bound or file_bound).groebner()
    glex = irreducible_lyndon_words(gb, gb.bound)
    for words in (sorted(glex, key=alphabet.lex_key), glex):
        expected = [(u, v) for u in words for v in words
                    if compare_lex(u, v) == GREATER
                    and alphabet.degree(u) + alphabet.degree(v) <= gb.bound]
        assert list(structure._commutator_coordinates(gb, words)) == expected
    assert words != sorted(glex, key=alphabet.lex_key)


@pytest.mark.parametrize("spec", FIELDS, ids=lambda spec: spec or "file")
def test_bracket_walk_equals_the_expanded_coproduct(spec):
    # Delta is an algebra map and [P(a), P(b)] = P([a, b]), so over the free
    # algebra, where z_w = [w], the table of condition (1) gives
    # Delta([w]) - P([w]) exactly, with any images.
    override = _parse_field(spec) if spec else None
    checked = 0
    for path in FIXTURES + BENCH_PRESENTATIONS:
        alphabet, field, _rels, images, _digest, bound = parse_presentation(path, override)
        comul, free = Comultiplication(alphabet, field, images), free_gb(alphabet, field, min(7, bound))
        words = irreducible_lyndon_words(free, free.bound)
        z_table = {w: _nf_bracket(free, w) for w in words}
        table = structure._reduced_coproducts(comul, free, words)
        for w in enumerate_lyndon(alphabet, min(7, bound)):
            bw = standard_bracket(alphabet, w, field)
            assert z_table[w] == bw, (path.stem, w)
            assert table[w] + primitive_part(bw) == comul.of_poly(bw), (path.stem, w)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_shirshov_factors_come_before_their_word(name):
    # The condition (1) table is built in the order of irreducible_lyndon_words
    # and reads both factors of each word from the entries already made.
    gb = PRESENTATIONS[name].groebner()
    words = irreducible_lyndon_words(gb, gb.bound)
    position = {u: i for i, u in enumerate(words)}
    for i, u in enumerate(words):
        if len(u) >= 2:
            assert all(position.get(f, i) < i for f in shirshov_factorization(u)), u


def _count_products(monkeypatch, cls):
    """A list that gains one entry per product ``*`` or ``commutator`` formed
    on ``cls`` operands, wherever the library calls ``commutator`` from."""
    products, mul, bracket = [], cls.__mul__, poly.commutator

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    def counted_commutator(f, g):
        if type(f) is cls:
            products.append(1)
        return bracket(f, g)

    monkeypatch.setattr(cls, "__mul__", counted_mul)
    for module in (poly, structure):
        monkeypatch.setattr(module, "commutator", counted_commutator)
    return products


def test_condition1_on_primitive_letters_forms_no_tensor_product(monkeypatch):
    # Every letter of free2 is primitive, so Delta' is 0 on every node of the
    # walk; building Delta[u] would form two tensor products per bracket node.
    alphabet, field, rels, images, _digest, _bound = parse_presentation(ROOT / "fixtures" / "free2.json")
    products = _count_products(monkeypatch, TensorElement)
    report = verify_structure_theorem(Presentation(alphabet, field, rels, images, 8))
    assert report.condition1.ok and len(report.gamma) == 71
    assert products == []


def _fixture(name, bound, relations=True):
    alphabet, field, rels, images, _digest, _bound = parse_presentation(ROOT / "fixtures" / name)
    return Presentation(alphabet, field, rels if relations else [], images, bound)


def test_condition1_forms_no_bracket_outside_the_z_table(monkeypatch):
    # Condition (1) forms z_u = NF([u]) only beside a nonzero Delta', and
    # condition (2) reads its commutators off Lyndon structure constants.  On
    # free2 every Delta' is 0, so verify forms no polynomial product at all;
    # a warm z table leaves the commutator table none to form either.
    pres = _fixture("free2.json", 8)
    gb = pres.groebner()   # a fresh basis, so no bracket is cached yet
    gamma = sorted(irreducible_lyndon_words(gb, gb.bound), key=pres.alphabet.lex_key)
    products = _count_products(monkeypatch, Polynomial)
    verify_structure_theorem(pres)
    assert products == []
    for u in gamma:
        _nf_bracket(gb, u)
    assert products
    products.clear()
    structure._commutator_coordinates(gb, gamma)
    assert products == []


def test_condition1_forms_z_only_beside_a_nonzero_reduced_coproduct(monkeypatch):
    # y is not primitive (Delta'(y) = x # x), and over the free algebra on x, y
    # gamma has words of length 2 and more, so the condition (1) walk of verify
    # forms some entries of the z table, with fewer products than the whole
    # table takes.
    pres = _fixture("nonprimitive_pair.json", 6, relations=False)
    gb = pres.groebner()
    gamma = sorted(irreducible_lyndon_words(gb, gb.bound), key=pres.alphabet.lex_key)
    products, walk, in_walk = _count_products(monkeypatch, Polynomial), structure._reduced_coproducts, []

    def counted_walk(*args):
        start = len(products)
        table = walk(*args)
        in_walk.append(len(products) - start)
        return table

    monkeypatch.setattr(structure, "_reduced_coproducts", counted_walk)
    assert verify_structure_theorem(pres).condition1.ok
    products.clear()
    for u in gamma:
        _nf_bracket(gb, u)
    assert len(in_walk) == 1 and 0 < in_walk[0] < len(products)


def test_z_table_is_formed_on_first_read():
    report = verify_structure_theorem(_fixture("free2.json", 8))
    assert report.gb._nf_bracket_cache == {}
    fresh = _fixture("free2.json", 8).groebner()
    eager = {u: _nf_bracket(fresh, u) for u in report.gamma}
    assert list(report.z_table.items()) == list(eager.items())
    assert report.z_table is report.z_table
    pres = _fixture("heisenberg.json", 6)
    report, fresh = verify_structure_theorem(pres), pres.groebner()
    generators = extract_ihoe(pres, report).generators
    assert [(u, z) for u, _degree, z in generators] == [(u, _nf_bracket(fresh, u)) for u in report.gamma]


@pytest.mark.parametrize("degrees", [(1, 1), (1, 1, 2)], ids=["two-letters", "three-mixed"])
def test_lie_structure_constants_equal_reference_commutators(degrees):
    # [[u], [v]] = sum a_w [w] in the free algebra, each bracket expanded by
    # the reference definition, for every Lyndon pair u > v up to degree 8.
    brackets = {w: reference_bracket(w) for w in graded_words(degrees, 8) if brute_is_lyndon(w)}
    degree = {w: sum(degrees[i] for i in w) for w in brackets}
    memo, checked = {}, 0
    for u in brackets:
        for v in brackets:
            if compare_lex(u, v) != GREATER or degree[u] + degree[v] > 8:
                continue
            expected = _times(brackets[u], brackets[v])
            for w, c in _times(brackets[v], brackets[u]).items():
                expected[w] = expected.get(w, 0) - c
            total = {}
            for w, a in structure._lie_structure_constants(u, v, memo).items():
                assert w in brackets and a != 0
                for x, c in brackets[w].items():
                    total[x] = total.get(x, 0) + a * c
            assert ({x: c for x, c in total.items() if c}
                    == {x: c for x, c in expected.items() if c}), (u, v)
            checked += 1
    assert checked > 100, checked


def test_lie_structure_constants_need_no_python_recursion():
    # A naive recursion on [[y^k x x], [x]] nests about k calls deep.  The
    # explicit stack does not; its value is checked on random matrices mod p,
    # where each Lyndon bracket is a matrix commutator.
    k, p = 40, 10007
    u, v = (1,) * k + (0, 0), (0,)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 20)
    try:
        constants = structure._lie_structure_constants(u, v, {})
    finally:
        sys.setrecursionlimit(limit)
    rng = random.Random(3)
    letters = [[[rng.randrange(p) for _ in range(3)] for _ in range(3)] for _ in range(2)]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(3)) % p for j in range(3)] for i in range(3)]

    def bracket(a, b):
        ab, ba = mul(a, b), mul(b, a)
        return [[(ab[i][j] - ba[i][j]) % p for j in range(3)] for i in range(3)]

    values = {}

    def value(w):   # the Lyndon bracket [w] evaluated on the letter matrices
        if w not in values:
            left, right = reference_shirshov_split(w) if len(w) > 1 else (None, None)
            values[w] = letters[w[0]] if left is None else bracket(value(left), value(right))
        return values[w]

    total = [[0] * 3 for _ in range(3)]
    for w, a in constants.items():
        assert brute_is_lyndon(w) and sorted(w) == sorted(u + v)
        total = [[(total[i][j] + a * value(w)[i][j]) % p for j in range(3)] for i in range(3)]
    assert total == bracket(value(u), value(v))


def _times(f, g):
    out = {}
    for u, a in f.items():
        for v, b in g.items():
            out[u + v] = out.get(u + v, 0) + a * b
    return out


@pytest.mark.parametrize("spec", ["Q", "Fp:2", "Fp:3", "Fp:7"])
def test_commutator_table_on_random_lie_presentations(spec):
    # Relations that are combinations of Lyndon brackets span a Hopf ideal
    # for the standard coproduct, so verify reaches condition (2); their
    # leading words make some Lyndon words reducible, whose c(w) is not e_w.
    field, rng = _parse_field(spec), random.Random(spec)
    checked = reducible = 0
    for degrees in [(1, 1), (1, 1, 2), (1, 2)] * 4:
        alphabet = Alphabet([(f"x{i}", d) for i, d in enumerate(degrees)])
        relations = []
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(2, 4)
            pool = [w for w in enumerate_lyndon(alphabet, n) if alphabet.degree(w) == n]
            f = Polynomial.zero(alphabet, field)
            for w in rng.sample(pool, k=min(len(pool), 2)):
                c = field.of_int(rng.randint(1, 6))
                f = f + standard_bracket(alphabet, w, field).scale(c)
            if f:
                relations.append(f)
        report = verify_structure_theorem(Presentation(alphabet, field, relations, None, 7))
        assert report.hypotheses_ok
        gb = report.gb
        for (u, v), coords in report.commutators.items():
            free = commutator(standard_bracket(alphabet, u, field),
                              standard_bracket(alphabet, v, field))
            assert list(coords.items()) == list(bracket_coordinates(free, gb).items()), (u, v)
            checked += 1
        reducible += sum(map(gb.is_reducible_word, enumerate_lyndon(alphabet, gb.bound)))
    assert checked > 100 and reducible > 50, (checked, reducible)


def _coproduct_remainder_coordinates(comul, gb, f):
    one = Polynomial.one(f.alphabet, f.field)
    rest = comul.of_poly(f) - TensorElement.of(one, f) - TensorElement.of(f, one)
    return tensor_bracket_coordinates(rest, gb)


def test_condition1_coordinates_of_normal_form_equal_those_of_bracket(certified):
    for _name, (pres, report) in certified.items():
        comul, gb = pres.comultiplication(), report.gb
        for u, z in report.z_table.items():
            bu = standard_bracket(pres.alphabet, u, pres.field)
            assert z == gb.normal_form(bu)
            assert (_coproduct_remainder_coordinates(comul, gb, z)
                    == _coproduct_remainder_coordinates(comul, gb, bu))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_product_counts_equal_enumerated_monomials(name):
    gb = PRESENTATIONS[name].groebner()
    words = irreducible_lyndon_words(gb, gb.bound)
    for kind, capped in (("B", False), ("C", True)):
        counts = structure._monomial_counts(gb, words, capped)
        assert counts == [len(admissible_words(gb, n, kind)) for n in range(gb.bound + 1)]


@pytest.mark.parametrize("name", ["char2_square", "char3_cube", "char5_fifth"])
def test_prime_power_fixtures_cap_the_exponents(name):
    gb = PRESENTATIONS[f"{name}/file"].groebner()
    words = irreducible_lyndon_words(gb, gb.bound)
    capped = structure._monomial_counts(gb, words, True)
    assert capped != structure._monomial_counts(gb, words, False)
    assert capped == gb.dimensions()


def test_tower_reads_the_table(certified, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("tower extraction recomputed a commutator")

    monkeypatch.setattr(structure, "bracket_coordinates", refuse)
    monkeypatch.setattr(structure, "commutator", refuse)
    for name in ("heisenberg/Q", "heisenberg/Fp:7", "commuting_pair/file",
                 "divided_powers/file", "nonprimitive_pair/file"):
        pres, report = certified[name]
        tower = extract_ihoe(pres, report)
        d = len(report.gamma)
        assert tower.ok and len(tower.derivations) == d * (d - 1) // 2


def test_commutator_factors_lie_below_their_level(certified):
    # The check the tower made of its own before it read condition (2): wherever
    # verify passes, every Lyndon factor of every coordinate of
    # [z_{gamma[i]}, z_{gamma[j]}] lies in gamma[:i].
    reports = {name: report for name, (_pres, report) in certified.items()}
    for path in BENCH_PRESENTATIONS:
        alphabet, field, rels, images, _digest, bound = parse_presentation(path)
        reports[path.stem] = verify_structure_theorem(Presentation(alphabet, field, rels, images, bound))
    passing = {name: report for name, report in reports.items() if report.passed}
    assert {"serre_a2", "serre_b2", "heisenberg/Q", "divided_powers/file"} <= set(passing)
    checked = 0
    for name, report in passing.items():
        gamma = report.gamma
        for (u, v), coords in report.commutators.items():
            below = set(gamma[:gamma.index(u)])
            assert v in below, (name, u, v)
            for w in coords:
                [factors] = brute_factorizations(w)
                assert below.issuperset(factors), (name, u, v, w)
                checked += 1
    assert checked > 50
