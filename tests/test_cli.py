"""Expression round-trips, file validation, subcommands, exit codes, reports."""

import json
import math
import sys
import time
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest

from hopfpbw import (
    Alphabet,
    Comultiplication,
    ExpressionError,
    Polynomial,
    Presentation,
    PrimeField,
    QQ,
    check_coassoc_counit,
    compute_truncated_gb,
    extract_ihoe,
    parse_polynomial,
    parse_tensor,
    render_polynomial,
    render_tensor,
    verify_structure_theorem,
)
from hopfpbw import rewrite, structure
from hopfpbw.cli import parse_presentation, run
from hopfpbw.expressions import _word_mul

from helpers import all_words

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

AB = Alphabet([("x1", 1), ("x2", 1), ("x3", 2)])


def fixture(name):
    return str(FIXTURES / name)


# -- expression parsing ---------------------------------------------------------


def test_parse_heisenberg_relation():
    f = parse_polynomial("x2*x1 - x1*x2 - x3", AB, QQ)
    assert f.coefficient(AB.word("x2", "x1")) == 1
    assert f.coefficient(AB.word("x1", "x2")) == -1
    assert f.coefficient(AB.word("x3")) == -1


def test_parse_tensor_example():
    pair = Alphabet([("x", 1), ("y", 2)])
    t = parse_tensor("1#y + y#1 + x#x", pair, QQ)
    y, x = pair.word("y"), pair.word("x")
    assert t.coeffs == {((), y): 1, (y, ()): 1, (x, x): 1}


def test_parse_scalar_prefix_and_powers():
    f = parse_polynomial("(1/2)*x1^2", AB, QQ)
    assert f.coeffs == {AB.word("x1", "x1"): Fraction(1, 2)}
    g = parse_polynomial("3/2*x1*x2 - 2", AB, QQ)
    assert g.coefficient(AB.word("x1", "x2")) == Fraction(3, 2)
    assert g.coefficient(()) == -2
    assert parse_polynomial("-x1 + (x2 - x1)*x3", AB, QQ) == parse_polynomial(
        "x2*x3 - x1*x3 - x1", AB, QQ)


def test_parse_errors_have_positions():
    with pytest.raises(ExpressionError) as err:
        parse_polynomial("x2*w1", AB, QQ)
    assert "unknown generator 'w1'" in str(err.value)
    assert "column 4" in str(err.value)
    with pytest.raises(ExpressionError, match="column"):
        parse_polynomial("x1 + ", AB, QQ)
    with pytest.raises(ExpressionError, match="zero denominator"):
        parse_polynomial("1/0*x1", AB, QQ)
    with pytest.raises(ExpressionError, match="tensor"):
        parse_polynomial("x1#x2", AB, QQ)
    with pytest.raises(ExpressionError, match="'#'"):
        parse_tensor("x1 + x2", AB, QQ)


# Python 3.10.7 and later refuse to convert an integer of more digits than
# this (0: no limit).
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_needs_digit_limit = pytest.mark.skipif(_INT_DIGITS == 0, reason="int() has no digit limit")
_LONG_LITERAL = "9" * (_INT_DIGITS + 1)
_TOO_LONG = f"integer literal of {len(_LONG_LITERAL)} digits is too long"


def test_parentheses_nested_too_deep_are_refused():
    def nested(depth, inner="x1"):
        return "(" * depth + inner + ")" * depth

    assert parse_polynomial(nested(100), AB, QQ) == parse_polynomial("x1", AB, QQ)
    assert parse_tensor(nested(100, "1") + "#x1", AB, QQ) == parse_tensor("1#x1", AB, QQ)
    for depth in (101, 330, 5000):
        with pytest.raises(ExpressionError,
                           match="line 1, column 101: parentheses nested more than 100 deep"):
            parse_polynomial(nested(depth), AB, QQ)
        with pytest.raises(ExpressionError, match="column 106: parentheses nested"):
            parse_tensor("x1#1+" + nested(depth, "1") + "#x1", AB, QQ)


@_needs_digit_limit
@pytest.mark.parametrize("src, column", [("{}*x1 - x2", 1), ("x1 + 2*x1^{}", 11)])
def test_integer_literal_above_the_digit_limit_is_refused(src, column):
    with pytest.raises(ExpressionError, match=f"line 1, column {column}: {_TOO_LONG}"):
        parse_polynomial(src.format(_LONG_LITERAL), AB, QQ)


def test_prime_field_parsing():
    F3 = PrimeField(3)
    f = parse_polynomial("4*x1 - 1/2*x2", AB, F3)
    assert f.coefficient(AB.word("x1")) == 1
    assert f.coefficient(AB.word("x2")) == 1  # -1/2 = -2 = 1 mod 3
    with pytest.raises(ExpressionError, match="not invertible"):
        parse_polynomial("1/3*x1", AB, F3)


def test_render_parse_roundtrip_polynomials():
    cases = [
        "x2*x1 - x1*x2 - x3",
        "(1/2)*x1^2",
        "  - x1  +3 * x3",
        "x1^3 - 2*x1^2*x2 + x2^3",
        "5",
        "x3^2 - 1/7*x1*x2*x1*x2",
    ]
    for src in cases:
        f = parse_polynomial(src, AB, QQ)
        assert parse_polynomial(render_polynomial(f), AB, QQ) == f
    zero = parse_polynomial("x1 - x1", AB, QQ)
    assert render_polynomial(zero) == "0"


def test_render_parse_roundtrip_tensors():
    pair = Alphabet([("x", 1), ("y", 2)])
    cases = ["1#y + y#1 + x#x", "2*x#x - 1#1", "x*y#1 + 1#x^2"]
    for src in cases:
        t = parse_tensor(src, pair, QQ)
        assert parse_tensor(render_tensor(t), pair, QQ) == t


def test_render_canonical_order_is_glex_descending():
    f = parse_polynomial("x1 + x3 + x1*x2", AB, QQ)
    assert render_polynomial(f) == "x3 + x1*x2 + x1"


def test_word_rendering_equals_its_run_length_encoding():
    alphabet = Alphabet([("b", 2), ("a", 1), ("c", 1)])
    for w in all_words(3, 7):   # the empty word included
        runs = [(alphabet.names[x], len(list(run))) for x, run in groupby(w)]
        want = "*".join(name if n == 1 else f"{name}^{n}" for name, n in runs) or "1"
        assert _word_mul(alphabet, w) == want, w


# -- presentation files ----------------------------------------------------------


def test_parse_presentation_heisenberg():
    from hopfpbw.cli import parse_presentation

    alphabet, field, relations, images, digest, bound = parse_presentation(
        fixture("heisenberg.json"))
    assert alphabet.names == ("x1", "x2", "x3")
    assert field.char == 0
    assert len(relations) == 3
    assert images == {}
    assert bound == 6
    assert len(digest) == 16


def test_presentation_file_errors(tmp_path):
    bad_degree = tmp_path / "bad_degree.json"
    bad_degree.write_text(json.dumps({
        "field": "Q",
        "generators": [{"name": "x", "degree": 0}],
        "relations": [],
    }))
    code, _rep, _text = run(["gb", str(bad_degree), "--bound", "3"])
    assert code == 2

    inhomog = tmp_path / "inhomog.json"
    inhomog.write_text(json.dumps({
        "field": "Q",
        "generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 1},
                       {"name": "x3", "degree": 3}],
        "relations": ["x2*x1 - x3"],
        "degree_bound": 4,
    }))
    code, _rep, _text = run(["gb", str(inhomog)])
    assert code == 2

    nonprime = tmp_path / "nonprime.json"
    nonprime.write_text(json.dumps({
        "field": {"Fp": 6},
        "generators": [{"name": "x", "degree": 1}],
        "relations": [],
        "degree_bound": 3,
    }))
    code, _rep, _text = run(["gb", str(nonprime)])
    assert code == 2


_X_FILE = {"field": "Q", "generators": [{"name": "x", "degree": 1}], "degree_bound": 3}


@pytest.mark.parametrize("content", [
    b'{"generators": [{"name": "\xff", "degree": 1}]}',
    b"[" * 100000 + b"]" * 100000,
    pytest.param(f'{{"degree_bound": {_LONG_LITERAL}}}'.encode(), marks=_needs_digit_limit),
], ids=["not-utf8", "nested-too-deep", "too-many-digits"])
def test_unreadable_json_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    start = time.perf_counter()
    code, report, text = run(["verify", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, report, text) == (2, None, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("modulus", [True, False])
def test_boolean_modulus_is_not_an_integer(tmp_path, capsys, modulus):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({**_X_FILE, "field": {"Fp": modulus}}))
    assert run(["verify", str(path)]) == (2, None, "")
    assert capsys.readouterr().err == "error: field Fp modulus must be an integer\n"


@pytest.mark.parametrize("change, message", [
    ({"generators": [{"name": 5, "degree": 1}]}, "generator 1: name must be a nonempty string"),
    ({"generators": [{"name": "", "degree": 1}]}, "generator 1: name must be a nonempty string"),
    ({"relations": [5]}, "'relations' must be a list of strings"),
    ({"relations": {"a": "x"}}, "'relations' must be a list of strings"),
    ({"comultiplication": {"x": 7}}, "comultiplication of 'x' must be a string"),
    ({"comultiplication": []}, "'comultiplication' must be an object"),
    ({"relations": ["x*x - \u00b2*x*x"]}, "unexpected character '\u00b2'"),
    ({"relations": ["x^\u0663"]}, "unexpected character '\u0663'"),
    ({"relations": ["(" * 330 + "x" + ")" * 330]}, "parentheses nested more than 100 deep"),
    ({"comultiplication": {"x": "(" * 330 + "1" + ")" * 330 + "#x + x#1"}},
     "parentheses nested more than 100 deep"),
    pytest.param({"relations": [_LONG_LITERAL + "*x"]}, _TOO_LONG, marks=_needs_digit_limit),
    pytest.param({"relations": ["x^" + _LONG_LITERAL]}, _TOO_LONG, marks=_needs_digit_limit),
], ids=["name-int", "name-empty", "relation-int", "relations-object", "image-int", "images-list",
        "superscript-digit", "arabic-indic-digit", "nested-relation", "nested-image",
        "long-coefficient", "long-exponent"])
def test_malformed_presentation_values_are_input_errors(tmp_path, capsys, change, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({**_X_FILE, **change}))
    code, report, text = run(["verify", str(path)])
    assert (code, report, text) == (2, None, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err, err


def test_inhomogeneous_error_names_degrees(tmp_path, capsys):
    inhomog = tmp_path / "inhomog.json"
    inhomog.write_text(json.dumps({
        "field": "Q",
        "generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 1},
                       {"name": "x3", "degree": 3}],
        "relations": ["x2*x1 - x3"],
        "degree_bound": 4,
    }))
    code, _rep, _text = run(["gb", str(inhomog)])
    captured = capsys.readouterr()
    assert code == 2
    assert "inhomogeneous: degrees 2 and 3" in captured.err


def test_missing_bound_is_usage_error(tmp_path):
    nobound = tmp_path / "nobound.json"
    nobound.write_text(json.dumps({
        "field": "Q",
        "generators": [{"name": "x", "degree": 1}],
        "relations": [],
    }))
    code, _rep, _text = run(["gb", str(nobound)])
    assert code == 2
    code, _rep, _text = run(["gb", str(nobound), "--bound", "3"])
    assert code == 0


# -- subcommands and exit codes ----------------------------------------------------


def test_verify_heisenberg_passes():
    code, report, text = run(["verify", fixture("heisenberg.json")])
    assert code == 0
    assert [e["word"] for e in report["gamma"]] == ["x1", "x2 x1", "x2"]
    assert report["hilbert"] == [1, 2, 4, 6, 9, 12, 16]
    assert all(v["pass"] for v in report["verdicts"])
    assert "finiteness: candidate finite at bound 6" in text


def test_verify_bad_delta_fails_triangularity():
    code, report, _text = run(["verify", fixture("bad_delta.json")])
    assert code == 1
    failing = [v for v in report["verdicts"] if not v["pass"]]
    assert failing and "triangular" in failing[0]["name"]
    assert "x" in failing[0]["detail"]


def test_verify_unstable_square_exit1_with_residue():
    code, report, _text = run(["verify", fixture("unstable_square.json")])
    assert code == 1
    stab = [v for v in report["verdicts"] if v["name"] == "stability"][0]
    assert not stab["pass"]
    assert "2*x#x" in stab["detail"]


def test_ihoe_heisenberg_tower():
    code, report, text = run(["ihoe", fixture("heisenberg.json")])
    assert code == 0
    assert [lvl["generator"] for lvl in report["tower"]] == ["x1", "x2 x1", "x2"]
    z3 = report["tower"][2]
    assert z3["derivation"] == [{"on": "z1", "value": "z2"},
                                {"on": "z2", "value": "0"}]
    z2 = report["tower"][1]
    assert z2["derivation"] == [{"on": "z1", "value": "0"}]
    assert "delta: z3 acts on z1 -> z2" in text


def test_hopf_check_nonprimitive_pair():
    code, report, _text = run(["hopf-check", fixture("nonprimitive_pair.json")])
    assert code == 0
    antipodes = {e["generator"]: e["value"] for e in report["antipodes"]}
    assert antipodes["x"] == "-x"
    assert antipodes["y"] == "-y + x^2"


def test_hopf_check_non_triangular_refuses_antipode(capsys):
    code, report, _text = run(["hopf-check", fixture("bad_delta.json")])
    assert code == 1
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert not verdicts["triangular (graded triangular)"]["pass"]
    assert not verdicts["antipode law"]["pass"]
    assert "not triangular" in verdicts["antipode law"]["detail"]
    assert "antipodes" not in report
    assert "Traceback" not in capsys.readouterr().err


def test_hopf_check_states_no_antipode_above_the_bound(tmp_path):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 4}],
        "relations": [],
        "comultiplication": {"y": "1#y + y#1 + x#x^3"},
    }), encoding="utf-8")
    code, report, text = run(["hopf-check", str(path), "--bound", "3"])
    assert code == 0
    assert report["antipodes"] == [{"generator": "x", "value": "-x"}]
    assert "verdict: PASS antipode law | note: S(y) not reported: degree 4 above the bound 3\n" in text
    assert "S(y)" not in text.split("antipode law")[1].split("\n", 1)[1]
    # At the bound 4 the laws reach y, and coassociativity fails there.
    code, report, text = run(["hopf-check", str(path), "--bound", "4"])
    assert code == 1
    assert "verdict: FAIL coassociativity and counit | coassociativity fails on y\n" in text
    assert "antipodes" not in report


def test_hopf_check_judges_an_image_term_above_the_bound(tmp_path):
    # The leg x^4 lies above the bound 2.  The laws reduce legs without a
    # bound check, so coassociativity fails on y and the run is not refused.
    path = tmp_path / "above.json"
    path.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
        "relations": [],
        "comultiplication": {"y": "1#y + y#1 + x*x*x*x#x"},
        "degree_bound": 2,
    }), encoding="utf-8")
    code, report, text = run(["hopf-check", str(path)])
    assert code == 1
    assert [line for line in text.splitlines() if line.startswith("verdict:")] == [
        "verdict: FAIL triangular (graded triangular) | "
        "y: term x^4#x of degree 5 exceeds deg(y) = 1",
        "verdict: PASS stability",
        "verdict: FAIL coassociativity and counit | coassociativity fails on y",
        "verdict: FAIL antipode law | refused: coassociativity, counit or stability failed",
    ]
    assert "antipodes" not in report
    alphabet, field, relations, images, _digest, bound = parse_presentation(str(path))
    gb = compute_truncated_gb(alphabet, field, relations, bound)
    law = check_coassoc_counit(Comultiplication(alphabet, field, images), gb, 2)
    assert not law.ok and law.details == ["coassociativity fails on y"]


_IMAGE_ABOVE_BOUND_HEAD = (
    "bound: 2\n"
    "presentation: a9cbb1ed5ea147aa\n"
    "field: Q\n"
    "verdict: FAIL triangular (graded triangular) | y: term x^4#x of degree 5 exceeds deg(y) = 1\n"
    "verdict: FAIL stability | Delta(y^2) reaches degree 10 above the bound 2; not certified\n")


@pytest.mark.parametrize("command, tail", [
    ("verify", ""),
    ("hilbert", ""),
    ("hopf-check",
     "verdict: FAIL coassociativity and counit | coassociativity fails on y\n"
     "verdict: FAIL antipode law | refused: coassociativity, counit or stability failed\n"),
])
def test_stability_fails_on_a_basis_coproduct_above_the_bound(command, tail, tmp_path, capsys):
    # Delta(y*y) has the term x^4*x^4 # x*x of degree 10 > 2: stability is
    # not certified there, so it fails instead of refusing the run.
    path = tmp_path / "above.json"
    path.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
        "relations": ["y*y"],
        "comultiplication": {"y": "1#y + y#1 + x*x*x*x#x"},
        "degree_bound": 2,
    }), encoding="utf-8")
    code, report, text = run([command, str(path)])
    assert code == 1 and capsys.readouterr().err == ""
    assert text == f"command: {command}\n" + _IMAGE_ABOVE_BOUND_HEAD + tail
    assert [v["pass"] for v in report["verdicts"]] == [False] * (4 if tail else 2)


@pytest.mark.parametrize("field", [[], ["--field", "Fp:7"]])
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_hilbert_checks_no_pbw_condition(name, field, monkeypatch):
    argv = ["hilbert", fixture(name), "--bound", "5", *field]
    expected = run(argv)

    def refuse(*_args, **_kwargs):
        raise AssertionError("hilbert checked a PBW condition")

    for target in ("_commutator_coordinates", "tensor_bracket_coordinates", "_nf_bracket"):
        monkeypatch.setattr(structure, target, refuse)
    assert run(argv) == expected


@pytest.mark.parametrize("command, tables", [("verify", 1), ("ihoe", 1), ("quasi-lie", 1),
                                             ("hilbert", 0)])
def test_commutator_table_is_formed_at_most_once_per_run(command, tables, monkeypatch):
    calls = []
    table = structure._commutator_coordinates

    def counted(gb, words):
        calls.append(list(words))
        return table(gb, words)

    monkeypatch.setattr(structure, "_commutator_coordinates", counted)
    counts = {}
    for path in sorted(FIXTURES.glob("*.json")):
        alphabet = parse_presentation(path)[0]
        calls.clear()
        run([command, str(path), "--bound", "5"])
        counts[path.name] = len(calls)
        # every run forms it over the report's gamma, lex sorted
        assert all(words == sorted(words, key=alphabet.lex_key) for words in calls)
    assert set(counts.values()) <= {0, tables}, counts
    assert counts["heisenberg.json"] == tables


@pytest.mark.parametrize("command", [
    ["verify"], ["hilbert"], ["ihoe"], ["quasi-lie"], ["lie-gens"], ["heights"],
    ["basis", "--kind", "B", "--degree", "4"], ["basis", "--kind", "C", "--degree", "4"],
    ["gb"], ["hopf-check"]])
def test_one_lyndon_search_per_command(command, monkeypatch):
    calls = []
    search = rewrite.irreducible_lyndon_words

    def counted(*args):
        calls.append(args)
        return search(*args)

    for module in (rewrite, structure):
        monkeypatch.setattr(module, "irreducible_lyndon_words", counted)
    counts = {}
    for path in sorted(FIXTURES.glob("*.json")):
        calls.clear()
        run([command[0], str(path), *command[1:], "--bound", "5"])
        counts[path.name] = len(calls)
    # lie-gens reads reducibility off the automaton and never searches
    assert set(counts.values()) <= ({0} if command[0] == "lie-gens" else {0, 1}), counts
    if command[0] in ("verify", "hilbert", "ihoe", "quasi-lie", "heights", "basis"):
        assert counts["heisenberg.json"] == 1
    # gamma is formed on first read, and no command reads it past failing hypotheses
    if command[0] not in ("heights", "basis"):
        assert counts["bad_delta.json"] == counts["unstable_square.json"] == 0, counts


@pytest.mark.parametrize("command, builds", [
    (["verify"], (1, 1)), (["hilbert"], (1, 1)), (["ihoe"], (1, 1)), (["quasi-lie"], (1, 1)),
    (["hopf-check"], (1, 1)), (["heights"], (1, 1)),
    (["gb"], (1, 0)), (["basis", "--degree", "4"], (1, 0))])
def test_one_basis_and_one_comultiplication_per_run(command, builds, monkeypatch):
    # lie-gens still builds both twice; perfbench pins that count
    bases, comuls = [], []
    gb, comul = structure.compute_truncated_gb, structure.Comultiplication

    def counted_gb(*args):
        bases.append(args)
        return gb(*args)

    def counted_comul(*args, **kwargs):
        comuls.append(args)
        return comul(*args, **kwargs)

    monkeypatch.setattr(structure, "compute_truncated_gb", counted_gb)
    monkeypatch.setattr(structure, "Comultiplication", counted_comul)
    counts = {}
    for path in sorted(FIXTURES.glob("*.json")):
        bases.clear()
        comuls.clear()
        run([command[0], str(path), *command[1:], "--bound", "5"])
        counts[path.name] = (len(bases), len(comuls))
    assert set(counts.values()) == {builds}, counts


@pytest.mark.parametrize("name", ["bad_delta.json", "unstable_square.json", "free2.json"])
def test_ihoe_refusal_is_the_library_refusal(name):
    _code, report, _text = run(["ihoe", fixture(name)])
    detail = {v["name"]: v["detail"] for v in report["verdicts"]}["tower extraction"]
    alphabet, field, relations, images, _digest, bound = parse_presentation(fixture(name))
    pres = Presentation(alphabet, field, relations, images, bound)
    with pytest.raises(ValueError) as refusal:
        extract_ihoe(pres, verify_structure_theorem(pres))
    assert str(refusal.value) == detail


def test_json_path_in_missing_directory_is_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, report, _text = run(["verify", fixture("heisenberg.json"), "--json", str(target)])
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not target.exists()


def test_boolean_degree_and_bound_are_rejected(tmp_path, capsys):
    raw = json.loads(Path(fixture("heisenberg.json")).read_text())
    raw["generators"][0]["degree"] = True
    bool_degree = tmp_path / "bool_degree.json"
    bool_degree.write_text(json.dumps(raw))
    code, _rep, _text = run(["verify", str(bool_degree)])
    assert code == 2
    assert "degree must be positive" in capsys.readouterr().err

    raw = json.loads(Path(fixture("heisenberg.json")).read_text())
    raw["degree_bound"] = True
    bool_bound = tmp_path / "bool_bound.json"
    bool_bound.write_text(json.dumps(raw))
    code, _rep, _text = run(["verify", str(bool_bound)])
    assert code == 2
    assert "degree_bound must be a positive integer" in capsys.readouterr().err


def test_lie_gens_heisenberg_all_lie():
    code, report, _text = run(["lie-gens", fixture("heisenberg.json")])
    assert code == 0
    assert report["lie_generators"]
    assert all(e["lie"] for e in report["lie_generators"])
    first = report["lie_generators"][0]
    assert first["word"] == "x3"
    assert first["polynomial"] == "x3 - x2*x1 + x1*x2"


def test_heights_char_p_and_char0():
    code, report, _text = run(["heights", fixture("char3_cube.json")])
    assert code == 0
    assert report["heights"] == [{"word": "x", "height": 3}]
    code, report, _text = run(["heights", fixture("heisenberg.json"), "--bound", "8"])
    assert code == 0
    assert all(e["height"] is None for e in report["heights"])


def test_basis_command_kinds():
    code, report, _text = run(
        ["basis", fixture("char3_cube.json"), "--degree", "4", "--kind", "C"])
    assert code == 0
    assert report["words"] == []
    code, report, _text = run(
        ["basis", fixture("heisenberg.json"), "--degree", "2", "--kind", "B"])
    assert report["words"] == ["x1 x1", "x1 x2", "x2 x1", "x2 x2"]
    code, report, _text = run(
        ["basis", fixture("free2.json"), "--degree", "3", "--kind", "irreducible"])
    assert len(report["words"]) == 8


def test_hilbert_free_algebra():
    code, report, _text = run(["hilbert", fixture("free2.json")])
    assert code == 0
    assert report["hilbert"] == [1, 2, 4, 8, 16, 32]
    assert "no finite growth certificate" in report["gk"]


def test_field_override_flag():
    code, report, _text = run(
        ["heights", fixture("unstable_square.json"), "--field", "Fp:2"])
    assert code == 0
    assert report["field"] == "Fp:2"
    assert report["heights"] == [{"word": "x", "height": 2}]


def test_lyndon_subcommands():
    code, report, _text = run(["lyndon", "decompose", "x2*x1*x2", "--gens", "x1,x2"])
    assert code == 0
    assert report["decomposition"] == ["x2 x1", "x2"]
    code, report, _text = run(["lyndon", "check", "x2*x2*x1*x2*x1", "--gens", "x1,x2"])
    assert report["lyndon"] == "yes"
    code, report, _text = run(["lyndon", "check", "x1*x2", "--gens", "x1,x2"])
    assert report["lyndon"] == "no"
    code, report, _text = run(["lyndon", "bracket", "x2*x1", "--gens", "x1,x2"])
    assert report["bracket"] == "x2*x1 - x1*x2"
    code, _report, _text = run(["lyndon", "check", "x9", "--gens", "x1,x2"])
    assert code == 2


def test_lyndon_bracket_refuses_a_large_bracket_before_building_it(capsys):
    # a random 26-letter Lyndon word: its bracket once took minutes and gigabytes
    word = "x3 x3 x3 x2 x3 x2 x1 x1 x2 x3 x2 x1 x1 x2 x1 x1 x2 x1 x3 x1 x2 x2 x3 x2 x1 x2"
    start = time.monotonic()
    code, report, _text = run(["lyndon", "bracket", word, "--gens", "x1,x2:2,x3:3"])
    assert time.monotonic() - start < 1
    assert (code, report) == (2, None)
    assert capsys.readouterr().err.startswith("error: ")


def test_lyndon_bracket_keeps_long_words_with_few_rearrangements():
    # x2 x1^29 has 29 Lyndon nodes but only 30 rearrangements:
    # [x2 x1^29] = sum_k (-1)^k C(29, k) x1^k x2 x1^(29-k)
    alphabet = Alphabet([("x1", 1), ("x2", 2), ("x3", 3)])
    code, report, _text = run(["lyndon", "bracket", "x2" + " x1" * 29, "--gens", "x1,x2:2,x3:3"])
    assert code == 0
    expected = Polynomial(alphabet, QQ, {
        (0,) * k + (1,) + (0,) * (29 - k): (-1) ** k * math.comb(29, k) for k in range(30)})
    assert parse_polynomial(report["bracket"], alphabet, QQ) == expected


def test_lyndon_bracket_refuses_a_long_word_at_once(capsys):
    # x2 x1^999 passes the term bound (1000 terms), but its recursion is 1000 deep
    start = time.monotonic()
    code, report, _text = run(["lyndon", "bracket", "x2" + " x1" * 999, "--gens", "x1,x2:2,x3:3"])
    assert time.monotonic() - start < 1
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == "error: word has more than 200 letters; refused\n"


def test_lyndon_bracket_keeps_a_hundred_letter_word():
    # [x2 x1^99] = sum_k (-1)^k C(99, k) x1^k x2 x1^(99-k)
    alphabet = Alphabet([("x1", 1), ("x2", 2), ("x3", 3)])
    code, report, _text = run(["lyndon", "bracket", "x2" + " x1" * 99, "--gens", "x1,x2:2,x3:3"])
    assert code == 0
    expected = Polynomial(alphabet, QQ, {
        (0,) * k + (1,) + (0,) * (99 - k): (-1) ** k * math.comb(99, k) for k in range(100)})
    assert parse_polynomial(report["bracket"], alphabet, QQ) == expected


def test_unknown_subcommand_usage_error(capsys):
    code, report, _text = run(["frobnicate"])
    assert code == 2
    assert report is None
    assert capsys.readouterr().err == (
        "error: unknown command 'frobnicate' (expected one of: verify, quasi-lie, gb, basis, "
        "hilbert, hopf-check, ihoe, lie-gens, heights, lyndon)\n")


def test_parser_built_once_serves_a_valid_command_after_a_usage_error(tmp_path, capsys):
    from hopfpbw.cli import _build_parser

    def verify(out):
        code, report, text = run(["verify", fixture("heisenberg.json"), "--json", str(out)])
        return code, report, text, out.read_bytes()

    _build_parser.cache_clear()
    alone = verify(tmp_path / "alone.json")
    _build_parser.cache_clear()
    assert run(["verify", fixture("heisenberg.json"), "--frobnicate"]) == (2, None, "")
    capsys.readouterr()
    after = verify(tmp_path / "after.json")
    assert after == alone
    assert _build_parser.cache_info().misses == 1


def test_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    code, report, _text = run(
        ["verify", fixture("heisenberg.json"), "--json", str(out)])
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == report
    for key in ("command", "bound", "presentation", "field",
                "verdicts", "gamma", "hilbert", "tower"):
        assert key in on_disk
    for v in on_disk["verdicts"]:
        assert set(v) == {"name", "pass", "detail"}
    for e in on_disk["gamma"]:
        assert set(e) == {"word", "degree"}
    assert isinstance(on_disk["hilbert"], list)


def test_reports_byte_identical_across_runs(tmp_path):
    commands = [
        ["verify", fixture("heisenberg.json")],
        ["ihoe", fixture("heisenberg.json")],
        ["hilbert", fixture("nonprimitive_pair.json")],
        ["heights", fixture("char2_square.json")],
        ["gb", fixture("grassmann2.json")],
    ]
    for i, argv in enumerate(commands):
        out1, out2 = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        _c1, _r1, text1 = run(argv + ["--json", str(out1)])
        _c2, _r2, text2 = run(argv + ["--json", str(out2)])
        assert text1.encode() == text2.encode()
        assert out1.read_bytes() == out2.read_bytes()


def test_hilbert_identity_fails_in_char_p():
    # the ordered-monomial product overcounts once heights are finite
    code, report, _text = run(["hilbert", fixture("char3_cube.json")])
    assert code == 1
    identity = [v for v in report["verdicts"] if "product identity" in v["name"]][0]
    assert not identity["pass"]
    assert "degree 3" in identity["detail"]


def test_unit_ideal_is_input_error(tmp_path, capsys):
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({
        "field": "Q",
        "generators": [{"name": "x", "degree": 1}],
        "relations": ["2"],
        "degree_bound": 3,
    }))
    code, report, _text = run(["gb", str(unit)])
    captured = capsys.readouterr()
    assert code == 2 and report is None
    assert "whole algebra" in captured.err


def test_hopf_check_char2_restricted():
    code, report, _text = run(["hopf-check", fixture("grassmann2.json")])
    assert code == 0
    antipodes = {e["generator"]: e["value"] for e in report["antipodes"]}
    assert antipodes == {"x1": "x1", "x2": "x2"}  # -1 = 1 mod 2


def test_c_words_equal_b_words_without_observed_heights():
    for degree in ("2", "3", "4"):
        _c, b_rep, _t = run(["basis", fixture("heisenberg.json"), "--degree", degree,
                             "--kind", "B"])
        _c, c_rep, _t = run(["basis", fixture("heisenberg.json"), "--degree", degree,
                             "--kind", "C"])
        assert b_rep["words"] == c_rep["words"]


def test_bound_zero_is_rejected_not_silently_replaced():
    code, _rep, _text = run(["gb", fixture("heisenberg.json"), "--bound", "0"])
    assert code == 2
    code, _rep, _text = run(["gb", fixture("heisenberg.json"), "--bound", "-3"])
    assert code == 2


def test_commuting_pair_with_primitive_images():
    # same algebra as the twisted-coproduct pair, standard coproduct
    code, report, _text = run(["hilbert", fixture("commuting_pair.json")])
    assert code == 0
    assert report["hilbert"] == [1, 1, 2, 2, 3, 3, 4]
    code, report, _text = run(["verify", fixture("commuting_pair.json")])
    assert code == 0
    assert [e["word"] for e in report["gamma"]] == ["x", "y"]


def test_jordan_plane_cli_paths():
    code, _rep, _text = run(["verify", fixture("jordan_char2.json")])
    assert code == 0
    code, report, _text = run(["ihoe", fixture("jordan_char2.json")])
    assert code == 0
    assert report["tower"][1]["derivation"] == [{"on": "z1", "value": "z1^2"}]
    # the same relation over Q is rejected by the coideal check
    code, report, _text = run(["verify", fixture("jordan_char2.json"), "--field", "Q"])
    assert code == 1
    stab = [v for v in report["verdicts"] if v["name"] == "stability"][0]
    assert "-2*x1#x1" in stab["detail"]


def test_roundtrip_all_corpus_expressions():
    from hopfpbw.cli import parse_presentation

    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.loads(path.read_text())
        alphabet = Alphabet([(g["name"], g["degree"]) for g in raw["generators"]])
        field = QQ if raw.get("field", "Q") == "Q" else PrimeField(raw["field"]["Fp"])
        for src in raw.get("relations", []):
            f = parse_polynomial(src, alphabet, field)
            assert parse_polynomial(render_polynomial(f), alphabet, field) == f
        for src in (raw.get("comultiplication") or {}).values():
            t = parse_tensor(src, alphabet, field)
            assert parse_tensor(render_tensor(t), alphabet, field) == t
        # the canonical digest is insensitive to formatting of the source file
        _a, _f, _r, _i, digest1, _b = parse_presentation(str(path))
        _a, _f, _r, _i, digest2, _b = parse_presentation(str(path))
        assert digest1 == digest2


def test_divided_powers_cli():
    code, report, _text = run(["hopf-check", fixture("divided_powers.json")])
    assert code == 0
    antipodes = {e["generator"]: e["value"] for e in report["antipodes"]}
    assert antipodes["z"] == "-z + 2*x*y - x^3"
    code, report, _text = run(["hilbert", fixture("divided_powers.json")])
    assert code == 0
    assert report["hilbert"] == [1, 1, 2, 3, 4, 5, 7, 8, 10]


def test_huge_prime_modulus_finishes_quickly():
    start = time.perf_counter()
    code, report, _text = run(["hilbert", fixture("heisenberg.json"), "--bound", "4",
                               "--field", "Fp:1000000000000000003"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["field"] == "Fp:1000000000000000003"
    assert report["hilbert"] == [1, 2, 4, 6, 9]


@pytest.mark.parametrize("modulus", ["561", "1105", "3317044064679887385961981", "1" + "0" * 40])
def test_composite_or_uncertified_modulus_is_input_error(modulus, capsys):
    code, report, _text = run(["hilbert", fixture("heisenberg.json"), "--field", f"Fp:{modulus}"])
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ("not prime" in err) if len(modulus) < 20 else ("too large" in err)


@pytest.mark.parametrize("prime", [2, 3, 5, 7, 32003])
def test_existing_prime_moduli_still_work(prime):
    code, report, _text = run(["hilbert", fixture("heisenberg.json"), "--bound", "4",
                               "--field", f"Fp:{prime}"])
    assert code in (0, 1)
    assert report["field"] == f"Fp:{prime}"


FILE_COMMANDS = ("verify", "quasi-lie", "gb", "basis", "hilbert", "hopf-check", "ihoe",
                 "lie-gens", "heights")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_relation_above_bound_is_input_error(command, capsys):
    # the Heisenberg relation x3*x1 - x1*x3 has degree 3
    path = fixture("heisenberg.json")
    code, report, _text = run([command, path, "--bound", "2", "--degree", "1"]
                              if command == "basis" else [command, path, "--bound", "2"])
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        f"error: {path}: relation 2 has degree 3 above the bound 2\n")


@pytest.mark.parametrize("bound_flag", [[], ["--bound", "5"]])
def test_power_above_bound_is_refused_before_it_is_built(tmp_path, capsys, bound_flag):
    # building x^99999999 would take minutes and gigabytes
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"field": "Q", "generators": [{"name": "x", "degree": 2}],
                                "relations": ["x^2 - x^99999999"], "degree_bound": 4}))
    start = time.perf_counter()
    code, report, _text = run(["gb", str(path), *bound_flag])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and report is None
    bound = bound_flag[-1] if bound_flag else "4"
    assert capsys.readouterr().err == (
        f"error: {path}: relation 1: line 1, column 9: "
        f"x^99999999 has degree 199999998 above the bound {bound}\n")


def test_missing_bound_is_refused_before_parsing(tmp_path, capsys):
    # without a bound the relation is never read, so its syntax error never shows
    path = tmp_path / "nobound.json"
    path.write_text(json.dumps({"field": "Q", "generators": [{"name": "x", "degree": 1}],
                                "relations": ["x^^2 +"]}))
    code, report, _text = run(["gb", str(path)])
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        "error: a degree bound is required (file degree_bound or --bound)\n")


def test_image_power_above_bound_is_refused_before_it_is_built(tmp_path, capsys):
    # the image of x is parsed under max(bound, deg x) = 4
    path = tmp_path / "image.json"
    path.write_text(json.dumps({"field": "Q", "generators": [{"name": "x", "degree": 1}],
                                "relations": [], "degree_bound": 4,
                                "comultiplication": {"x": "x^4000000#1 + 1#x"}}))
    start = time.perf_counter()
    code, report, _text = run(["gb", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error:")


def test_relation_errors_name_the_file(tmp_path, capsys):
    for relation, message in (("x*x - x*x", "relation 1 is zero"),
                              ("x*x - x", "relation 1 is inhomogeneous: degrees 1 and 2"),
                              ("2", "relation 1 is a nonzero constant: ideal is the whole algebra")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": "Q", "generators": [{"name": "x", "degree": 1}],
                                    "relations": [relation], "degree_bound": 3}))
        code, _rep, _text = run(["gb", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("flag", ["--quiet", "--qui"])
def test_main_quiet_flag_suppresses_the_report(flag, monkeypatch, capsys):
    from hopfpbw.cli import main

    for argv, shown in (([], True), ([flag], False)):
        monkeypatch.setattr("sys.argv", ["hopfpbw", "gb", fixture("heisenberg.json"), *argv])
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("command: gb\n") if shown else out == ""
