"""Refusals, each with its exit code and exact message: the CLI's input
checks on presentation files, ``--bound`` and ``--gens``, and the library's
checks on its arguments."""

import json
import time

import pytest

from hopfpbw import (
    Alphabet,
    Comultiplication,
    ExpressionError,
    Polynomial,
    Presentation,
    PrimeField,
    QQ,
    TensorElement,
    TruncatedGB,
    admissible_words,
    check_power_comultiplication,
    compute_truncated_gb,
    enumerate_lyndon,
    irreducible_lyndon_words,
    parse_expression,
    parse_polynomial,
    recover_lie_generators,
)
from hopfpbw.cli import run

F7 = PrimeField(7)
X = Alphabet([("x", 1)])
XY = Alphabet([("x", 1), ("y", 1)])
_FILE = {"field": "Q", "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
         "relations": ["y*x - x*y"], "degree_bound": 3}


# -- CLI -------------------------------------------------------------------------


@pytest.mark.parametrize("content, flags, message", [
    ([_FILE], [], "{path}: top level must be an object"),
    ({**_FILE, "generators": [{"name": "x"}]}, [], "{path}: generator 1 needs 'name' and 'degree'"),
    ({**_FILE, "generators": [{"name": "x", "degree": 1}, {"name": "x", "degree": 2}]}, [],
     "{path}: duplicate generator name 'x'"),
    ({**_FILE, "comultiplication": {"z": "1#z + z#1"}}, [],
     "{path}: comultiplication names unknown generator 'z'"),
    ({**_FILE, "generators": [{"name": "x y", "degree": 1}]}, [],
     "{path}: generator 1: name 'x y' is not an identifier"),
    ({**_FILE, "generators": [{"name": "1x", "degree": 1}]}, [],
     "{path}: generator 1: name '1x' is not an identifier"),
    ({**_FILE, "degree_bound": 1001}, [], "{path}: degree_bound 1001 is above the limit 1000"),
    ({**_FILE, "degree_bound": 10 ** 20}, ["--bound", "3"],
     "{path}: degree_bound 100000000000000000000 is above the limit 1000"),
    (_FILE, ["--bound", "10000000"], "bound 10000000 is above the limit 1000"),
    ({**_FILE, "relations": ["x^2000"]}, ["--bound", "1001"], "bound 1001 is above the limit 1000"),
], ids=["top-level-list", "no-degree", "duplicate-name", "unknown-image-generator",
        "name-with-space", "name-with-leading-digit", "file-bound", "file-bound-overridden",
        "argv-bound", "argv-bound-before-parsing"])
def test_presentation_refusals(tmp_path, capsys, content, flags, message):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(content))
    start = time.perf_counter()
    assert run(["basis", str(path), "--degree", "2", *flags]) == (2, None, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"


def test_the_bound_limit_itself_is_accepted(tmp_path):
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({**_FILE, "degree_bound": 1000}))
    code, report, _text = run(["basis", str(path), "--degree", "2"])
    assert code == 0 and report["words"] == ["x x", "x y", "y y"]


@pytest.mark.parametrize("gens, word, message", [
    ("x1:a", "x1", "malformed generator spec 'x1:a'"),
    (",", "x1", "empty --gens specification"),
    ("x1,x1", "x1", "duplicate generator name 'x1'"),
    ("x y", "x", "generator name 'x y' is not an identifier"),
    ("1x", "x", "generator name '1x' is not an identifier"),
    (":2", "x", "generator name '' is not an identifier"),
    ("x1,x2", "*", "empty word"),
], ids=["degree-not-int", "no-generator", "duplicate", "name-with-space",
        "name-with-leading-digit", "empty-name", "empty-word"])
def test_lyndon_gens_and_word_refusals(capsys, gens, word, message):
    assert run(["lyndon", "check", word, "--gens", gens]) == (2, None, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_empty_gens_chunks_are_skipped():
    code, report, _text = run(["lyndon", "check", "x2 x1", "--gens", "x1,,x2"])
    assert code == 0 and report["lyndon"] == "yes"


# -- library ---------------------------------------------------------------------


def _xy_gb():
    return compute_truncated_gb(XY, QQ, [parse_polynomial("y*x - x*y", XY, QQ)], 3)


def _presentation(field, relation):
    return Presentation(X, field, [parse_polynomial(relation, X, field)], bound=4)


LIBRARY_REFUSALS = {
    "gb-bound-zero": (lambda: TruncatedGB(XY, QQ, 0), ValueError, "bound must be >= 1"),
    "gb-foreign-relation": (
        lambda: compute_truncated_gb(XY, QQ, [parse_polynomial("x*x", X, QQ)], 3),
        ValueError, "relation 1 has mismatched alphabet or scalar mode"),
    "irreducible-lyndon-degree-zero": (
        lambda: irreducible_lyndon_words(_xy_gb(), 0), ValueError, "max_degree must be >= 1"),
    "admissible-unknown-kind": (
        lambda: admissible_words(_xy_gb(), 2, "D"), ValueError, "unknown kind 'D'"),
    "enumerate-lyndon-degree-zero": (
        lambda: enumerate_lyndon(XY, 0), ValueError, "max_degree must be >= 1"),
    "image-not-a-tensor": (
        lambda: Comultiplication(XY, QQ, {"x": Polynomial.from_word(XY, QQ, (0,))}),
        ValueError, "image of x is not a tensor element"),
    "image-over-another-field": (
        lambda: Comultiplication(XY, QQ, {"y": TensorElement(XY, F7, {((1,), ()): 1})}),
        ValueError, "image of y has mismatched alphabet or scalar mode"),
    "power-coproduct-not-lyndon": (
        lambda: check_power_comultiplication(Comultiplication.standard(XY, QQ), (0, 0), 2),
        ValueError, "power-coproduct check needs a Lyndon word"),
    "lie-generators-char-p": (
        lambda: recover_lie_generators(_presentation(F7, "x^3")),
        ValueError, "Lie-generator recovery requires characteristic 0"),
    "lie-generators-unstable": (
        lambda: recover_lie_generators(_presentation(QQ, "x^2")),
        ValueError, "Lie-generator recovery refused: ideal is not a coideal"),
    "unknown-expression-mode": (
        lambda: parse_expression("x", "matrix", X, QQ), ValueError, "unknown mode 'matrix'"),
    "name-as-denominator": (
        lambda: parse_polynomial("1/x", X, QQ), ExpressionError,
        "line 1, column 3: malformed rational: expected an integer denominator"),
    "error-on-line-2": (
        lambda: parse_polynomial("x*y +\n  y*x )", XY, QQ), ExpressionError,
        "line 2, column 7: unexpected trailing input ')'"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_REFUSALS.values(),
                         ids=LIBRARY_REFUSALS.keys())
def test_library_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
