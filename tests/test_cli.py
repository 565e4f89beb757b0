"""Expression round-trips, file validation, subcommands, exit codes, reports."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hopfpbw import (
    Alphabet,
    ExpressionError,
    PrimeField,
    QQ,
    parse_polynomial,
    parse_tensor,
    render_polynomial,
    render_tensor,
)
from hopfpbw.cli import run

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


def test_unknown_subcommand_usage_error(capsys):
    code, report, _text = run(["frobnicate"])
    assert code == 2
    assert report is None
    capsys.readouterr()


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
                              ("x*x - x", "relation 1 is inhomogeneous: degrees 1 and 2")):
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
