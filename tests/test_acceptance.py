"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Each criterion carries its stated wall-clock budget.
"""

import json
import math
import sys
import time
from pathlib import Path

from hopfpbw import (
    Alphabet,
    Polynomial,
    PrimeField,
    QQ,
    Presentation,
    bracket_coordinates,
    compute_heights,
    enumerate_lyndon,
    free_gb,
    commutator,
    compare_lex,
    is_lyndon,
    lyndon_decomposition,
    parse_polynomial,
    shirshov_factorization,
    standard_bracket,
    verify_structure_theorem,
)
from hopfpbw.cli import run
from hopfpbw.word import GREATER, LESS

from helpers import (
    all_words,
    brute_factorizations,
    brute_is_lyndon,
    weighted_monomial_count,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PRESENTATIONS = Path(__file__).resolve().parent.parent / "perfbench" / "presentations"


def _report(number, name, ok, elapsed, budget):
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{mark}] {name} ({elapsed:.2f}s < {budget}s)",
          file=sys.stderr)
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_lyndon_suite():
    start = time.monotonic()
    ok = True
    for n_letters, max_len in ((2, 7), (3, 5)):
        for u in all_words(n_letters, max_len):
            if not u:
                continue
            # L1: suffix characterization against the rotation definition
            by_suffix = all(compare_lex(u, u[i:]) == GREATER for i in range(1, len(u)))
            ok &= is_lyndon(u) == brute_is_lyndon(u) == by_suffix
            # L3: Shirshov parts
            if len(u) >= 2:
                left, right = shirshov_factorization(u)
                ok &= is_lyndon(u) == (is_lyndon(left) and is_lyndon(right)
                                       and compare_lex(left, right) == GREATER)
            # L5: decomposition round-trip, unique against brute force
            factors = lyndon_decomposition(u)
            joined = ()
            for f in factors:
                joined += f
                ok &= is_lyndon(f)
            ok &= joined == u
            ok &= all(compare_lex(a, b) != GREATER for a, b in zip(factors, factors[1:]))
            ok &= brute_factorizations(u) == [factors]
        # comparison rule through decompositions
        words = [w for w in all_words(n_letters, min(max_len, 6)) if w]
        decs = {w: lyndon_decomposition(w) for w in words}
        for u in words:
            for v in words:
                du, dv = decs[u], decs[v]
                m, n = len(du), len(dv)
                rule = bool(n < m and du[:n] == dv)
                if not rule:
                    for l in range(min(m, n)):
                        if du[l] != dv[l]:
                            rule = compare_lex(du[l], dv[l]) == LESS
                            break
                ok &= (compare_lex(u, v) == LESS) == rule
    _report(1, "lyndon suite", ok, time.monotonic() - start, 10)


def test_criterion_2_bracketing_suite():
    start = time.monotonic()
    ok = True
    ab3 = Alphabet([("x1", 1), ("x2", 1), ("x3", 1)])
    # bracketing-leading, exhaustive to degree 6 over 3 letters
    for w in all_words(3, 6):
        if not w:
            continue
        rest = standard_bracket(ab3, w) - Polynomial.from_word(ab3, QQ, w)
        for v in rest.coeffs:
            ok &= compare_lex(v, w) == LESS and sorted(v) == sorted(w)
    # bracketing-expansion support bounds via free-algebra coordinates
    lyndon = enumerate_lyndon(ab3, 5)
    gb6 = free_gb(ab3, QQ, 6)
    for u in lyndon:
        for v in lyndon:
            if compare_lex(u, v) != GREATER or ab3.degree(u + v) > 6:
                continue
            f = commutator(standard_bracket(ab3, u), standard_bracket(ab3, v))
            for w, _c in bracket_coordinates(f, gb6).items():
                ok &= sorted(w) == sorted(u + v)
                for factor in lyndon_decomposition(w):
                    ok &= (compare_lex(v, factor) == LESS
                           and compare_lex(factor, u + v) != GREATER)
    # reordering-bracketing over 2 letters, all sequences of total degree <= 6
    ab2 = Alphabet([("x1", 1), ("x2", 1)])
    lyndon2 = enumerate_lyndon(ab2, 5)
    gb2 = free_gb(ab2, QQ, 6)

    def sequences(total):
        if total == 0:
            yield []
            return
        for u in lyndon2:
            d = ab2.degree(u)
            if d <= total:
                for rest in sequences(total - d):
                    yield [u] + rest

    for total in range(2, 7):
        for seq in sequences(total):
            if len(seq) < 2:
                continue
            f = Polynomial.one(ab2, QQ)
            for u in seq:
                f = f * standard_bracket(ab2, u)
            lo = min(seq, key=ab2.lex_key)
            hi = max(seq, key=ab2.lex_key)
            multiset = sorted(letter for u in seq for letter in u)
            for w, _c in bracket_coordinates(f, gb2).items():
                ok &= sorted(w) == multiset
                for factor in lyndon_decomposition(w):
                    ok &= (compare_lex(factor, lo) != LESS
                           and compare_lex(factor, hi) != GREATER)
    _report(2, "bracketing suite", ok, time.monotonic() - start, 30)


def test_criterion_3_heisenberg_end_to_end():
    start = time.monotonic()
    fixture = str(FIXTURES / "heisenberg.json")
    code_v, report_v, _ = run(["verify", fixture])
    ok = code_v == 0
    ok &= [e["word"] for e in report_v["gamma"]] == ["x1", "x2 x1", "x2"]
    code_h, report_h, _ = run(["hilbert", fixture])
    ok &= code_h == 0
    ok &= report_h["hilbert"] == [1, 2, 4, 6, 9, 12, 16]
    degrees = [e["degree"] for e in report_v["gamma"]]
    ok &= all(report_h["hilbert"][n] == weighted_monomial_count(degrees, n)
              for n in range(7))
    code_i, report_i, _ = run(["ihoe", fixture])
    ok &= code_i == 0
    z2 = report_i["tower"][1]
    z3 = report_i["tower"][2]
    ok &= z2["derivation"] == [{"on": "z1", "value": "0"}]
    ok &= z3["derivation"] == [{"on": "z1", "value": "z2"}, {"on": "z2", "value": "0"}]
    code_l, report_l, _ = run(["lie-gens", fixture])
    ok &= code_l == 0
    ok &= bool(report_l["lie_generators"])
    ok &= all(e["lie"] for e in report_l["lie_generators"])
    _report(3, "heisenberg end-to-end", ok, time.monotonic() - start, 5)


def test_criterion_4_nonprimitive_generator():
    start = time.monotonic()
    fixture = str(FIXTURES / "nonprimitive_pair.json")
    code_v, report_v, _ = run(["verify", fixture])
    ok = code_v == 0
    ok &= [e["word"] for e in report_v["gamma"]] == ["x", "y"]
    ok &= report_v["hilbert"] == [1, 1, 2, 2, 3, 3, 4]
    code_h, report_h, _ = run(["hopf-check", fixture])
    ok &= code_h == 0
    names = {v["name"]: v["pass"] for v in report_h["verdicts"]}
    ok &= names.get("coassociativity and counit", False)
    ok &= names.get("stability", False)
    ok &= names.get("antipode law", False)
    antipodes = {e["generator"]: e["value"] for e in report_h.get("antipodes", [])}
    # S(y) = x^2 - y, rendered in canonical graded-lex-descending order
    pair = Alphabet([("x", 1), ("y", 2)])
    got = parse_polynomial(antipodes["y"], pair, QQ)
    ok &= got == parse_polynomial("x^2 - y", pair, QQ)
    _report(4, "non-primitive generator fixture", ok, time.monotonic() - start, 30)


def test_criterion_5_characteristic_p_heights():
    start = time.monotonic()
    ok = True
    single = Alphabet([("x", 1)])
    for p, name in ((2, "char2_square.json"), (3, "char3_cube.json"),
                    (5, "char5_fifth.json")):
        code, report, _ = run(["heights", str(FIXTURES / name)])
        ok &= code == 0
        ok &= report["heights"][0] == {"word": "x", "height": p}
        field = PrimeField(p)
        pres = Presentation(
            single, field, [parse_polynomial(f"x^{p}", single, field)], bound=2 * p)
        data, verdict = compute_heights(pres)
        ok &= data.heights[single.word("x")] == p and verdict.ok
    # characteristic zero: no finite height anywhere on the corpus at bound 8
    for name in ("heisenberg.json", "nonprimitive_pair.json", "free2.json",
                 "commuting_pair.json"):
        code, report, _ = run(["heights", str(FIXTURES / name), "--bound", "8"])
        ok &= code == 0
        ok &= all(e["height"] is None for e in report["heights"])
    _report(5, "characteristic-p heights", ok, time.monotonic() - start, 30)


def test_criterion_6_free_algebra_baseline():
    start = time.monotonic()
    ab2 = Alphabet([("x1", 1), ("x2", 1)])
    pres = Presentation(ab2, QQ, [], bound=5)
    report = verify_structure_theorem(pres)
    ok = report.passed
    by_length = {}
    for u in report.gamma:
        by_length[len(u)] = by_length.get(len(u), 0) + 1
    ok &= [by_length.get(n, 0) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    # brute-force oracle for the same counts
    brute = {}
    for w in all_words(2, 5):
        if w and brute_is_lyndon(w):
            brute[len(w)] = brute.get(len(w), 0) + 1
    ok &= by_length == brute
    ok &= report.dims == [2 ** n for n in range(6)]
    from hopfpbw import admissible_words

    gb = report.gb
    for n in range(6):
        ok &= len(admissible_words(gb, n, "B")) == 2 ** n
    _report(6, "free-algebra baseline", ok, time.monotonic() - start, 30)


def test_criterion_7_stability_counterexample():
    start = time.monotonic()
    code, report, _ = run(["verify", str(FIXTURES / "unstable_square.json")])
    ok = code == 1
    stab = [v for v in report["verdicts"] if v["name"] == "stability"]
    ok &= bool(stab) and not stab[0]["pass"]
    ok &= "2*x#x" in stab[0]["detail"]
    _report(7, "stability counterexample", ok, time.monotonic() - start, 30)


def test_criterion_8_determinism(tmp_path):
    start = time.monotonic()
    commands = [
        ["verify", "heisenberg.json"],
        ["ihoe", "heisenberg.json"],
        ["lie-gens", "heisenberg.json"],
        ["hilbert", "heisenberg.json"],
        ["gb", "heisenberg.json"],
        ["basis", "heisenberg.json", "--degree", "3", "--kind", "B"],
        ["heights", "heisenberg.json"],
        ["quasi-lie", "heisenberg.json"],
        ["verify", "nonprimitive_pair.json"],
        ["hopf-check", "nonprimitive_pair.json"],
        ["hilbert", "free2.json"],
        ["verify", "unstable_square.json"],
        ["verify", "bad_delta.json"],
        ["heights", "char2_square.json"],
        ["heights", "char3_cube.json"],
        ["heights", "char5_fifth.json"],
        ["gb", "grassmann2.json"],
        ["verify", "commuting_pair.json"],
        ["ihoe", "jordan_char2.json"],
        ["hopf-check", "divided_powers.json"],
        ["lyndon", "decompose", "x2*x1*x2*x2*x1", "--gens", "x1,x2"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        argv = [a if a.endswith(".json") is False or "/" in a else str(FIXTURES / a)
                for a in argv]
        out1 = tmp_path / f"r{i}a.json"
        out2 = tmp_path / f"r{i}b.json"
        c1, _r1, text1 = run(argv + ["--json", str(out1)])
        c2, _r2, text2 = run(argv + ["--json", str(out2)])
        ok &= c1 == c2
        ok &= text1.encode("utf-8") == text2.encode("utf-8")
        ok &= out1.read_bytes() == out2.read_bytes()
    _report(8, "determinism", ok, time.monotonic() - start, 60)


def test_criterion_9_serre_b2_quasi_lie_at_file_bound():
    start = time.monotonic()
    code, report, _ = run(["quasi-lie", str(PRESENTATIONS / "serre_b2.json")])
    ok = code == 0 and report["bound"] == 16
    ok &= len(report["verdicts"]) == 3 and all(v["pass"] for v in report["verdicts"])
    _report(9, "Serre-B2 quasi-primitivity at its file bound", ok, time.monotonic() - start, 5)


def test_criterion_10_hopf_laws_on_generators_at_bound_12():
    start = time.monotonic()
    expected = {
        PRESENTATIONS / "serre_b2.json": {"e1": "-e1", "e2": "-e2"},
        FIXTURES / "divided_powers.json": {"x": "-x", "y": "-y + x^2", "z": "-z + 2*x*y - x^3"},
    }
    ok = True
    for path, antipodes in expected.items():
        code, report, _ = run(["hopf-check", str(path), "--bound", "12"])
        ok &= code == 0 and report["bound"] == 12
        ok &= len(report["verdicts"]) == 4 and all(v["pass"] for v in report["verdicts"])
        ok &= {e["generator"]: e["value"] for e in report["antipodes"]} == antipodes
    _report(10, "Hopf laws of Serre-B2 and divided powers at D = 12", ok,
            time.monotonic() - start, 2)


def test_criterion_11_free2_verification_at_bound_10():
    start = time.monotonic()
    code, report, _ = run(["verify", str(FIXTURES / "free2.json"), "--bound", "10"])
    ok = code == 0 and report["bound"] == 10
    ok &= len(report["verdicts"]) == 5 and all(v["pass"] for v in report["verdicts"])
    ok &= report["hilbert"] == [2 ** n for n in range(11)]
    _report(11, "free2 verification at D = 10", ok, time.monotonic() - start, 2)


def test_criterion_12_longest_lyndon_bracket_under_the_letter_cap():
    # [x2 x1^199] = sum_k (-1)^k C(199, k) x1^k x2 x1^(199-k): 200 terms
    start = time.monotonic()
    code, report, _ = run(["lyndon", "bracket", "x2" + " x1" * 199, "--gens", "x1,x2"])
    ok = code == 0
    pair = Alphabet([("x1", 1), ("x2", 1)])
    bracket = parse_polynomial(report["bracket"], pair, QQ)
    ok &= bracket == Polynomial(pair, QQ, {
        (0,) * k + (1,) + (0,) * (199 - k): (-1) ** k * math.comb(199, k) for k in range(200)})
    ok &= len(bracket.coeffs) == 200
    _report(12, "bracket of x2 x1^199 under the 200-letter cap", ok, time.monotonic() - start, 3)
