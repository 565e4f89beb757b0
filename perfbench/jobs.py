"""Seeded inputs, job lists and correctness checks for the hopfpbw benchmark.

A workload is a list of CLI jobs.  ``make_jobs`` writes the workload's
presentation files for one seed and returns the jobs; each job carries a
check that compares its report with values derived independently of the
library (closed-form Hilbert series, hand-derived antipodes, brute-force word
counts) and, where cheap, with the dense-linear-algebra oracle of the test
suite.

The seed changes every input file: generator names, relation order and
scaling, the prime of the Serre-B2 job, the divided-powers parameters and the
Sklyanin draws.  It does not change the shape of the work: renaming and
rescaling give isomorphic presentations, and the parameter draws stay inside
families whose Groebner bases have the same leading words.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("pbw-words", "coproducts", "completion")
DEFAULT_SEED = 0

# Primes >= 5, where the Serre-B2 relations keep their meaning (char 2 and 3
# kill coefficients of the relations).
B2_PRIMES = (5, 7, 11, 13)
SKLYANIN_PRIME = 32003

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Job:
    name: str
    argv: list
    path: Path
    bound: int
    check: Callable  # (path, exit_code, report, text) -> list of problems


# -- seeded presentation files ------------------------------------------------


def _fixture(name):
    path = ROOT / "fixtures" / name
    if not path.is_file():
        raise FileNotFoundError(f"missing fixture {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _serre(name):
    return json.loads((HERE / "presentations" / name).read_text(encoding="utf-8"))


def _fresh_names(rng, count):
    letters = rng.sample("abcdfghkmnpqrstuvw", count)
    return [f"{letter}{rng.randint(0, 99)}" for letter in letters]


def _rename(pres, names):
    """Rename the generators in declaration order, in relations and images."""
    old = [g["name"] for g in pres["generators"]]
    table = dict(zip(old, names))

    def sub(text):
        return _NAME.sub(lambda m: table.get(m.group(0), m.group(0)), text)

    out = dict(pres)
    out["generators"] = [{"name": table[g["name"]], "degree": g["degree"]}
                         for g in pres["generators"]]
    out["relations"] = [sub(r) for r in pres.get("relations", [])]
    if "comultiplication" in pres:
        out["comultiplication"] = {table[k]: sub(v)
                                   for k, v in pres["comultiplication"].items()}
    return out


def _scaled(rel, k):
    if k == 1:
        return rel
    return f"-({rel})" if k == -1 else f"{k}*({rel})"


def _disguise(pres, rng):
    """Rename, rescale and reorder: an isomorphic presentation."""
    out = _rename(pres, _fresh_names(rng, len(pres["generators"])))
    rels = [_scaled(r, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
            for r in out["relations"]]
    rng.shuffle(rels)
    out["relations"] = rels
    out.pop("degree_bound", None)
    return out


def _signed_sum(terms):
    """Render ``[(coeff, body)]`` with ``- c*w`` for negative coefficients;
    the grammar rejects ``+ -c*w``."""
    out = ""
    for coeff, body in terms:
        mag = abs(coeff)
        piece = body if mag == 1 else f"{mag}*{body}"
        if not out:
            out = piece if coeff > 0 else f"-{piece}"
        else:
            out += f" + {piece}" if coeff > 0 else f" - {piece}"
    return out


def sklyanin_draw(rng):
    """Nonzero integers with pairwise distinct absolute values.  Such draws
    avoid the degenerate locus ``a^3 = b^3 = c^3`` over Q and over F_p with
    p = 2 mod 3, and complete slowly; ``a = b`` would finish at once."""
    mags = rng.sample(range(1, 10), 3)
    return tuple(m * rng.choice((-1, 1)) for m in mags)


def sklyanin(draw, field, names):
    a, b, c = draw
    x, y, z = names
    rels = [
        _signed_sum([(a, f"{y}*{z}"), (b, f"{z}*{y}"), (c, f"{x}^2")]),
        _signed_sum([(a, f"{z}*{x}"), (b, f"{x}*{z}"), (c, f"{y}^2")]),
        _signed_sum([(a, f"{x}*{y}"), (b, f"{y}*{x}"), (c, f"{z}^2")]),
    ]
    return {"field": field,
            "generators": [{"name": n, "degree": 1} for n in names],
            "relations": rels}


def _nonzero_rational(rng):
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 5))


def divided_powers(lam, mu, names):
    """Commuting x, y, z of degrees 1, 2, 3 with
    Delta(y) = 1#y + y#1 + lam x#x and Delta(z) = 1#z + z#1 + mu (x#y + y#x)."""
    x, y, z = names
    return {
        "field": "Q",
        "generators": [{"name": x, "degree": 1}, {"name": y, "degree": 2},
                       {"name": z, "degree": 3}],
        "relations": [f"{y}*{x} - {x}*{y}", f"{z}*{x} - {x}*{z}", f"{z}*{y} - {y}*{z}"],
        "comultiplication": {
            y: _signed_sum([(1, f"1#{y}"), (1, f"{y}#1"), (lam, f"{x}#{x}")]),
            z: _signed_sum([(1, f"1#{z}"), (1, f"{z}#1"), (mu, f"{x}#{y}"), (mu, f"{y}#{x}")]),
        },
    }


# -- independent expectations ---------------------------------------------------


def _helpers():
    """The test suite's brute-force oracles, used read-only."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import helpers

    return helpers


def weighted_counts(degrees, bound):
    h = _helpers()
    return [h.weighted_monomial_count(degrees, n) for n in range(bound + 1)]


def lyndon_count(degrees, max_degree):
    """Number of Lyndon words of degree <= ``max_degree`` over letters of the
    given degrees: aperiodic words counted once per rotation class."""
    total = Fraction(0)

    def extend(w, deg):
        nonlocal total
        if w and all(w != w[i:] + w[:i] for i in range(1, len(w))):
            total += Fraction(1, len(w))
        for i, d in enumerate(degrees):
            if deg + d <= max_degree:
                extend(w + (i,), deg + d)

    extend((), 0)
    return int(total)


def parse_rendered(text):
    """A rendered polynomial as ``{tuple of names: Fraction}``."""
    out = {}
    for sign, body in re.findall(r"(^-|\s[+-]\s|^)([^\s]+)", text):
        coeff = Fraction(-1 if sign.strip() == "-" else 1)
        word = []
        for piece in body.split("*"):
            if piece[0].isdigit():
                coeff *= Fraction(piece)
            else:
                name, _, power = piece.partition("^")
                word.extend([name] * int(power or 1))
        out[tuple(word)] = out.get(tuple(word), 0) + coeff
    return out


def normal_word_counts(leading_words, degrees, bound):
    """Words of each degree <= ``bound`` with no factor in ``leading_words``."""
    counts = [0] * (bound + 1)
    lead = set(leading_words)
    longest = max((len(w) for w in lead), default=0)

    def extend(w, deg):
        counts[deg] += 1
        for name, d in degrees.items():
            if deg + d > bound:
                continue
            v = w + (name,)
            if any(v[-k:] in lead for k in range(1, min(longest, len(v)) + 1)):
                continue
            extend(v, deg + d)

    extend((), 0)
    return counts


def _oracle_dims(path, top):
    """Quotient dimensions for degrees <= ``top`` by dense linear algebra over
    the input relations (rational presentations only)."""
    from hopfpbw import cli

    alphabet, _field, relations, _images, _digest, _bound = cli.parse_presentation(path)
    h = _helpers()
    return [h.ideal_dimension_oracle(alphabet, relations, n) for n in range(top + 1)]


# -- checks -----------------------------------------------------------------


def _verdicts_pass(code, report):
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if report is None:
        return ["no report"]
    bad = [v["name"] for v in report["verdicts"] if not v["pass"]]
    return [f"verdict failed: {name}" for name in bad]


def check_verify(hilbert, gamma_degrees, oracle_top=None):
    """``hilbert`` and ``gamma_degrees`` are called at check time, after the
    timed passes, so that building a job list imports nothing."""
    def check(path, code, report, text):
        problems = _verdicts_pass(code, report)
        if problems:
            return problems
        want = hilbert()
        if report["hilbert"] != want:
            problems.append(f"hilbert {report['hilbert']} != closed form {want}")
        got, want = sorted(e["degree"] for e in report["gamma"]), sorted(gamma_degrees())
        if got != want:
            problems.append(f"gamma degrees {got} != {want}")
        if oracle_top is not None:
            oracle = _oracle_dims(path, oracle_top)
            if report["hilbert"][:oracle_top + 1] != oracle:
                problems.append(f"hilbert disagrees with the ideal oracle {oracle}")
        return problems
    return check


def check_antipodes(expected):
    """``expected`` maps generator names to ``{word: Fraction}``."""
    def check(path, code, report, text):
        problems = _verdicts_pass(code, report)
        if problems:
            return problems
        got = {e["generator"]: parse_rendered(e["value"]) for e in report.get("antipodes", [])}
        for name, value in expected.items():
            if got.get(name) != value:
                problems.append(f"S({name}) = {got.get(name)} != {value}")
        return problems
    return check


def check_lie_gens(count):
    def check(path, code, report, text):
        problems = _verdicts_pass(code, report)
        if problems:
            return problems
        entries = report.get("lie_generators", [])
        if len(entries) != count:
            problems.append(f"{len(entries)} Lie generators, expected {count}")
        if not all(e["lie"] for e in entries):
            problems.append("a recovered generator is flagged not Lie")
        return problems
    return check


def check_sklyanin_gb(degrees, bound, oracle_top=None):
    """Non-degenerate Sklyanin algebras have Hilbert series 1/(1-t)^3
    (Artin-Tate-Van den Bergh): degree n has dimension (n+1)(n+2)/2."""
    want = [(n + 1) * (n + 2) // 2 for n in range(bound + 1)]

    def check(path, code, report, text):
        problems = _verdicts_pass(code, report)
        if problems:
            return problems
        leading = [_leading(e) for e in report["elements"]]
        dims = normal_word_counts(leading, degrees, bound)
        if dims != want:
            problems.append(f"dimensions {dims} != (n+1)(n+2)/2 {want}")
        if oracle_top is not None and _oracle_dims(path, oracle_top) != want[:oracle_top + 1]:
            problems.append("the ideal oracle disagrees with (n+1)(n+2)/2")
        return problems
    return check


def _leading(rendered):
    """Leading word of a rendered monic element: its first term."""
    (word,) = parse_rendered(rendered.split(" ")[0]).keys()
    return word


# -- workloads ----------------------------------------------------------------


def write_job(workdir, name, command, pres, bound, check):
    """Write ``pres`` to ``workdir/name.json``; the job runs ``command`` on it."""
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(pres, indent=2) + "\n", encoding="utf-8")
    return Job(name=name, argv=[command, str(path), "--bound", str(bound)],
               path=path, bound=bound, check=check)


def _pbw_words(rng, workdir):
    heis = _disguise(_fixture("heisenberg.json"), rng)
    b2 = _disguise(_serre("serre_b2.json"), rng)
    b2["field"] = f"Fp:{rng.choice(B2_PRIMES)}"
    # U(Heisenberg) and U(n+ of so5): PBW generators of degrees 1,1,2 and 1,1,2,3.
    heis_check = check_verify(lambda: weighted_counts([1, 1, 2], 14), lambda: [1, 1, 2],
                              oracle_top=5)
    b2_check = check_verify(lambda: weighted_counts([1, 1, 2, 3], 16), lambda: [1, 1, 2, 3])
    return [
        write_job(workdir, "verify-heisenberg", "verify", heis, 14, heis_check),
        write_job(workdir, "verify-serre-b2", "verify", b2, 16, b2_check),
    ]


def _lyndon_degrees(letters, max_len):
    """Degrees of all Lyndon words of length <= ``max_len`` (Witt formula)."""
    h = _helpers()
    return [n for n in range(1, max_len + 1) for _ in range(h.necklace_count(letters, n))]


def _coproducts(rng, workdir):
    a2 = _disguise(_serre("serre_a2.json"), rng)
    a2_check = check_antipodes({g["name"]: {(g["name"],): Fraction(-1)}
                                for g in a2["generators"]})
    lam, mu = _nonzero_rational(rng), _nonzero_rational(rng)
    x, y, z = names = _fresh_names(rng, 3)
    # S is forced by m(S # id) Delta = 0 in positive degree, in the commutative quotient.
    dp_check = check_antipodes({
        x: {(x,): Fraction(-1)},
        y: {(y,): Fraction(-1), (x, x): lam},
        z: {(z,): Fraction(-1), (x, y): 2 * mu, (x, x, x): -lam * mu},
    })
    free2 = _disguise(_fixture("free2.json"), rng)
    free2_check = check_verify(lambda: [2 ** n for n in range(9)], lambda: _lyndon_degrees(2, 8))
    heis = _disguise(_fixture("heisenberg.json"), rng)
    # Every reducible Lyndon word gives one generator; only the 3 letters stay irreducible.
    lie_check = check_lie_gens(lyndon_count([1, 1, 2], 7) - 3)
    return [
        write_job(workdir, "hopf-check-serre-a2", "hopf-check", a2, 8, a2_check),
        write_job(workdir, "hopf-check-divided-powers", "hopf-check",
                  divided_powers(lam, mu, names), 8, dp_check),
        write_job(workdir, "verify-free2", "verify", free2, 8, free2_check),
        write_job(workdir, "lie-gens-heisenberg", "lie-gens", heis, 7, lie_check),
    ]


def _completion(rng, workdir):
    out = []
    for name, field, oracle_top in (("gb-sklyanin-q", "Q", 4),
                                    ("gb-sklyanin-fp", f"Fp:{SKLYANIN_PRIME}", None)):
        names = _fresh_names(rng, 3)
        check = check_sklyanin_gb({n: 1 for n in names}, 9, oracle_top=oracle_top)
        out.append(write_job(workdir, name, "gb", sklyanin(sklyanin_draw(rng), field, names),
                             9, check))
    return out


_JOB_LISTS = {"pbw-words": _pbw_words, "coproducts": _coproducts, "completion": _completion}


def make_jobs(workload, seed, workdir):
    """Write the workload's presentation files for ``seed`` into ``workdir``
    and return its jobs, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    return _JOB_LISTS[workload](rng, workdir)
