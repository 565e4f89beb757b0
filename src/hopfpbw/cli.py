"""Command-line interface: presentation files, subcommands, reports.

Presentation files are UTF-8 JSON with fields ``field`` ("Q" or {"Fp": p}),
``generators`` (list of {name, degree} in declaration order), ``relations``
(expression strings), optional ``comultiplication`` (name -> tensor
expression; omitted generators are primitive) and ``degree_bound``.

Every run emits a deterministic text report and, with ``--json PATH``, a
machine report with fields {command, bound, presentation, field, verdicts,
gamma, hilbert, tower} plus command-specific extras.  Exit status: 0 when
every verdict passes, 1 when a verdict fails, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .coalg import Antipode, CheckReport, check_coassoc_counit, check_stability
from .expressions import (
    ExpressionError,
    parse_polynomial,
    parse_tensor,
    render_polynomial,
    render_tensor,
    render_word,
)
from .fields import PrimeField, QQ
from .poly import Polynomial
from .rewrite import OutOfCertifiedRange, RelationError, WholeAlgebraIdeal, admissible_words
from .structure import (
    Presentation,
    compute_heights,
    extract_ihoe,
    hilbert_and_gk,
    recover_lie_generators,
    render_pbw_value,
    verify_quasi_lie,
    verify_structure_theorem,
)
from .word import (
    Alphabet,
    is_lyndon,
    lyndon_decomposition,
)
from . import poly as poly_mod


class InputError(ValueError):
    """Input or usage problem: exit status 2."""


def _parse_field(spec):
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not isinstance(p, int):
            raise InputError("field Fp modulus must be an integer")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if isinstance(spec, str) and spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise InputError(f"malformed field {spec!r}") from None
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError(f"unknown field {spec!r} (expected Q or Fp:<prime>)")


def _field_name(field) -> str:
    return "Q" if field.char == 0 else f"Fp:{field.char}"


def parse_presentation(path, field_override=None, bound=None):
    """Load and validate a presentation file.  Relations are parsed under
    ``bound``, else the file's ``degree_bound``, so a power above it is
    refused before it is built; the image of a generator ``x`` is parsed
    under ``max(bound, deg x)``, as a leg power above that already fails
    triangularity.  The rest of the checks on a relation run when the
    ``Presentation`` is built.

    Returns ``(alphabet, field, relations, images, digest, bound_from_file)``;
    the digest is a stable hash of the canonicalized content.
    """
    return _parse_presentation(path, field_override, bound, require_bound=False)


def _parse_presentation(path, field_override, bound, require_bound):
    """``parse_presentation``; with ``require_bound``, a file without a bound
    is refused before any expression in it is parsed, as an unbounded power
    costs time and memory."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be an object")

    field = field_override or _parse_field(raw.get("field", "Q"))
    gens = raw.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputError(f"{path}: 'generators' must be a nonempty list")
    pairs = []
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "name" not in g or "degree" not in g:
            raise InputError(f"{path}: generator {i + 1} needs 'name' and 'degree'")
        if not _is_positive_int(g["degree"]):
            raise InputError(f"{path}: generator {g.get('name')!r}: degree must be positive")
        pairs.append((g["name"], g["degree"]))
    try:
        alphabet = Alphabet(pairs)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None

    file_bound = raw.get("degree_bound")
    if file_bound is not None and not _is_positive_int(file_bound):
        raise InputError(f"{path}: degree_bound must be a positive integer")
    if bound is None:
        bound = file_bound
    if bound is None and require_bound:
        raise InputError("a degree bound is required (file degree_bound or --bound)")

    relations = []
    for i, src in enumerate(raw.get("relations", [])):
        try:
            rel = parse_polynomial(src, alphabet, field, bound)
        except ExpressionError as exc:
            raise InputError(f"{path}: relation {i + 1}: {exc}") from None
        relations.append(rel)

    images = {}
    comul = raw.get("comultiplication", {}) or {}
    if not isinstance(comul, dict):
        raise InputError(f"{path}: 'comultiplication' must be an object")
    for name in sorted(comul):
        if name not in alphabet.index:
            raise InputError(f"{path}: comultiplication names unknown generator {name!r}")
        image_bound = None if bound is None else max(bound, alphabet.degrees[alphabet.index[name]])
        try:
            images[name] = parse_tensor(comul[name], alphabet, field, image_bound)
        except ExpressionError as exc:
            raise InputError(f"{path}: comultiplication of {name!r}: {exc}") from None

    canonical = {
        "field": _field_name(field),
        "generators": [{"name": n, "degree": d} for n, d in pairs],
        "relations": [render_polynomial(r) for r in relations],
        "comultiplication": {n: render_tensor(images[n]) for n in sorted(images)},
    }
    digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode("utf-8")).hexdigest()[:16]
    return alphabet, field, relations, images, digest, file_bound


def _is_positive_int(value) -> bool:
    # JSON true and false load as bool, which is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _presentation_from_args(args):
    override = _parse_field(args.field) if args.field else None
    alphabet, field, relations, images, digest, file_bound = _parse_presentation(
        args.file, override, args.bound, require_bound=True)
    bound = args.bound if args.bound is not None else file_bound
    try:
        pres = Presentation(alphabet, field, relations, images, bound)
    except RelationError as exc:
        raise InputError(f"{args.file}: {exc}") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return pres, digest


# -- report assembly ----------------------------------------------------------


def _new_report(command, bound, digest, field) -> dict:
    return {
        "command": command,
        "bound": bound,
        "presentation": digest,
        "field": field,
        "verdicts": [],
        "gamma": [],
        "hilbert": [],
        "tower": [],
    }


def _add_verdict(report, check: CheckReport):
    report["verdicts"].append({
        "name": check.name,
        "pass": bool(check.ok),
        "detail": "; ".join(check.details),
    })


def _gamma_json(alphabet, gamma):
    return [{"word": render_word(alphabet, u), "degree": alphabet.degree(u)} for u in gamma]


def _render_text(report) -> str:
    lines = [f"command: {report['command']}"]
    if report["bound"] is not None:
        lines.append(f"bound: {report['bound']}")
    if report["presentation"]:
        lines.append(f"presentation: {report['presentation']}")
    if report["field"]:
        lines.append(f"field: {report['field']}")
    for v in report["verdicts"]:
        mark = "PASS" if v["pass"] else "FAIL"
        line = f"verdict: {mark} {v['name']}"
        if v["detail"]:
            line += f" | {v['detail']}"
        lines.append(line)
    if report["gamma"]:
        lines.append("gamma: " + ", ".join(e["word"] for e in report["gamma"]))
    if report["hilbert"]:
        lines.append("hilbert: " + " ".join(str(n) for n in report["hilbert"]))
    for key in ("finiteness", "gk"):
        if report.get(key):
            lines.append(f"{key}: {report[key]}")
    for level in report["tower"]:
        lines.append(f"tower: {level['name']} = {level['generator']} (degree {level['degree']})")
        for entry in level["derivation"]:
            lines.append(f"  delta: {level['name']} acts on {entry['on']} -> {entry['value']}")
    for key in ("elements", "words", "decomposition", "bracket", "lyndon"):
        if key in report:
            value = report[key]
            if isinstance(value, list):
                lines.append(f"{key}: " + ("; ".join(value) if value else "(none)"))
            else:
                lines.append(f"{key}: {value}")
    for entry in report.get("heights", []):
        h = entry["height"]
        shown = h if h is not None else f"not observed <= {report['bound']}"
        lines.append(f"height: {entry['word']} -> {shown}")
    for entry in report.get("lie_generators", []):
        flag = "lie" if entry["lie"] else "NOT lie"
        lines.append(f"lie-gen: {entry['word']} -> {entry['polynomial']} [{flag}]")
    for entry in report.get("antipodes", []):
        lines.append(f"antipode: S({entry['generator']}) = {entry['value']}")
    return "\n".join(lines) + "\n"


# -- command handlers ----------------------------------------------------------


def _cmd_verify(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("verify", pres.bound, digest, _field_name(pres.field))
    result = verify_structure_theorem(pres)
    for check in result.verdicts():
        _add_verdict(report, check)
    if result.hypotheses_ok:
        report["gamma"] = _gamma_json(pres.alphabet, result.gamma)
        report["hilbert"] = list(result.dims)
        report["finiteness"] = result.finiteness
    return report


def _cmd_quasi_lie(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("quasi-lie", pres.bound, digest, _field_name(pres.field))
    for check in verify_quasi_lie(pres):
        _add_verdict(report, check)
    return report


def _cmd_gb(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("gb", pres.bound, digest, _field_name(pres.field))
    gb = pres.groebner()
    report["elements"] = [render_polynomial(g) for g in gb.elements]
    _add_verdict(report, CheckReport(
        f"groebner basis complete to degree {pres.bound}", True,
        [f"{len(gb.elements)} elements"]))
    return report


def _cmd_basis(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("basis", pres.bound, digest, _field_name(pres.field))
    if args.degree is None:
        raise InputError("--degree is required")
    if args.degree < 0 or args.degree > pres.bound:
        raise InputError(f"--degree must be between 0 and the bound {pres.bound}")
    gb = pres.groebner()
    words = admissible_words(gb, args.degree, args.kind)
    report["words"] = [render_word(pres.alphabet, w) for w in words]
    _add_verdict(report, CheckReport(
        f"{args.kind} words of degree {args.degree}", True, [f"{len(words)} words"]))
    return report


def _cmd_hilbert(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("hilbert", pres.bound, digest, _field_name(pres.field))
    result = verify_structure_theorem(pres)
    if not result.hypotheses_ok:
        for check in result.verdicts():
            _add_verdict(report, check)
        return report
    coeffs, identity, gk = hilbert_and_gk(result)
    report["gamma"] = _gamma_json(pres.alphabet, result.gamma)
    report["hilbert"] = coeffs
    report["finiteness"] = result.finiteness
    report["gk"] = gk["detail"]
    _add_verdict(report, identity)
    return report


def _cmd_hopf_check(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("hopf-check", pres.bound, digest, _field_name(pres.field))
    comul, tri, gb, stab = pres.hypotheses()
    law = check_coassoc_counit(comul, gb, pres.bound)
    for check in (tri, stab, law):
        _add_verdict(report, check)
    if tri.ok and stab.ok and law.ok:
        antipode = Antipode(comul, gb, precheck=False)
        _add_verdict(report, antipode.convolution_check(pres.bound))
        report["antipodes"] = [
            {"generator": name, "value": render_polynomial(antipode.of(
                Polynomial.generator(pres.alphabet, pres.field, name)))}
            for name in pres.alphabet.names
        ]
    else:
        reason = ("coassociativity, counit or stability failed" if not (stab.ok and law.ok)
                  else "the comultiplication is not triangular")
        _add_verdict(report, CheckReport("antipode law", False, [f"refused: {reason}"]))
    return report


def _cmd_ihoe(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("ihoe", pres.bound, digest, _field_name(pres.field))
    result = verify_structure_theorem(pres)
    for check in result.verdicts():
        _add_verdict(report, check)
    if not result.passed:
        _add_verdict(report, CheckReport("tower extraction", False,
                                         ["refused: structure verification did not pass"]))
        return report
    if result.gk_candidate is None:
        _add_verdict(report, CheckReport(
            "tower extraction", False,
            [f"refused: {result.finiteness}; not candidate-finite"]))
        return report
    try:
        tower = extract_ihoe(pres, result)
    except (OutOfCertifiedRange, ValueError) as exc:
        _add_verdict(report, CheckReport("tower extraction", False, [str(exc)]))
        return report
    report["gamma"] = _gamma_json(pres.alphabet, result.gamma)
    report["finiteness"] = result.finiteness
    _add_verdict(report, tower.closure)
    levels = []
    for i, (word, degree, value) in enumerate(tower.generators):
        entry = {
            "name": f"z{i + 1}",
            "generator": render_word(pres.alphabet, word),
            "degree": degree,
            "definition": render_polynomial(value),
            "derivation": [],
        }
        for j in range(i):
            terms = tower.derivations[(i + 1, j + 1)]
            entry["derivation"].append({
                "on": f"z{j + 1}",
                "value": render_pbw_value(terms, pres.field),
            })
        levels.append(entry)
    report["tower"] = levels
    return report


def _cmd_lie_gens(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("lie-gens", pres.bound, digest, _field_name(pres.field))
    if pres.field.char != 0:
        raise InputError("lie-gens requires characteristic 0")
    if not pres.comultiplication().is_standard():
        raise InputError("lie-gens requires the standard (all-primitive) comultiplication")
    gb = pres.groebner()
    stab = check_stability(pres.comultiplication(), gb)
    _add_verdict(report, stab)
    if not stab.ok:
        return report
    entries = recover_lie_generators(pres)
    report["lie_generators"] = [
        {"word": render_word(pres.alphabet, v),
         "polynomial": render_polynomial(g),
         "lie": bool(flag)}
        for v, g, flag in entries
    ]
    all_lie = all(e["lie"] for e in report["lie_generators"])
    detail = (f"ideal is generated by Lie polynomials up to degree {pres.bound}"
              if all_lie else "a recovered generator is not primitive")
    _add_verdict(report, CheckReport("recovered generators are Lie polynomials", all_lie, [detail]))
    return report


def _cmd_heights(args):
    pres, digest = _presentation_from_args(args)
    report = _new_report("heights", pres.bound, digest, _field_name(pres.field))
    data, verdict = compute_heights(pres)
    report["heights"] = [
        {"word": render_word(pres.alphabet, u), "height": data.heights[u]}
        for u in data.lyndon
    ]
    _add_verdict(report, verdict)
    return report


def _parse_gens_spec(spec: str):
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            name, _, deg = chunk.partition(":")
            try:
                pairs.append((name.strip(), int(deg)))
            except ValueError:
                raise InputError(f"malformed generator spec {chunk!r}") from None
        else:
            pairs.append((chunk, 1))
    if not pairs:
        raise InputError("empty --gens specification")
    try:
        return Alphabet(pairs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_word_arg(alphabet, text: str):
    names = [p for p in text.replace("*", " ").split() if p]
    if not names:
        raise InputError("empty word")
    try:
        return alphabet.word(*names)
    except KeyError as exc:
        raise InputError(str(exc.args[0])) from None


def _cmd_lyndon(args):
    alphabet = _parse_gens_spec(args.gens)
    w = _parse_word_arg(alphabet, args.word)
    report = _new_report(f"lyndon {args.action}", None, "", "Q")
    if args.action == "decompose":
        factors = lyndon_decomposition(w)
        report["decomposition"] = [render_word(alphabet, f) for f in factors]
        _add_verdict(report, CheckReport("lyndon decomposition", True,
                                         [f"{len(factors)} factors"]))
    elif args.action == "check":
        answer = is_lyndon(w)
        report["lyndon"] = "yes" if answer else "no"
        _add_verdict(report, CheckReport("lyndon check", True,
                                         ["lyndon" if answer else "not lyndon"]))
    else:  # bracket
        bracket = poly_mod.standard_bracket(alphabet, w, QQ)
        report["bracket"] = render_polynomial(bracket)
        _add_verdict(report, CheckReport("standard bracketing", True, []))
    return report


_HANDLERS = {
    "verify": _cmd_verify,
    "quasi-lie": _cmd_quasi_lie,
    "gb": _cmd_gb,
    "basis": _cmd_basis,
    "hilbert": _cmd_hilbert,
    "hopf-check": _cmd_hopf_check,
    "ihoe": _cmd_ihoe,
    "lie-gens": _cmd_lie_gens,
    "heights": _cmd_heights,
    "lyndon": _cmd_lyndon,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfpbw",
        description="Exact structure certificates for graded algebra presentations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_command(name, help_text, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="presentation JSON file")
        p.add_argument("--bound", type=int, default=None, help="degree bound (overrides the file)")
        p.add_argument("--field", default=None, help="field override: Q or Fp:<prime>")
        p.add_argument("--json", dest="json_path", default=None, help="write the machine report here")
        p.add_argument("--quiet", action="store_true", help="suppress the text report")
        if extra:
            extra(p)
        return p

    add_file_command("verify", "triangularity, stability and the PBW-generator conditions")
    add_file_command("quasi-lie", "the quasi-primitivity certificates for the ideal")
    add_file_command("gb", "the truncated Groebner basis")

    def basis_extra(p):
        p.add_argument("--degree", type=int, default=None, help="degree to enumerate")
        p.add_argument("--kind", choices=("irreducible", "B", "C"), default="irreducible")

    add_file_command("basis", "irreducible / ordered-monomial words per degree", basis_extra)
    add_file_command("hilbert", "dimensions per degree and the growth verdict")
    add_file_command("hopf-check", "coassociativity, counit and the antipode")
    add_file_command("ihoe", "the iterated Ore-extension tower")
    add_file_command("lie-gens", "Lie generators of the ideal")
    add_file_command("heights", "observed heights of the PBW generator words")

    lyndon = sub.add_parser("lyndon", help="word-level queries over a free alphabet")
    lyndon.add_argument("action", choices=("decompose", "check", "bracket"))
    lyndon.add_argument("word", help="word, e.g. 'x2*x2*x1' or 'x2 x2 x1'")
    lyndon.add_argument("--gens", required=True,
                        help="comma-separated generators, e.g. x1,x2 or x1:1,x3:2")
    lyndon.add_argument("--json", dest="json_path", default=None)
    lyndon.add_argument("--quiet", action="store_true")
    return parser


def run(argv):
    """Execute a command line; returns (exit_code, report_dict, text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), None, ""
    try:
        report = _HANDLERS[args.command](args)
    except (InputError, ExpressionError, WholeAlgebraIdeal, OutOfCertifiedRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None, ""
    text = _render_text(report)
    if getattr(args, "json_path", None):
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_path}: {exc}", file=sys.stderr)
            return 2, None, ""
    exit_code = 0 if all(v["pass"] for v in report["verdicts"]) else 1
    return exit_code, report, text


def main():
    argv = sys.argv[1:]
    code, report, text = run(argv)
    # A report means argv parsed, so parsing it again cannot fail.
    if report is not None and not _build_parser().parse_args(argv).quiet:
        sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
