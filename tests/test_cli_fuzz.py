"""Any presentation file and argv end with exit 0, 1 or 2 and a message,
never a traceback: the fixtures under varied field and bound run under varied
command lines, most of them valid and the rest with one change (mutated
relation or coproduct strings, a bad degree, field, bound or option, one JSON
value replaced by a value of another JSON type, or all generator degrees drawn
afresh).  Every generated bound, degree and exponent is at most 4, so each
run is small."""

import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hopfpbw.cli import run

FIXTURES = {p.name: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))}

_FAULTS = ("relation", "image", "degree", "file field", "file bound", "no bound",
           "argv field", "argv bound", "option", "regrade", "json type")
_TOKEN = re.compile(r"\w+|\S")
_POOL = ("1", "2", "3", "4", "0", "-", "+", "*", "/", "^", "#", "(", ")", "q9", "1/2", "1#1")
_COMMANDS = ("verify", "quasi-lie", "gb", "basis", "hilbert", "hopf-check", "ihoe",
             "lie-gens", "heights")
_FILE_FIELDS = ("Q", {"Fp": 2}, {"Fp": 3}, {"Fp": 7}, "Fp:5")
_ARGV_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:7")
_ODD = ("2", 1.5, True, None, [], {}, 0, -1)
_JSON_VALUES = ("x", 3, 1.5, True, None, [], {}, ["x"], {"x": "x"})


def _json_type(value):
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}.get(type(value), "null")


@st.composite
def mutated(draw, text, names):
    """``text`` cut into tokens, with one to three deleted, repeated or
    replaced by a generator name or a token of the pool, joined by spaces so
    that no two integers merge into a larger one."""
    tokens = _TOKEN.findall(text)
    pool = st.sampled_from(list(names) + list(_POOL))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(("delete", "repeat", "replace", "insert")))
        if op == "insert" or i == len(tokens):
            tokens.insert(i, draw(pool))
        elif op == "delete":
            del tokens[i]
        elif op == "repeat":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = draw(pool)
    return " ".join(tokens)


@st.composite
def cases(draw, path, json_path):
    """A presentation and an argv, valid or with one change of ``_FAULTS``."""
    # the JSON-type fault has the most targets, so it is drawn three times as often
    fault = draw(st.sampled_from(("none",) * 12 + _FAULTS + ("json type",) * 2))
    base = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    names = [g["name"] for g in base["generators"]]
    relations = list(base.get("relations", []))
    images = dict(base.get("comultiplication", {}))
    if fault == "relation" and relations:
        i = draw(st.integers(0, len(relations) - 1))
        relations[i] = draw(mutated(relations[i], names))
    if fault == "image":
        name = draw(st.sampled_from(names + ["w"]))
        images[name] = draw(mutated(images.get(name, f"1#{names[0]} + {names[0]}#1"), names))
    degrees = [min(g["degree"], 4) for g in base["generators"]]
    if fault == "regrade":
        degrees = [draw(st.integers(1, 4)) for _ in degrees]
    if fault == "degree":
        degrees[draw(st.integers(0, len(degrees) - 1))] = draw(st.sampled_from(_ODD))
    pres = {
        "field": draw(st.sampled_from(_FILE_FIELDS)),
        "generators": [{"name": n, "degree": d} for n, d in zip(names, degrees)],
        "relations": relations,
        "comultiplication": images,
    }
    if fault == "file field":
        pres["field"] = draw(st.sampled_from(({"Fp": 4}, {"Fp": "5"}, "R", {"Fp": 7, "x": 1})))

    command = draw(st.sampled_from(_COMMANDS))
    argv = [command, str(path)]
    bound = draw(st.sampled_from((4, 4, 3, 2, 1)))
    if fault == "file bound":
        pres["degree_bound"] = draw(st.sampled_from(_ODD))
    elif fault != "no bound" and draw(st.booleans()):
        pres["degree_bound"] = bound
    elif fault != "no bound":
        argv += ["--bound", str(bound if fault != "argv bound" else draw(st.integers(-1, 0)))]
    if fault == "argv field" or draw(st.booleans()):
        choices = ("Fp:4", "Fp:", "F", "Fp:x") if fault == "argv field" else _ARGV_FIELDS
        argv += ["--field", draw(st.sampled_from(choices))]
    if command == "basis":
        argv += ["--degree", str(draw(st.integers(0, bound))),
                 "--kind", draw(st.sampled_from(("irreducible", "B", "C")))]
    if fault == "option":
        argv.append(draw(st.sampled_from(("--bogus", "--bound=x", "--kind=D", "--degree=-1"))))
    elif draw(st.booleans()):
        argv += draw(st.sampled_from((["--quiet"], ["--json", str(json_path)])))
    if fault == "json type":
        slots = [(pres, key) for key in pres]
        slots += [(g, key) for g in pres["generators"] for key in g]
        slots += [(relations, i) for i in range(len(relations))]
        slots += [(images, name) for name in images]
        container, key = draw(st.sampled_from(slots))
        kind = _json_type(container[key])
        container[key] = draw(st.sampled_from([v for v in _JSON_VALUES if _json_type(v) != kind]))
    return pres, argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_ends_with_an_exit_status_and_a_message(tmp_path_factory, data):
    work = tmp_path_factory.getbasetemp() / "cli_fuzz"
    work.mkdir(exist_ok=True)
    path = work / "presentation.json"
    pres, argv = data.draw(cases(path, work / "report.json"))
    path.write_text(json.dumps(pres), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, report, text = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert report is None and stderr.getvalue()
    else:
        assert report is not None and text
