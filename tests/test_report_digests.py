"""Reports stay byte-identical: a corpus of CLI runs on the fixtures, and of
``lyndon`` queries on a fixed list of words, each reduced to the SHA-256 of
its exit code, JSON report and text report, is compared with the digests in
``report_digests.json``.  Refusals stay byte-identical too: a second corpus of
argv that exit 2, each reduced to the SHA-256 of its exit code and stderr (the
checkout's root and the work directory replaced by fixed placeholders), is
compared with ``refusal_digests.json``.

A change that is meant to alter a report re-records both files with
``PYTHONPATH=src python tests/test_report_digests.py`` and says why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from hopfpbw.cli import run

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
REFUSAL_DIGESTS = Path(__file__).resolve().parent / "refusal_digests.json"

COMMANDS = (["verify"], ["quasi-lie"], ["ihoe"], ["hilbert"], ["heights"],
            ["basis", "--degree", "3"], ["lie-gens"], ["hopf-check"], ["gb"])
FLAG_SETS = (["--bound", "5"], ["--bound", "5", "--field", "Fp:7"])
LYNDON_ACTIONS = ("decompose", "check", "bracket")
LYNDON_GENS = "x1,x2:2,x3:3"
LYNDON_WORDS = ("x1", "x3", "x2 x1", "x1 x2", "x3 x1 x2", "x2 x1 x2 x1 x1",
                "x3 x2 x1 x2 x1", "x2 x2 x1 x2 x1 x1", "x3 x1 x3 x1 x1 x2",
                "x3 x3 x2 x1 x1 x3 x2 x1", "x2" + " x1" * 29)
NO_BOUND = "<no-bound file>"
HIGH_BOUND = "<degree_bound 10000000 file>"
WRITTEN = {NO_BOUND: ("no_bound.json", {"generators": [{"name": "x", "degree": 1}]}),
           HIGH_BOUND: ("high_bound.json", {"generators": [{"name": "x", "degree": 1}],
                                            "degree_bound": 10000000})}
REFUSALS = (["basis", "heisenberg.json", "--bound", "5"],
            ["basis", "heisenberg.json", "--bound", "5", "--degree", "99"],
            ["basis", "heisenberg.json", "--bound", "5", "--degree", "-1"],
            ["lie-gens", "heisenberg.json", "--bound", "5", "--field", "Fp:7"],
            ["lie-gens", "nonprimitive_pair.json", "--bound", "5"],
            ["verify", NO_BOUND],
            ["hilbert", NO_BOUND],
            ["verify", "missing.json", "--bound", "5"],
            ["ihoe", "heisenberg.json", "--bound", "5", "--field", "Fp:4"],
            ["hilbert", "free2.json", "--bound", "0"],
            ["hopf-check", "free2.json", "--field", "Fp:4", "--bound", "0"],
            ["frobnicate", "heisenberg.json"],
            ["basis", HIGH_BOUND, "--degree", "2"],
            ["basis", "heisenberg.json", "--bound", "10000000", "--degree", "2"])


def _corpus():
    for path in FIXTURES:
        for command in COMMANDS:
            for flags in FLAG_SETS:
                yield " ".join([command[0], path.name, *command[1:], *flags]), \
                    [command[0], str(path), *command[1:], *flags]
    for action in LYNDON_ACTIONS:
        for word in LYNDON_WORDS:
            argv = ["lyndon", action, word, "--gens", LYNDON_GENS]
            yield " ".join(argv), argv


def _digest(argv, json_path) -> str:
    code, _report, text = run([*argv, "--json", str(json_path)])
    machine = json_path.read_text(encoding="utf-8") if code != 2 else ""
    json_path.unlink(missing_ok=True)
    blob = json.dumps([code, machine, text]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def compute_digests(workdir) -> dict:
    json_path = Path(workdir) / "report.json"
    return {key: _digest(argv, json_path) for key, argv in _corpus()}


def compute_refusal_digests(workdir) -> dict:
    written = {}
    for key, (name, content) in WRITTEN.items():
        written[key] = Path(workdir) / name
        written[key].write_text(json.dumps(content), encoding="utf-8")
    digests = {}
    for argv in REFUSALS:
        path = written.get(argv[1], ROOT / "fixtures" / argv[1])
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, _report, _text = run([argv[0], str(path), *argv[2:]])
        message = stderr.getvalue().replace(str(workdir), "<WORKDIR>").replace(str(ROOT), "<ROOT>")
        blob = json.dumps([code, message]).encode("utf-8")
        digests[" ".join(argv)] = hashlib.sha256(blob).hexdigest()
    return digests


def _assert_matches(current, path):
    recorded = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(current) == sorted(recorded)
    changed = [key for key in current if current[key] != recorded[key]]
    assert changed == []


def test_reports_match_recorded_digests(tmp_path):
    _assert_matches(compute_digests(tmp_path), DIGESTS)


def test_refusals_match_recorded_digests(tmp_path):
    _assert_matches(compute_refusal_digests(tmp_path), REFUSAL_DIGESTS)


if __name__ == "__main__":
    import tempfile

    for path, compute in ((DIGESTS, compute_digests), (REFUSAL_DIGESTS, compute_refusal_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            digests = compute(tmp)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} digests in {path}", file=sys.stderr)
