"""Reports stay byte-identical: a corpus of CLI runs on the fixtures, and of
``lyndon`` queries on a fixed list of words, each reduced to the SHA-256 of
its exit code, JSON report and text report, is compared with the digests in
``report_digests.json``.

A change that is meant to alter a report re-records the file with
``PYTHONPATH=src python tests/test_report_digests.py`` and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

from hopfpbw.cli import run

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

COMMANDS = (["verify"], ["quasi-lie"], ["ihoe"], ["hilbert"], ["heights"],
            ["basis", "--degree", "3"], ["lie-gens"], ["hopf-check"], ["gb"])
FLAG_SETS = (["--bound", "5"], ["--bound", "5", "--field", "Fp:7"])
LYNDON_ACTIONS = ("decompose", "check", "bracket")
LYNDON_GENS = "x1,x2:2,x3:3"
LYNDON_WORDS = ("x1", "x3", "x2 x1", "x1 x2", "x3 x1 x2", "x2 x1 x2 x1 x1",
                "x3 x2 x1 x2 x1", "x2 x2 x1 x2 x1 x1", "x3 x1 x3 x1 x1 x2",
                "x3 x3 x2 x1 x1 x3 x2 x1", "x2" + " x1" * 29)


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


def test_reports_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = compute_digests(tmp_path)
    assert sorted(current) == sorted(recorded)
    changed = [key for key in current if current[key] != recorded[key]]
    assert changed == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(tmp)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
