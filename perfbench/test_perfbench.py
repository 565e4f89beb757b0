"""Smoke tests of the benchmark itself: metric names and units, failure
counting, the trace, seeded inputs and refusal outside a full checkout."""

from __future__ import annotations

import fnmatch
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, unit_of  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def package_restored():
    """``run.set_up`` re-imports hopfpbw; give other tests back their modules."""
    saved = {k: v for k, v in sys.modules.items() if k == "hopfpbw" or k.startswith("hopfpbw.")}
    yield
    for name in [k for k in sys.modules if k == "hopfpbw" or k.startswith("hopfpbw.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def small_job(workdir, bound=6):
    pres = json.loads((run.ROOT / "fixtures" / "heisenberg.json").read_text(encoding="utf-8"))
    return jobs.write_job(workdir, "verify-heisenberg", "verify", pres, bound, jobs.check_verify(
        lambda: jobs.weighted_counts([1, 1, 2], bound), lambda: [1, 1, 2], oracle_top=3))


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (m, unit_of(m)) for m in LAYER_METRICS]
    rows = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))["layer_metrics"]
    patterns = [p for row in rows for p in row["metrics"]]
    for metric in LAYER_METRICS:
        assert any(fnmatch.fnmatch(metric, p) for p in patterns), metric


def test_end_to_end_metrics_print_with_units(tmp_path, package_restored):
    result = run.measure([small_job(tmp_path)], seconds=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_speed_probe_rescales_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as speed:
        result, long = speed.time(lambda: sum(i * i for i in range(2_000_000)))
        _, short = speed.time(len, "x")
    assert signal.getsignal(signal.SIGALRM) is before
    assert result == sum(i * i for i in range(2_000_000))
    for timing in (long, short):
        assert timing.wall_s > 0 and timing.scaled_wall_s > 0 and timing.scaled_cpu_s >= 0
    # Probes run inside the long call but are left out of its time.
    assert long.wall_s > 5 * hostspeed.PERIOD_S
    assert 0.2 < long.scaled_wall_s / long.wall_s < 5


def test_corrupted_report_or_exit_code_counts_as_failed(tmp_path, package_restored):
    job = small_job(tmp_path)
    cli = run.import_package()
    code, report, text = cli.run(job.argv)
    good = run.digest((code, report, text))
    assert run.judge([job], [(code, report, text)], [[good]], None) == (0, [])

    corrupted = json.loads(json.dumps(report))
    corrupted["hilbert"][3] += 1
    failed, lines = run.judge([job], [(code, corrupted, text)], [[good], [good]], None)
    assert failed == 2 and "hilbert" in lines[0]

    failed, _ = run.judge([job], [(1, report, text)], [[good]], None)
    assert failed == 1

    other = dict(good, text="0" * 64)
    failed, lines = run.judge([job], [(code, report, text)], [[good], [other]], None)
    assert failed == 1 and "pass 2" in lines[0]

    golden = {job.name: {"json": good["json"], "text": "0" * 64}}
    failed, lines = run.judge([job], [(code, report, text)], [[good]], golden)
    assert failed == 1 and "golden" in lines[0]


def test_trace_counts_duplicate_work_in_lie_gens(tmp_path, package_restored):
    cli = run.import_package()
    pres = json.loads((run.ROOT / "fixtures" / "heisenberg.json").read_text(encoding="utf-8"))
    job = jobs.write_job(tmp_path, "lie-gens", "lie-gens", pres, 5, lambda *a: [])
    original = cli.run
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(sys.modules["hopfpbw.cli"], [job], tracer)
    finally:
        tracer.uninstall()
    assert sys.modules["hopfpbw.cli"].run is original
    (entry,) = tracer.jobs
    assert entry["calls"]["rewrite.compute_truncated_gb"] == 2
    assert entry["calls"]["coalg.Comultiplication"] == 3
    metrics = tracer.metrics(1)
    assert metrics["cli.run.calls"] == 1 and metrics["fields.ops"] > 0
    names = {name for _, _, _, name, _, _ in tracer.spans}
    assert {"cli.run", "structure.recover_lie_generators"} <= names


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        return [j.path.read_text() for j in jobs.make_jobs("coproducts", seed, tmp_path / sub)]

    first = files(3, "a")
    assert first == files(3, "b")
    assert first != files(4, "c")


def test_refuses_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "completion", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
