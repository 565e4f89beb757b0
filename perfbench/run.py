"""Benchmark of the hopfpbw command line: three workloads, checked reports.

Run from the repository root::

    python3 perfbench/run.py --workload pbw-words --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One run is one single-threaded process that plays one client in a closed
loop: it writes the workload's presentation files for the seed, then
alternates set-up (import ``hopfpbw`` afresh from ``src/`` and load every
presentation, three times) with one pass of the workload's job list through
``hopfpbw.cli.run``, until ``--seconds`` are used.  Every job parses its own
file, so per-alphabet caches start cold as in a CLI call.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s`` and
``cpu_s`` (CPU is this process's user+sys) as medians over the run's set-ups
and passes, and ``peak_rss_mb``.  On a shared host the speed of a core drifts
by up to 1.5x for seconds to minutes at a time, so every set-up and job is
timed under ``hostspeed.SpeedProbe``: the times are rescaled to a fixed host
speed, measured by a probe loop that interrupts the program every 5 ms.  The
uncorrected medians are printed above the result line.  ``--trace 1``
alternates untraced passes with passes under ``tracer.Tracer`` (neither
corrected nor probed) and prints the per-layer metrics (per pass), with the
traced minus untraced wall time as ``trace.overhead_s``; spans go to
``perfbench/out/``.  ``--workload all`` runs every workload in
its own child process and prints a table with the share of failed jobs.

Every job's report is checked: exit code and verdicts, independent values
(``jobs.py``), identical bytes on every pass and, for the default seed, the
SHA-256 recorded in ``golden.json``.  A job that fails any of these counts in
``failed``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import astuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

sys.path[:0] = [str(HERE), str(SRC)]

import jobs  # noqa: E402
from hostspeed import SpeedProbe, Timing  # noqa: E402
from tracer import LAYER_METRICS, Tracer, unit_of  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUPS_PER_PASS = 3


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or fixtures)."""


# -- set-up and passes ----------------------------------------------------------


def import_package():
    """Import ``hopfpbw`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "hopfpbw" or n.startswith("hopfpbw.")]:
        del sys.modules[name]
    cli = importlib.import_module("hopfpbw.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"hopfpbw imported from {cli.__file__}, not from {SRC}")
    return cli


def plain_time(fn, *args):
    """Call ``fn(*args)``; returns (its result, uncorrected ``Timing``)."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return result, Timing(wall, cpu, wall, cpu)


def _load_all(job_list):
    cli = import_package()
    presentation = sys.modules["hopfpbw.structure"].Presentation
    for job in job_list:
        alphabet, field, relations, images, _digest, _bound = cli.parse_presentation(str(job.path))
        presentation(alphabet, field, relations, images, job.bound)
    return cli


def set_up(job_list, timer=plain_time):
    """Import the package and load every presentation; returns (Timing, cli)."""
    gc.collect()
    cli, timing = timer(_load_all, job_list)
    return timing, cli


def run_pass(cli, job_list, tracer=None, tag="", timer=plain_time):
    """Run the job list once; returns (summed Timing, outputs).

    Garbage left by the previous job is collected before each job, outside
    the timed region, so that every job starts from a heap like that of a
    fresh CLI process; otherwise reference cycles holding large word lists
    pile up across passes until a full collection."""
    outputs, total = [], Timing(0.0, 0.0, 0.0, 0.0)
    for job in job_list:
        gc.collect()
        if tracer is not None:
            tracer.begin_job(f"{tag}{job.name}")
        output, timing = timer(cli.run, job.argv)
        outputs.append(output)
        total = Timing(*(a + b for a, b in zip(astuple(total), astuple(timing))))
        if tracer is not None:
            tracer.end_job()
    return total, outputs


def digest(output):
    """Exit code and SHA-256 of the JSON report (as ``--json`` writes it) and
    of the text report."""
    code, report, text = output
    body = "" if report is None else json.dumps(report, indent=2) + "\n"
    return {"code": code,
            "json": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "text": hashlib.sha256(text.encode("utf-8")).hexdigest()}


# -- correctness ------------------------------------------------------------------


def load_golden(workload, seed):
    """Recorded report digests of the workload's jobs, if ``seed`` has them."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return golden["reports"][workload] if seed == golden["seed"] else None


def judge(job_list, first_outputs, pass_digests, golden):
    """Count failed jobs over all passes; returns (failed, problem lines).

    A job fails in a pass when its first-pass report fails a check, or when
    that pass's report bytes differ from the first pass."""
    problems = {}
    first = pass_digests[0]
    for i, job in enumerate(job_list):
        try:
            found = job.check(job.path, *first_outputs[i])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"malformed report: {exc!r}"]
        if golden is not None:
            want = golden.get(job.name)
            got = {k: first[i][k] for k in ("json", "text")}
            if want != got:
                found.append("report differs from golden.json")
        problems[job.name] = found
    failed = 0
    for p, digests in enumerate(pass_digests):
        for i, job in enumerate(job_list):
            if problems[job.name]:
                failed += 1
            elif digests[i] != first[i]:
                failed += 1
                problems[job.name].append(f"pass {p + 1} report differs from pass 1")
    lines = [f"FAIL {name}: {msg}" for name, msgs in problems.items() for msg in msgs]
    return failed, lines


# -- one workload -------------------------------------------------------------------


def measure(job_list, seconds, tracer=None, golden=None):
    """Set up, run passes for ``seconds``, check every report.  With a
    ``tracer``, every second pass runs under it and the per-layer metrics are
    reported instead of the end-to-end ones; otherwise every set-up and job
    is timed under a ``SpeedProbe``.

    Returns the result object printed as the last line."""
    trace = tracer is not None
    with contextlib.ExitStack() as stack:
        timer = plain_time if trace else stack.enter_context(SpeedProbe()).time
        setups = []
        timings = {False: [], True: []}   # traced? -> [Timing] per pass
        first_outputs, pass_digests = None, []
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(SETUPS_PER_PASS):
                timing, cli = set_up(job_list, timer)
                setups.append(timing)
            traced = trace and len(pass_digests) % 2 == 1
            if traced:
                tracer.install()
            try:
                timing, outputs = run_pass(cli, job_list, tracer if traced else None,
                                           tag=f"pass {len(pass_digests) + 1}: ", timer=timer)
            finally:
                if traced:
                    tracer.uninstall()
            timings[traced].append(timing)
            pass_digests.append([digest(o) for o in outputs])
            if first_outputs is None:
                first_outputs = outputs
            if trace and not timings[True]:
                continue  # a traced run needs one pass of each kind
            upcoming = trace and not traced
            estimate = timings[upcoming][-1].wall_s + sum(t.wall_s for t in setups[-SETUPS_PER_PASS:])
            if time.perf_counter() + estimate > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = timings[False]
    print("wall_s per untraced pass (uncorrected): "
          + " ".join(f"{t.wall_s:.4f}" for t in untraced))
    if not trace:
        print("wall_s per pass (host-speed corrected): "
              + " ".join(f"{t.scaled_wall_s:.4f}" for t in untraced))
    failed, problems = judge(job_list, first_outputs, pass_digests, golden)
    for line in problems:
        print(line)
    if trace:
        values = tracer.metrics(len(timings[True]))
        values["trace.overhead_s"] = (statistics.fmean(t.wall_s for t in timings[True])
                                      - statistics.fmean(t.wall_s for t in untraced))
        metrics = {m: {"value": values[m], "unit": unit_of(m)} for m in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(t.scaled_wall_s for t in setups),
            "wall_s": statistics.median(t.scaled_wall_s for t in untraced),
            "cpu_s": statistics.median(t.scaled_cpu_s for t in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        print("uncorrected medians: "
              f"setup_s={statistics.median(t.wall_s for t in setups):.6g}s "
              f"wall_s={statistics.median(t.wall_s for t in untraced):.6g}s "
              f"cpu_s={statistics.median(t.cpu_s for t in untraced):.6g}s")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(job_list) * len(pass_digests),
            "failed": failed, "metrics": metrics}


def print_job_layers(tracer, count):
    """Self time per layer and the duplicate-computation counts of each of
    the ``count`` jobs of the first traced pass."""
    for entry in tracer.jobs[:count]:
        total = sum(entry["self_s"].values()) or 1.0
        shares = sorted(entry["self_s"].items(), key=lambda kv: -kv[1])
        layers = " ".join(f"{layer}={t / total:.0%}" for layer, t in shares if t / total >= 0.01)
        calls = entry["calls"]
        print(f"{entry['job']}: gb builds={calls.get('rewrite.compute_truncated_gb', 0)} "
              f"comultiplications={calls.get('coalg.Comultiplication', 0)} | self time: {layers}")


def run_workload(args):
    if not (SRC / "hopfpbw" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources at {SRC}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job_list = jobs.make_jobs(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        result = measure(job_list, args.seconds, tracer, load_golden(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        for point in tracer.missing:
            print(f"trace point {point} not found in the package; its metrics read 0")
        print_job_layers(tracer, len(job_list))
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    passes = result["attempted"] // len(job_list)
    summary = " ".join(f"{m}={v['value']:.6g}{v['unit']}" for m, v in result["metrics"].items()
                       if not args.trace)
    print(f"{args.workload} seed={args.seed}: {passes} passes of {len(job_list)} jobs, "
          f"{result['failed']} failed {summary}")
    return result


def run_all(args):
    """Every workload in its own child process, one after another."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise BenchmarkError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        metrics = {m: v["value"] for m, v in result["metrics"].items()}
        rows.append((workload, metrics, share))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            total["metrics"][f"{workload}.{m}"] = v
        total["metrics"][f"{workload}.failed_jobs"] = {"value": share, "unit": "share"}
    head = ["workload", *(f"{m} [{u}]" for m, u in END_TO_END.items()), "failed_jobs [share]"]
    print("  ".join(f"{h:>18}" for h in head))
    for workload, metrics, share in rows:
        cells = [workload, *(f"{metrics[m]:.4f}" for m in END_TO_END), f"{share:.4f}"]
        print("  ".join(f"{c:>18}" for c in cells))
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (BenchmarkError, FileNotFoundError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
