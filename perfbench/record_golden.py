"""Record ``golden.json``: SHA-256 of every job's JSON and text report for the
default seed.

Run from the repository root, only when the report format is meant to change
(the roadmap requires byte-identical reports otherwise)::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import shutil

import run


def main():
    cli = run.import_package()
    reports = {}
    for workload in run.jobs.WORKLOADS:
        workdir = run.OUT / f"golden-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            job_list = run.jobs.make_jobs(workload, run.jobs.DEFAULT_SEED, workdir)
            reports[workload] = {}
            for job in job_list:
                output = cli.run(job.argv)
                problems = job.check(job.path, *output)
                if problems:
                    raise SystemExit(f"{workload}/{job.name}: {'; '.join(problems)}")
                got = run.digest(output)
                reports[workload][job.name] = {"json": got["json"], "text": got["text"]}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    body = {"seed": run.jobs.DEFAULT_SEED, "reports": reports}
    run.GOLDEN.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {run.GOLDEN}")


if __name__ == "__main__":
    main()
