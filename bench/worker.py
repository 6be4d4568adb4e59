"""Run a sequence of compbss CLI campaigns in this fresh process and time them.

Usage: python3 worker.py JOB.json

The job names the source tree, the CLI arguments of an untimed warm-up
campaign and of the timed ones (`{seed}` and `{out}` are filled in per
campaign), and either a time budget or a fixed campaign count.  With
`"trace": true` the timed campaigns run under the span tracer.  With a
`probe_argv`, a set-up probe process runs between timed campaigns whenever
`probe_every_s` seconds have passed since the last one, so the probes see
the same stretch of machine time as the campaigns.  Results go to the job's
`result` path as JSON; nothing is printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter


def _run(cli_main, argv, tracer=None, index=0):
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli_main(argv)
            else:
                code = tracer.call_campaign(index, cli_main, argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed campaign is data
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, error, perf_counter() - t0


def _probe(argv) -> float:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(job_path: str) -> int:
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    import numpy
    from compbss import cli

    work = job["work_dir"]
    campaigns = []
    setup_s = []

    def record(index, seed, argv, outcome):
        code, error, wall = outcome
        campaigns.append({"index": index, "seed": seed, "out": argv[argv.index("--out") + 1],
                          "exit": code, "error": error, "wall_s": wall})

    warm = job["warmup_argv"] + ["--out", os.path.join(work, "warmup.csv")]
    record(0, None, warm, _run(cli.main, warm))

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        count, seconds = job.get("count"), job.get("seconds")
        probe_argv, probe_every_s = job.get("probe_argv"), job.get("probe_every_s", 0.0)
        t_end = perf_counter() + (seconds or 0.0)
        last_probe = float("-inf")
        i = 0
        while count is None or i < count:
            seed = job["seed_base"] + i
            argv = [a.format(seed=seed, out=os.path.join(work, f"c{i:04d}.csv"))
                    for a in job["argv"]]
            record(i + 1, seed, argv, _run(cli.main, argv, tracer, i + 1))
            i += 1
            if count is None and perf_counter() >= t_end:
                break
            if probe_argv and perf_counter() - last_probe >= probe_every_s:
                setup_s.append(_probe(probe_argv))
                last_probe = perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "campaigns": campaigns,
        "setup_s": setup_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["span_dump"])
    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
