#!/usr/bin/env python3
"""Campaign benchmark for compbss.

    python3 bench/run.py --workload desk --seed 3 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  Every campaign is one call of the CLI entry point
`compbss.cli.main` with `--jobs` left at 1, made in a fresh worker process,
one call after another (closed loop, one client).

Workloads:

desk         configs/campaign_desk.yaml at 3 drops x 10 fading draws: 4 CoMP
             configs x 5 patterns per realization, so both drop-level reuse
             and reuse across the configs show.
theta_sweep  the fig4 grid (theta_sweep.yaml here): C1, 5 patterns,
             alpha in {1,2,3} x 6 gamma_d values, one fading draw per drop;
             90 `schedule` calls per realization, two thirds on the
             alpha != 1 path.
traffic_day  configs/traffic_day.yaml, one 13-step profile per call: one
             fading draw per drop (nothing to reuse across draws), the
             heuristic's early exit, and mu=160 steps that set peak memory.

Each run first makes one untimed warm-up call at the config's own master
seed and compares its CSV with refs/<workload>.csv.  The other calls use
master seeds 10000*seed + 10, +11, ...; their CSVs are compared with the
ones an earlier run wrote to out/refs/, or written there.  Every output is
checked (see check.py).

--trace 0  times calls for --seconds and reports the end-to-end metrics;
           set-up is timed in fresh processes started between the calls.
--trace 1  runs a fixed number of calls (set by --seconds) twice, untraced
           and then traced in another process, and reports per-layer
           metrics; the span dump goes to out/spans/.
--write-reference  rewrites refs/<workload>.csv from the warm-up call.

Every metric is printed as `name = value unit`; the last stdout line is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.  A record
of the machine and the run goes to out/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

from check import Grid, check_output, max_rel_diff, read_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# campaign_s: approximate seconds per timed call (2-core Xeon, Python 3.11);
# it only sets how many calls a traced run makes.
WORKLOADS = {
    "desk": {"config": ROOT / "configs" / "campaign_desk.yaml",
             "overrides": {"n_drops": 3}, "campaign_s": 1.1},
    "theta_sweep": {"config": BENCH / "theta_sweep.yaml",
                    "overrides": {}, "campaign_s": 1.1},
    "traffic_day": {"config": ROOT / "configs" / "traffic_day.yaml",
                    "overrides": {}, "campaign_s": 0.6},
}
OVERRIDE_FLAGS = {"n_drops": "--drops"}

SEED_STRIDE = 10_000
SEED_OFFSET = 10          # keeps every timed master seed away from the configs' own
PROBE_EVERY_S = 2.0       # set-up probes run between timed campaigns at this spacing
DRIFT_TOLERANCE = 1e-9    # largest relative CSV difference still counted as unchanged
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"realizations_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_SUFFIX_UNITS = (
    (".calls", "count"), (".self_s", "s"), (".share", "fraction"), ("_us", "us"),
    (".cells", "count"), (".bytes_computed", "bytes"), (".eval_ratio", "ratio"),
    ("_frac", "fraction"), (".wall_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def per_layer_unit(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_SUFFIX_UNITS if name.endswith(suffix))


def workload_grid(name: str) -> Grid:
    wl = WORKLOADS[name]
    with open(wl["config"]) as f:
        return Grid.from_config({**yaml.safe_load(f), **wl["overrides"]})


def cli_args(config: Path, overrides: dict) -> list[str]:
    args = ["--config", str(config), "--jobs", "1"]
    for key, value in overrides.items():
        args += [OVERRIDE_FLAGS[key], str(value)]
    return args


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "git_commit": commit, "loadavg_start": os.getloadavg()}


def run_worker(job: dict, work: Path, name: str) -> dict:
    job_dir = work / name
    job_dir.mkdir()
    job = {**job, "src": str(ROOT / "src"), "work_dir": str(job_dir),
           "result": str(job_dir / "result.json")}
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited with code {proc.returncode}")
    with open(job["result"]) as f:
        return json.load(f)


def check_campaigns(campaigns: list, grid: Grid, reference: Path, cache: Path) -> dict:
    """Check every campaign's output and compare it with its reference.

    Adds `problems` and `realizations` to each campaign record.
    """
    drift, compared = 0.0, 0
    for c in campaigns:
        out = Path(c["out"])
        if c["error"] or c["exit"] != 0:
            c["problems"], c["realizations"] = [f"exit {c['exit']}: {c['error']}"], 0
        else:
            c["problems"], c["realizations"] = check_output(
                out, out.with_name(out.stem + "_manifest.json"), grid)
        ref = reference if c["seed"] is None else cache / f"{c['seed']}.csv"
        if ref.is_file():
            table = read_table(out) if out.is_file() else []
            drift = max(drift, max_rel_diff(table, read_table(ref)))
            compared += 1
        elif c["seed"] is not None and not c["problems"]:
            shutil.copyfile(out, ref)
    return {"drift": drift, "compared": compared,
            "failed": sum(bool(c["problems"]) for c in campaigns)}


def timed(campaigns: list) -> list:
    return [c for c in campaigns if c["seed"] is not None]


def end_to_end(result: dict) -> tuple[dict, str]:
    ok = [c for c in timed(result["campaigns"]) if not c["problems"]]
    setup = result["setup_s"]
    if not (ok and setup):
        raise BenchError("no timed campaign succeeded, or no set-up probe ran")
    metrics = {
        "realizations_per_s": statistics.median(c["realizations"] / c["wall_s"] for c in ok),
        "wall_s": statistics.median(c["wall_s"] for c in ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    note = (f"medians over {len(ok)} timed campaigns, "
            f"{sum(c['realizations'] for c in ok)} realizations; "
            f"setup_s median of {len(setup)} fresh processes run between them")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, note


def per_layer(untraced: dict, traced: dict, grid: Grid) -> tuple[dict, str]:
    base = sum(c["wall_s"] for c in timed(untraced["campaigns"]))
    traced_runs = timed(traced["campaigns"])
    metrics = dict(traced["trace"])
    metrics["trace.overhead_frac"] = sum(c["wall_s"] for c in traced_runs) / base - 1.0
    metrics["campaign.skipped_frac"] = 1.0 - (
        sum(c["realizations"] for c in traced_runs) / (grid.attempted * len(traced_runs)))
    layers = sum(v for k, v in metrics.items()
                 if k.endswith(".self_s") and k != "campaign.self_s")
    note = (f"{len(traced_runs)} traced campaigns; layer self_s sum {layers!r} s + "
            f"campaign.self_s {metrics['campaign.self_s']!r} s = "
            f"{layers + metrics['campaign.self_s']!r} s; trace.wall_s "
            f"{metrics['trace.wall_s']!r} s")
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}, note


def run(args, work: Path) -> dict:
    wl = WORKLOADS[args.workload]
    for path in (ROOT / "src" / "compbss" / "cli.py", wl["config"]):
        if not path.is_file():
            raise BenchError(f"{path} not found: run from a compbss source checkout")
    grid = workload_grid(args.workload)
    reference = BENCH / "refs" / f"{args.workload}.csv"
    if not (args.write_reference or reference.is_file()):
        raise BenchError(f"reference output {reference} not found")
    # Cached references are only valid for the exact config text and overrides.
    digest = hashlib.sha256(Path(wl["config"]).read_bytes()
                            + json.dumps(wl["overrides"], sort_keys=True).encode())
    cache = OUT / "refs" / f"{args.workload}-{digest.hexdigest()[:12]}"
    cache.mkdir(parents=True, exist_ok=True)

    base_argv = cli_args(wl["config"], wl["overrides"])
    job = {"warmup_argv": base_argv, "argv": base_argv + ["--seed", "{seed}", "--out", "{out}"],
           "seed_base": SEED_STRIDE * args.seed + SEED_OFFSET, "trace": False}
    if args.write_reference:
        result = run_worker({**job, "count": 0}, work, "reference")
        warm = result["campaigns"][0]
        check = check_campaigns(result["campaigns"], grid, reference, cache)
        if check["failed"]:
            raise BenchError(f"warm-up output fails its checks: {warm['problems']}")
        shutil.copyfile(warm["out"], reference)
        print(f"wrote {reference}")
        return {}

    if args.trace:
        count = max(1, round(args.seconds / (2.0 * wl["campaign_s"])))
        untraced = run_worker({**job, "count": count}, work, "untraced")
        dump = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        traced = run_worker({**job, "count": count, "trace": True, "span_dump": str(dump)},
                            work, "traced")
        campaigns = untraced["campaigns"] + traced["campaigns"]
        check = check_campaigns(campaigns, grid, reference, cache)
        metrics, note = per_layer(untraced, traced, grid)
        note += f"; spans in {dump}"
        numpy_version = traced["numpy"]
    else:
        probe = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src"),
                 str(wl["config"]), json.dumps(wl["overrides"])]
        result = run_worker({**job, "seconds": args.seconds, "probe_argv": probe,
                             "probe_every_s": PROBE_EVERY_S}, work, "untraced")
        campaigns = result["campaigns"]
        check = check_campaigns(campaigns, grid, reference, cache)
        metrics, note = end_to_end(result)
        numpy_version = result["numpy"]

    failed_frac = check["failed"] / len(campaigns)
    correct = check["failed"] == 0 and check["compared"] > 0 and check["drift"] <= DRIFT_TOLERANCE
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_frac = {failed_frac!r} fraction ({check['failed']} of {len(campaigns)} "
          f"campaigns)")
    print(f"  output_max_rel_diff = {check['drift']!r} ratio ({check['compared']} outputs "
          f"compared with references, tolerance {DRIFT_TOLERANCE})")
    for c in campaigns:
        for problem in c["problems"]:
            print(f"  campaign {c['index']} (seed {c['seed']}): {problem}")
    return {"correct": correct, "attempted": len(campaigns), "failed": check["failed"],
            "metrics": metrics, "record": {
                "numpy": numpy_version, "failed_frac": failed_frac,
                "output_max_rel_diff": check["drift"],
                "campaigns": [{k: c[k] for k in ("index", "seed", "exit", "wall_s",
                                                 "realizations", "problems")}
                              for c in campaigns]}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    env = machine_record()
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        outcome = run(args, work)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not outcome:
        return 0
    record = outcome.pop("record")
    env["numpy"] = record.pop("numpy")
    env["loadavg_end"] = os.getloadavg()
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"machine": env, "args": vars(args), **outcome, **record},
                               indent=1) + "\n")
    print(f"machine: {json.dumps(env)}")
    print(f"run record: {path}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
