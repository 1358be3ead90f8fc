"""metrosim benchmark: one closed-loop client running one workload's jobs.

Usage (from the repository root):

    python3 bench/run.py --workload run_20x20 --seed 0 --seconds 40 --trace 0

Each job is one `cmd_run` or `cmd_sweep` call in a fresh process (bench/job.py);
the next job starts when the previous one has ended, until --seconds is spent.
Job k uses program seed seed + 1000 k. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates untraced
and traced jobs on the same program seeds and reports the per-layer metrics.
Every job's outputs are checked. A table of all metrics goes to stdout, the
full record to .bench_out/results/, and the last stdout line is the JSON
result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1          # one closed-loop client; never above nproc
MIN_JOBS = 3              # untraced jobs per run, even past --seconds
MIN_PAIRS = 2             # untraced + traced pairs per traced run
MAX_JOBS = 12             # jobs (or pairs) per run; reference/ covers these seeds
JOB_TIMEOUT_S = 150


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _run_job(workload, seed: int, trace: int, scenarios: Path, out: Path) -> dict:
    from workloads import operations

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(BENCH_DIR / "job.py"), "--workload", workload.name, "--seed", str(seed),
           "--scenarios", str(scenarios), "--out", str(out), "--trace", str(trace), "--src", str(SRC)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        proc = None
    wall_s = time.perf_counter() - started
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (AttributeError, IndexError, json.JSONDecodeError):
        reason = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        doc = {"seed": seed, "check": {"mode": "none", "failed": operations(workload),
                                       "byte_identical": None, "problems": [f"job process {reason}"]}}
    doc["trace_on"] = bool(trace)
    doc["wall_s"] = wall_s
    return doc


def _closed_loop(workload, bench_seed: int, seconds: float, traced: bool, scenarios: Path, work: Path) -> list[dict]:
    from workloads import program_seed

    jobs: list[dict] = []
    start = time.perf_counter()
    last_s = 0.0
    for k in range(MAX_JOBS):
        elapsed = time.perf_counter() - start
        if k >= (MIN_PAIRS if traced else MIN_JOBS) and elapsed + last_s > seconds:
            break
        seed = program_seed(bench_seed, k)
        began = time.perf_counter()
        for trace in ((0, 1) if traced else (0,)):
            jobs.append(_run_job(workload, seed, trace, scenarios, work / f"job{k}-trace{trace}"))
        last_s = time.perf_counter() - began
    return jobs


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics per traced job (times and counts are means over jobs)."""
    n = len(traced)
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    by_site: dict[str, float] = {}
    step_s: list[float] = []
    prefixes = 0
    for job in traced:
        summary = job["trace"]
        for name, entry in summary["layers"].items():
            merged = layers.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            for key in merged:
                merged[key] += entry[key]
        for key, value in summary["counts"].items():
            if key.endswith("max_residual"):
                counts[key] = max(counts.get(key, 0.0), value)
            else:
                counts[key] = counts.get(key, 0.0) + value
        for key, value in summary["by_site_s"].items():
            by_site[key] = by_site.get(key, 0.0) + value
        step_s += summary["step_s"]
        prefixes += summary["distinct_decider_prefixes"]

    m: dict[str, float] = {}
    for name, entry in layers.items():
        m[f"{name}.s"] = entry["s"] / n
        m[f"{name}.calls"] = entry["calls"] / n
        m[f"{name}.self_s"] = entry["self_s"] / n
    for key, value in counts.items():
        m[key] = value if key.endswith("max_residual") else value / n
    for key, value in by_site.items():
        m[f"{key}.s"] = value / n
    m["landuse.s"] = sum(m.get(f"landuse.{f}.s", 0.0) for f in ("accessibility", "cell_scores", "relocate"))
    candidates = counts.get("governance.candidates", 0.0)
    m["governance.eval_per_candidate"] = counts.get("governance.evaluations", 0.0) / candidates if candidates else 0.0
    decide_s = layers.get("governance.decide_and_build", {}).get("s", 0.0)
    m["governance.candidates_per_s"] = candidates / decide_s if decide_s else 0.0
    m["engine.step.p50_s"] = statistics.median(step_s)
    m["engine.step.p90_s"] = statistics.quantiles(step_s, n=10, method="inclusive")[-1]
    m["engine.step.samples"] = len(step_s)
    m["engine.decider_prefix_share"] = prefixes / len(step_s)
    m["job_s.traced"] = statistics.fmean(j["job_s"] for j in traced)
    m["job_s.untraced"] = statistics.fmean(j["job_s"] for j in untraced)
    m["trace.overhead_frac"] = m["job_s.traced"] / m["job_s.untraced"] - 1.0
    return m


def _unit(name: str) -> str:
    if name.startswith("job_ref"):
        return "ref"
    if name.startswith("job_s") or name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("share", "frac", "per_candidate", "residual")):
        return "ratio"
    return "count"


def main() -> int:
    # subprocess.run kills and reaps its job process on any exception, so a
    # terminated run leaves no job behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "metrosim" / "__init__.py").is_file():
        print(f"no metrosim sources under {SRC}; run from a metrosim checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, operations, write_scenarios

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    scenarios = work / "scenarios"
    write_scenarios(workload, scenarios)

    jobs = _closed_loop(workload, args.seed, seconds, bool(args.trace), scenarios, work)
    untraced = [j for j in jobs if not j["trace_on"] and "job_s" in j]
    traced = [j for j in jobs if j["trace_on"] and "trace" in j]
    attempted = operations(workload) * len(jobs)
    failed = sum(j["check"]["failed"] for j in jobs)

    metrics: dict[str, float] = {}
    if untraced:
        metrics["job_ref"] = statistics.median(j["job_ref"] for j in untraced)
        metrics["job_s"] = statistics.median(j["job_s"] for j in untraced)
        metrics["job_wall_s"] = statistics.median(j["job_wall_s"] for j in untraced)
        metrics["probe_s"] = statistics.median(j["probe_s"] for j in untraced)
        metrics["setup_s"] = statistics.median(j["setup_s"] for j in untraced)
        metrics["peak_rss_mb"] = statistics.median(j["peak_rss_mb"] for j in untraced)
    metrics["fail_frac"] = failed / attempted
    if args.trace and traced and untraced:
        metrics.update(_layer_metrics(traced, untraced))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    versions = next((j["versions"] for j in jobs if "versions" in j), {})
    results = {
        "workload": workload.name,
        "why": workload.why,
        "scenarios": workload.scenarios,
        "replications": workload.replications,
        "bench_seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "environment": {
            **versions,
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
        },
        "attempted": attempted,
        "failed": failed,
        "byte_identical_jobs": sum(1 for j in jobs if j["check"]["byte_identical"]),
        "reference_checked_jobs": sum(1 for j in jobs if j["check"]["mode"] == "reference"),
        "properties": {key: metrics.get(key) for key in ("engine.decider_prefix_share",
                                                          "governance.eval_per_candidate")},
        "metrics": {name: {"value": value, "unit": units.get(name, _unit(name))}
                    for name, value in sorted(metrics.items())},
        "jobs": jobs,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    for name, entry in results["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"attempted {attempted}, failed {failed}; results in {results_path.relative_to(ROOT)}")
    for job in jobs:
        for problem in job["check"]["problems"]:
            print(f"check seed {job['seed']}: {problem}", file=sys.stderr)
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
