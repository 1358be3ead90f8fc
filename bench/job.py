"""One benchmark job in a fresh process: set-up, the timed job, then its check.

Usage: python3 bench/job.py --workload NAME --seed N --scenarios DIR --out DIR --trace 0|1

Prints one JSON line: setup_s; job_wall_s, the wall seconds of the job call;
job_s, the same minus the host-speed probes (calibrate.py) run during an
untraced job; for untraced jobs the mean probe time probe_s, the probe count
and job_ref = job_s / probe_s; peak_rss_mb, the check result, the library
versions and, when traced, the job's per-layer summary. It is started
by run.py with PYTHONPATH pointing at the checkout's `src/`.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scenarios", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS, load_job, run_job

    workload = WORKLOADS[args.workload]
    import metrosim.cli  # noqa: F401  (part of the set-up being timed)

    if not Path(metrosim.cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"metrosim imported from {metrosim.cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    configs = load_job(workload, args.scenarios)
    setup_s = time.perf_counter() - _START

    # Untraced jobs are probed for host speed (calibrate.py); traced jobs are
    # not, so that no probe time lands in a span.
    if args.trace:
        from tracer import Tracer

        hook = Tracer()
    else:
        from calibrate import HostProbe

        hook = HostProbe()
    hook.install()
    start = time.perf_counter()
    try:
        status = run_job(workload, configs, args.seed, args.out)
    finally:
        hook.uninstall()  # first, so that every probe taken lies inside wall_s
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timing = {"job_wall_s": wall_s, "job_s": wall_s}
    if not args.trace:
        timing["job_s"] = wall_s - hook.total_s
        timing.update(probe_s=hook.mean_s, probes=len(hook.samples), job_ref=timing["job_s"] / hook.mean_s)

    import numpy
    import scipy

    from check import check, load_references

    result = check(workload, configs, args.out, load_references(workload).get(str(args.seed)))
    if status != 0:
        result["problems"].append(f"job returned exit code {status}")
        result["failed"] = max(result["failed"], 1)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "seed": args.seed,
        "setup_s": setup_s,
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "check": result,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if args.trace:
        doc["trace"] = hook.summary()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
