"""Record the reference outputs that the benchmark's check compares against.

Usage (from the repository root): python3 bench/record_reference.py [WORKLOAD ...]

Runs every job a run with the default bench seed 0 can start (program seeds
0, 1000, ..., see workloads.program_seed) and writes reference/<workload>.json.
Record only from a commit whose outputs are known to be right: every later
run on these seeds must reproduce them.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the same BLAS setting as run.py gives its jobs

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from check import REFERENCE_DIR, capture  # noqa: E402
from run import MAX_JOBS, OUT, SRC, git_commit  # noqa: E402
from workloads import WORKLOADS, load_job, program_seed, run_job, write_scenarios  # noqa: E402

DEFAULT_BENCH_SEED = 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    REFERENCE_DIR.mkdir(exist_ok=True)
    names = sys.argv[1:] or list(WORKLOADS)
    for workload in (WORKLOADS[name] for name in names):
        work = OUT / "reference" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        write_scenarios(workload, work / "scenarios")
        configs = load_job(workload, work / "scenarios")
        jobs = {}
        for k in range(MAX_JOBS):
            seed = program_seed(DEFAULT_BENCH_SEED, k)
            out = work / f"job{k}"
            if run_job(workload, configs, seed, out) != 0:
                print(f"{workload.name} seed {seed}: job failed", file=sys.stderr)
                return 1
            jobs[str(seed)] = capture(workload, out)
        doc = {"bench_seed": DEFAULT_BENCH_SEED, "git_commit": git_commit(), "jobs": jobs}
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(SRC.parent)}: {len(jobs)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
