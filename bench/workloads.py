"""The benchmark's three workloads and the job each runs through the public CLI.

A workload is a set of scenario documents, generated through
`two_city_config`, plus a job: `cli.cmd_run` on one scenario, or
`cli.cmd_sweep` over one preset per scenario. Every job runs in a fresh
process with `workers=1`. metrosim is imported inside the functions, so a job
process can time the import as part of its set-up.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

XI_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# Job k of a run with bench seed s uses program seed s + SEED_STRIDE * k, so
# job 0 runs the bench seed itself and the replications of sweep jobs never
# overlap.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "run" | "sweep"
    scenarios: dict[str, dict]     # scenario name -> two_city_config keywords
    replications: int = 1          # sweep replications per preset and xi
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run_20x20",
            kind="run",
            scenarios={"run": dict(grid_rows=20, grid_cols=20, minor_position=(16, 16),
                                   dominant_position=(2, 2), landuse_enabled=True, xi=0.0, steps=2)},
            why="free-flow candidate scoring, O(candidates x |T| x N), is about 90% of a 20x20 run; "
                "xi = 0 makes the metropolitan government decide every step, so every seed does the same work",
        ),
        Workload(
            name="congested_10x10",
            kind="run",
            scenarios={"run": dict(congestion_in_evaluation=True, landuse_enabled=True, steps=2)},
            why="every candidate re-runs MSA assignment, so transport called from governance dominates",
        ),
        Workload(
            name="sweep_10x10",
            kind="sweep",
            scenarios={"unequal_far": dict(), "equal_near": dict(nu=6.0)},
            replications=3,
            why="many short runs over the criterion-7 presets that share decider prefixes",
        ),
    )
}


def program_seed(bench_seed: int, job_index: int) -> int:
    return bench_seed + SEED_STRIDE * job_index


def write_scenarios(workload: Workload, directory: Path) -> None:
    """Generate the workload's scenario documents; the job only loads them."""
    from metrosim.config import save_config, two_city_config

    directory.mkdir(parents=True, exist_ok=True)
    for name, keywords in workload.scenarios.items():
        save_config(two_city_config(**keywords), directory / f"{name}.json")


def load_job(workload: Workload, scenario_dir: Path):
    """Set-up of a job: load and validate the scenarios, build the sweep presets."""
    from metrosim.cli import sweep_configurations
    from metrosim.config import load_config

    configs = {name: load_config(scenario_dir / f"{name}.json") for name in workload.scenarios}
    if workload.kind == "sweep":
        return {name: sweep_configurations(config)[name] for name, config in configs.items()}
    return configs


def run_job(workload: Workload, configs: dict, seed: int, out_dir: Path) -> int:
    """The timed job; returns the CLI exit code (nonzero for any failed call)."""
    from metrosim import cli

    if workload.kind == "run":
        return cli.cmd_run(configs["run"], seed, out_dir)
    status = 0
    for name, config in configs.items():
        spec = cli.SweepSpec(
            configurations={name: config},
            xi_values=XI_GRID,
            replications=workload.replications,
            base_seed=seed,
            out_dir=out_dir / name,
            workers=1,
        )
        status = max(status, cli.cmd_sweep(spec))
    return status


def operations(workload: Workload) -> int:
    """Operations per job: one run, or one sweep cell."""
    if workload.kind == "run":
        return 1
    return len(workload.scenarios) * len(XI_GRID) * workload.replications
