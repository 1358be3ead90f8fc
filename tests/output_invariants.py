"""The whole-run invariants of one `metrosim run` output directory.

check_run_dir(path) reads the directory alone, with the scenario taken from
its final_state.json, and returns one line per broken invariant, [] when all
hold. Each invariant is stated here once, and CI and the tests both call it:
- config: the stored config loads and saves to the same JSON text, and the
  stored step is its steps;
- shape: history.csv has rows for steps 0..steps, decisions.csv one row per
  step, and map_step_k.svg exists for every k in 0..steps;
- links: each link's congested_time is the BPR time of its flow, bit for
  bit, and its length, speed and capacity are the grid's and the config's;
- indicator: the last history row's total_accessibility is
  sum(workers * (exp(-nu T) @ jobs)) of final_state.json, within 1e-9;
- counts: the last link_count is the number of links, and each step adds 1
  when its decision chose a link and 0 when it did not;
- decisions: the links are the initial links and then the chosen ones, in
  order; each chosen link is an in-grid pair a < b and no pair is built
  twice; the level is metropolitan exactly when no mayor decided, and a
  mayor is a centre's index; under free-flow evaluation no decision lowers
  its objective by more than a relative 1e-12;
- conservation: each category's worker and job totals are the initial
  metropolis's, within 1e-6;
- maps: each map_step_k.svg is, byte for byte, oracles.map_svg_oracle's
  drawing of step k: its worker_density_history entry, the territory, and
  the first link_count links of history.csv's row k.

The module imports only the standard library, numpy, metrosim and the tests'
oracles, so it runs without the test extra:

    python tests/output_invariants.py RUN_DIR [RUN_DIR ...]

prints each problem and exits 1 when any directory has one.
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from metrosim.config import config_from_dict, config_to_dict
from metrosim.world import init_metropolis, natural_totals
from oracles import map_svg_oracle

ACCESSIBILITY_REL_TOL = 1e-9
OBJECTIVE_REL_TOL = 1e-12
CONSERVATION_REL_TOL = 1e-6


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_run_dir(path: str | Path) -> list[str]:
    """Every whole-run invariant the run directory breaks, one line each."""
    problems: list[str] = []
    try:
        _check(Path(path), problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _check(out: Path, problems: list[str]) -> None:
    doc = json.loads((out / "final_state.json").read_text(encoding="utf-8"))
    config = config_from_dict(doc["config"])
    steps = config.steps
    if json.dumps(config_to_dict(config)) != json.dumps(doc["config"]):
        problems.append("config: the stored config does not save back to the same text")
    if doc["step"] != steps:
        problems.append(f"config: final_state.json is at step {doc['step']} of a {steps}-step run")

    history, decisions = _rows(out / "history.csv"), _rows(out / "decisions.csv")
    if [row["step"] for row in history] != [str(k) for k in range(steps + 1)]:
        problems.append(f"shape: history.csv steps are not 0..{steps}")
    if len(decisions) != steps:
        problems.append(f"shape: {len(decisions)} decisions.csv rows in a {steps}-step run")
    missing = [k for k in range(steps + 1) if not (out / f"map_step_{k}.svg").is_file()]
    if missing:
        problems.append(f"shape: no map_step_k.svg for k in {missing}")

    workers, jobs, times = (np.array(doc[key], dtype=float) for key in ("workers", "jobs", "travel_times"))
    recomputed = float((workers * (np.exp(-config.nu * times) @ jobs)).sum())
    logged = float(history[-1]["total_accessibility"])
    if not abs(logged - recomputed) <= ACCESSIBILITY_REL_TOL * abs(recomputed):
        problems.append(f"indicator: last total_accessibility {logged!r}, recomputed {recomputed!r}")

    links = doc["links"]
    pairs = [(link["from"], link["to"]) for link in links]
    counts = [int(row["link_count"]) for row in history]
    built = [int(row["chosen_a"] != "") for row in decisions]
    if counts[-1] != len(links) or [b - a for a, b in zip(counts, counts[1:])] != built:
        problems.append(f"counts: link counts {counts} for {len(links)} links and chosen steps {built}")
    chosen = [(int(row["chosen_a"]), int(row["chosen_b"])) for row in decisions if row["chosen_a"]]
    if pairs != list(config.initial_links) + chosen:
        problems.append("decisions: the links are not the initial links and then the chosen ones")
    if not all(0 <= a < b < config.n_cells for a, b in chosen):
        problems.append(f"decisions: a chosen link is not an in-grid pair a < b: {chosen}")
    if len({(min(pair), max(pair)) for pair in pairs}) != len(pairs):
        problems.append("decisions: a pair is built twice")
    for row in decisions:
        mayor = row["mayor_id"]
        if row["level"] != ("metropolitan" if mayor == "" else "local") or (
                mayor and not 0 <= int(mayor) < len(config.centers)):
            problems.append(f"decisions: step {row['step']} has level {row['level']!r} and mayor_id {mayor!r}")
        before, after = float(row["obj_before"]), float(row["obj_after"])
        if not config.congestion_in_evaluation and not after >= before - OBJECTIVE_REL_TOL * abs(before):
            problems.append(f"decisions: step {row['step']} lowers its objective {before!r} to {after!r}")

    densities = doc["worker_density_history"]
    for k, count in enumerate(counts):
        path = out / f"map_step_{k}.svg"
        if path.is_file() and path.read_bytes() != map_svg_oracle(
                config, densities[k], doc["territory"], pairs[:count]).encode("utf-8"):
            problems.append(f"maps: map_step_{k}.svg is not the drawing of step {k}")

    start = init_metropolis(config, *natural_totals(config))
    for key, final, initial in (("workers", workers, start.workers), ("jobs", jobs, start.jobs)):
        got, want = final.sum(axis=0), initial.sum(axis=0)
        if not (np.abs(got - want) <= CONSERVATION_REL_TOL * np.abs(want)).all():
            problems.append(f"conservation: {key} totals {got.tolist()}, initially {want.tolist()}")

    # Last, as it indexes the grid by the stored pairs.
    length, v_link, capacity, flow, time = (np.array([link[key] for link in links], dtype=float)
                                            for key in ("length_km", "v_link", "capacity", "flow", "congested_time"))
    bpr = length / v_link * (1.0 + config.bpr_alpha * np.float_power(flow / capacity, config.bpr_beta))
    if not np.array_equal(time, bpr):
        problems.append(f"links: {int((time != bpr).sum())} of {len(links)} congested times are not the BPR time of their flow")
    ends = np.array(pairs, dtype=int).reshape(-1, 2)
    if not (np.array_equal(length, start.distance_km[ends[:, 0], ends[:, 1]])
            and (v_link == config.v_link).all() and (capacity == config.capacity).all()):
        problems.append("links: a link's length, speed or capacity is not the grid's and the config's")


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/output_invariants.py RUN_DIR [RUN_DIR ...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        problems = check_run_dir(path)
        for problem in problems:
            print(f"{path}: {problem}")
        print(f"{path}: {len(problems)} problems")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
