"""Output check of one job: against recorded references, or against invariants.

For the program seeds recorded in `reference/<workload>.json` (the default
bench seed), the decision sequence (step, level, mayor, chosen link,
n_candidates) must match exactly and every history.csv and sweep.csv value
within a relative 1e-9; byte identity of the files is reported on its own, as
information. For any other seed, invariants are checked instead: worker and job
totals conserved within 1e-6, steps + 1 history rows, finite indicators.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import XI_GRID, Workload, operations

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
CONSERVATION_TOL = 1e-6


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(workload: Workload) -> list[str]:
    if workload.kind == "run":
        return ["history.csv", "decisions.csv", "final_state.json"]
    return [f"{name}/{f}" for name in workload.scenarios for f in ("sweep.csv", "trend.csv")]


def capture(workload: Workload, out_dir: Path) -> dict:
    """The reference record of one job's outputs."""
    doc = {"sha256": {f: _sha256(out_dir / f) for f in _files(workload)}}
    if workload.kind == "run":
        doc["decisions"] = [[r[0], r[1], r[2], r[3], r[4], r[7]] for r in _rows(out_dir / "decisions.csv")]
        doc["history"] = [[float(x) for x in r] for r in _rows(out_dir / "history.csv")]
    else:
        doc["sweep"] = {name: [[r[0], r[1], r[2], float(r[3]), float(r[4])]
                               for r in _rows(out_dir / name / "sweep.csv")]
                        for name in workload.scenarios}
    return doc


def load_references(workload: Workload) -> dict:
    path = REFERENCE_DIR / f"{workload.name}.json"
    return json.loads(path.read_text(encoding="utf-8"))["jobs"] if path.exists() else {}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(workload: Workload, configs: dict, out_dir: Path, reference: dict | None) -> dict:
    """Returns the failed operation count and what was found."""
    problems: list[str] = []
    try:
        if reference is None:
            failed = _invariants(workload, configs, out_dir, problems)
        else:
            failed = _against_reference(workload, out_dir, reference, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        failed = operations(workload)
    byte_identical = None
    if reference is not None:
        byte_identical = all((out_dir / f).exists() and _sha256(out_dir / f) == digest
                             for f, digest in reference["sha256"].items())
    return {"mode": "invariants" if reference is None else "reference", "failed": failed,
            "byte_identical": byte_identical, "problems": problems[:20]}


def _against_reference(workload: Workload, out_dir: Path, reference: dict, problems: list[str]) -> int:
    got = capture(workload, out_dir)
    if workload.kind == "run":
        if got["decisions"] != reference["decisions"]:
            problems.append("decision sequence differs")
        if len(got["history"]) != len(reference["history"]) or not all(
            len(r) == len(e) and all(_close(a, b) for a, b in zip(r, e))
            for r, e in zip(got["history"], reference["history"])
        ):
            problems.append("history.csv differs beyond 1e-9")
        return 1 if problems else 0
    failed = 0
    for name, expected in reference["sweep"].items():
        rows = got["sweep"].get(name, [])
        if len(rows) != len(expected):
            problems.append(f"{name}: {len(rows)} sweep rows, expected {len(expected)}")
            failed += len(expected)
            continue
        for row, exp in zip(rows, expected):
            if row[:3] != exp[:3] or not (_close(row[3], exp[3]) and _close(row[4], exp[4])):
                problems.append(f"{name}: sweep row {row[:3]} differs")
                failed += 1
    return failed


def _invariants(workload: Workload, configs: dict, out_dir: Path, problems: list[str]) -> int:
    if workload.kind == "sweep":
        failed = 0
        for name in workload.scenarios:
            rows = _rows(out_dir / name / "sweep.csv")
            expected = len(XI_GRID) * workload.replications
            if len(rows) != expected:
                problems.append(f"{name}: {len(rows)} sweep rows, expected {expected}")
                failed += expected
                continue
            for row in rows:
                if not all(v and math.isfinite(float(v)) for v in row[3:5]):
                    problems.append(f"{name}: sweep row {row[:3]} has a missing or non-finite indicator")
                    failed += 1
        return failed

    from metrosim.world import init_metropolis, natural_totals

    config = configs["run"]
    history = _rows(out_dir / "history.csv")
    if len(history) != config.steps + 1:
        problems.append(f"{len(history)} history rows, expected {config.steps + 1}")
    if not all(math.isfinite(float(v)) for row in history for v in row):
        problems.append("non-finite indicator in history.csv")
    if len(_rows(out_dir / "decisions.csv")) != config.steps:
        problems.append("decisions.csv does not have one row per step")
    final = json.loads((out_dir / "final_state.json").read_text(encoding="utf-8"))
    start = init_metropolis(config, *natural_totals(config))
    for key, initial in (("workers", start.workers), ("jobs", start.jobs)):
        totals = [sum(col) for col in zip(*final[key])]
        for got, want in zip(totals, initial.sum(axis=0)):
            if abs(got - want) > CONSERVATION_TOL * abs(want):
                problems.append(f"{key} total {got!r} not conserved (initial {want!r})")
    return 1 if problems else 0
