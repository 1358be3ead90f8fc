"""The whole-run checker, tests/output_invariants.py: fresh CLI runs hold
every invariant, and each fault planted in a copy of a good run is reported."""
from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import pytest

from metrosim.cli import main
from metrosim.config import save_config, two_city_config

from output_invariants import check_run_dir

LINKS = ((0, 11), (11, 22), (22, 33))


def run_dir(tmp_path: Path, flags: tuple[str, ...] = (), **config) -> Path:
    save_config(two_city_config(**config), tmp_path / "scenario.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "scenario.json"), "--out", str(out), *flags]) == 0
    return out


@pytest.mark.parametrize("flags, config", [
    ((), dict(steps=3, landuse_enabled=True, xi=0.5)),
    ((), dict(steps=3, xi=1.0)),
    # At capacity 600 two links carry more than their capacity, and the run
    # takes about 0.1 s (at capacity 60 it took 1.2 s).
    (("--congested-eval",), dict(steps=2, capacity=600.0, initial_links=LINKS)),
    ((), dict(steps=0, bpr_beta=0.0, initial_links=LINKS[:2])),
    ((), dict(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0), steps=8,
              initial_links=((0, 3),))),
], ids=["landuse-xi0.5", "mayors-only", "congested-initial-links", "flat-bpr-0-steps", "saturating-2x2"])
def test_a_fresh_run_holds_every_invariant(tmp_path, flags, config):
    assert check_run_dir(run_dir(tmp_path, flags, **config)) == []


@pytest.fixture(scope="module")
def good_run(tmp_path_factory) -> Path:
    """A land-use run whose links carry flow and whose three decisions each build a link."""
    out = run_dir(tmp_path_factory.mktemp("good"), steps=3, landuse_enabled=True, xi=0.5, initial_links=LINKS[:2])
    assert check_run_dir(out) == []
    return out


def edit_json(out: Path, edit) -> None:
    path = out / "final_state.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def nudge_a_link_time(out: Path) -> None:
    def edit(doc):
        link = doc["links"][0]
        link["congested_time"] = math.nextafter(link["congested_time"], math.inf)
    edit_json(out, edit)


def scale_the_last_accessibility(out: Path) -> None:
    def edit(rows):
        rows[-1]["total_accessibility"] = repr(float(rows[-1]["total_accessibility"]) * (1.0 + 1e-8))
    edit_csv(out / "history.csv", edit)


def delete_a_map(out: Path) -> None:
    (out / "map_step_1.svg").unlink()


def change_a_fill(out: Path) -> None:
    path = out / "map_step_2.svg"
    text = path.read_text(encoding="utf-8")
    fill = text.index('fill="rgb(') + len('fill="rgb(')
    level = int(text[fill:text.index(",", fill)])
    path.write_text(text.replace(f'fill="rgb({level},255,{level})"', f'fill="rgb({level ^ 1},255,{level})"', 1),
                    encoding="utf-8")


def rebuild_a_built_pair(out: Path) -> None:
    """The last chosen link becomes the first initial link, in decisions.csv and final_state.json alike."""
    def edit_decisions(rows):
        rows[-1]["chosen_a"], rows[-1]["chosen_b"] = map(str, LINKS[0])

    def edit_links(doc):
        doc["links"][-1]["from"], doc["links"][-1]["to"] = LINKS[0]
    edit_csv(out / "decisions.csv", edit_decisions)
    edit_json(out, edit_links)


def scale_a_job_count(out: Path) -> None:
    def edit(doc):
        doc["jobs"][11][0] *= 1.0 + 1e-3  # cell 11 is the dominant centre
    edit_json(out, edit)


def flip_a_level(out: Path) -> None:
    def edit(rows):
        rows[0]["level"] = "local" if rows[0]["level"] == "metropolitan" else "metropolitan"
    edit_csv(out / "decisions.csv", edit)


FAULTS = [
    (nudge_a_link_time, "links: 1 of 5 congested times are not the BPR time of their flow"),
    (scale_the_last_accessibility, "indicator: last total_accessibility"),
    (delete_a_map, "shape: no map_step_k.svg for k in [1]"),
    (change_a_fill, "maps: map_step_2.svg is not the drawing of step 2"),
    (rebuild_a_built_pair, "decisions: a pair is built twice"),
    (scale_a_job_count, "conservation: jobs totals"),
    (flip_a_level, "decisions: step 1 has level"),
]


@pytest.mark.parametrize("plant, reported", FAULTS, ids=[plant.__name__ for plant, _ in FAULTS])
def test_a_planted_fault_is_reported(good_run, tmp_path, plant, reported):
    out = shutil.copytree(good_run, tmp_path / "out")
    plant(out)
    problems = check_run_dir(out)
    assert any(problem.startswith(reported) for problem in problems), problems
