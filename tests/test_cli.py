from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import metrosim
from metrosim.cli import SweepSpec, cmd_run, main, spearman_trend, sweep_configurations
from metrosim.config import ConfigError, config_to_dict, two_city_config
from metrosim import engine, governance, output, transport
from metrosim.engine import replicate, run
from metrosim.output import _write_json_matrix, write_final_state_json

import oracles
from output_invariants import check_run_dir


def write_config(tmp_path: Path, **kwargs) -> Path:
    cfg = two_city_config(**kwargs)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class TestRun:
    def test_artifacts_written(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=2)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 0
        assert (out / "history.csv").exists()
        assert (out / "decisions.csv").exists()
        assert (out / "final_state.json").exists()
        for k in range(3):
            assert (out / f"map_step_{k}.svg").exists()

    def test_history_csv_shape(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=2)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        rows = read_csv(out / "history.csv")
        assert len(rows) == 3
        assert list(rows[0]) == ["step", "total_accessibility", "total_travel_time", "link_count",
                                 "mayor_0_objective", "mayor_1_objective"]
        assert [r["step"] for r in rows] == ["0", "1", "2"]

    def test_decisions_csv_shape(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=2, xi=0.0)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        rows = read_csv(out / "decisions.csv")
        assert len(rows) == 2
        assert rows[0]["level"] == "metropolitan"
        assert rows[0]["mayor_id"] == ""
        assert float(rows[0]["obj_after"]) >= float(rows[0]["obj_before"])
        # The level column derives from the mayor: at xi = 0.5 seed 0 draws both.
        mixed = tmp_path / "mixed"
        main(["run", "--config", str(write_config(tmp_path, steps=4, xi=0.5)), "--out", str(mixed)])
        rows = read_csv(mixed / "decisions.csv")
        assert {r["level"] for r in rows} == {"metropolitan", "local"}
        for r in rows:
            assert (r["level"] == "metropolitan") == (r["mayor_id"] == "")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=2, landuse_enabled=True)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_path), "--seed", "3", "--out", str(out_a)])
        main(["run", "--config", str(cfg_path), "--seed", "3", "--out", str(out_b)])
        for name in ("history.csv", "decisions.csv", "final_state.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_debug_log_level_reports_each_search(self, tmp_path):
        # Logging is set up by the entry point, so this runs it as a program.
        cfg_path = write_config(tmp_path, steps=2)
        env = {**os.environ, "PYTHONPATH": str(Path(metrosim.__file__).resolve().parents[1])}
        for mode in ([], ["--congested-eval"]):
            debug, quiet = tmp_path / f"debug{len(mode)}", tmp_path / f"quiet{len(mode)}"
            proc = subprocess.run(
                [sys.executable, "-m", "metrosim.cli", "run", "--config", str(cfg_path), "-v", "debug",
                 "--out", str(debug), *mode],
                capture_output=True, text=True, env=env, check=True,
            )
            assert proc.stderr.count("n_candidates") == 2
            main(["run", "--config", str(cfg_path), "--out", str(quiet), *mode])
            for name in ("history.csv", "decisions.csv", "final_state.json"):
                assert (debug / name).read_bytes() == (quiet / name).read_bytes()

    def test_invalid_config_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = config_to_dict(two_city_config())
        cfg["xi"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        good = write_config(tmp_path, steps=1)
        huge = 10**400
        cases = [(bad, [], "xi"), (good, ["--steps", "-1"], "steps")]
        for field, edit in (("nu:", lambda doc: doc.update(nu=huge)),
                            ("capacity:", lambda doc: doc.update(capacity=huge)),
                            ("centers[1].amplitude:", lambda doc: doc["centers"][1].update(amplitude=huge)),
                            ("m:", lambda doc: doc["m"][0].__setitem__(1, huge)),
                            ("grid_rows:", lambda doc: doc.update(grid_rows=huge)),
                            ("grid_cols:", lambda doc: doc.update(grid_cols=32768))):
            doc = config_to_dict(two_city_config())
            edit(doc)
            path = tmp_path / f"huge_{field[:-1]}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            cases.append((path, [], field))
        for path, extra, field in cases:
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *extra]) == 2
            assert field in capsys.readouterr().err

    def test_unwritable_out_dir_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=1)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(blocker)]) == 3

    def test_steps_override_and_disable_landuse(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=6, landuse_enabled=True)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--steps", "1", "--disable-landuse", "--out", str(out)])
        rows = read_csv(out / "history.csv")
        assert len(rows) == 2
        state = json.loads((out / "final_state.json").read_text())
        densities = state["worker_density_history"]
        assert densities[0] == densities[-1]

    def test_final_state_supports_offline_recomputation(self, tmp_path):
        # The checker recomputes the last indicators, the link geometry and
        # the link times from final_state.json alone.
        cfg_path = write_config(tmp_path, steps=2)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert check_run_dir(out) == []
        links = json.loads((out / "final_state.json").read_text())["links"]
        assert len(links) == 2
        for link in links:
            assert isinstance(link["v_link"], float) and isinstance(link["capacity"], float)

        # A config built in Python with an integer speed and capacity stores
        # them as floats, so the config and both link records write JSON floats.
        cfg = two_city_config(steps=0, v_link=75, capacity=1500, initial_links=((0, 11), (11, 22)))
        cmd_run(cfg, 0, tmp_path / "int_config")
        text = (tmp_path / "int_config" / "final_state.json").read_text(encoding="utf-8")
        assert [(link["from"], link["to"]) for link in json.loads(text)["links"]] == [(0, 11), (11, 22)]
        assert text.count('"v_link": 75.0, "capacity": 1500.0,') == 3

    @pytest.mark.parametrize("bpr_beta", [4.0, 0.0])
    def test_final_state_link_times_are_bpr_of_their_flows(self, tmp_path, bpr_beta):
        # The checker holds each link's congested_time to the config's BPR
        # curve at its flow. Here some links carry flow, past capacity 60,
        # and the link built last carries none yet.
        cfg_path = write_config(tmp_path, steps=2, capacity=60.0, bpr_beta=bpr_beta,
                                initial_links=((0, 11), (11, 22), (22, 33)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert check_run_dir(out) == []
        flow = [link["flow"] for link in json.loads((out / "final_state.json").read_text())["links"]]
        assert len(flow) == 5 and max(flow) > 60.0 and flow[-1] == 0.0


class TestReplicate:
    def test_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=2)
        out = tmp_path / "out"
        code = main(["replicate", "--config", str(cfg_path), "--replications", "4",
                     "--base-seed", "0", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "replicate_summary.csv")
        assert len(rows) == 1
        assert rows[0]["n"] == "4"
        assert (out / "ellipse.svg").exists()

    def test_single_replication_degenerates_to_point(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=1)
        out = tmp_path / "out"
        assert main(["replicate", "--config", str(cfg_path), "--replications", "1", "--out", str(out)]) == 0
        row = read_csv(out / "replicate_summary.csv")[0]
        assert float(row["axis_major"]) == 0.0
        assert float(row["axis_minor"]) == 0.0

    @pytest.mark.parametrize("xi, replications", [(0.0, "2"), (0.5, "1")], ids=["xi-zero", "one-replication"])
    def test_zero_variance_at_large_accessibility_draws_the_ellipse(self, tmp_path, xi, replications):
        # The mean accessibility, 2.18e8, is above 2**25, where floats are
        # spaced wider than the plot's minimum half-span of 3e-9.
        cfg_path = write_config(tmp_path, steps=1, xi=xi, dominant_amplitude=4000.0, minor_amplitude=1000.0)
        out = tmp_path / "out"
        assert main(["replicate", "--config", str(cfg_path), "--replications", replications, "--out", str(out)]) == 0
        assert float(read_csv(out / "replicate_summary.csv")[0]["mean_accessibility"]) > 2.0**25
        svg = (out / "ellipse.svg").read_text(encoding="utf-8")
        assert "nan" not in svg and "inf" not in svg

    def test_finals_csv_holds_each_replicate_in_seed_order(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=2, xi=1.0)
        out = tmp_path / "out"
        assert main(["replicate", "--config", str(cfg_path), "--replications", "4", "--base-seed", "7",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "replicate_finals.csv")
        stats = replicate(two_city_config(steps=2, xi=1.0), 4, 7)
        assert [int(r["seed"]) for r in rows] == [7, 8, 9, 10]
        assert [[r["total_accessibility"], r["total_travel_time"]] for r in rows] == [
            [repr(acc), repr(time)] for acc, time in stats.finals.tolist()]

    def test_ellipse_plot_frames_the_replicates_and_the_ellipse(self, tmp_path):
        import xml.etree.ElementTree as ET

        cfg_path = write_config(tmp_path, steps=4, xi=1.0)
        out = tmp_path / "out"
        assert main(["replicate", "--config", str(cfg_path), "--replications", "20", "--base-seed", "0",
                     "--out", str(out)]) == 0
        root = ET.parse(out / "ellipse.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        frame = next(r for r in root.iter(ns + "rect") if r.get("fill") == "none")
        fx, fy = float(frame.get("x")), float(frame.get("y"))
        fw, fh = float(frame.get("width")), float(frame.get("height"))
        points = [(float(c.get("cx")), float(c.get("cy"))) for c in root.iter(ns + "circle")]
        (polygon,) = root.iter(ns + "polygon")
        vertices = [tuple(map(float, p.split(","))) for p in polygon.get("points").split()]
        assert len(points) == 21 and len(vertices) == 64
        for x, y in points + vertices:
            assert fx <= x <= fx + fw and fy <= y <= fy + fh, (x, y)

        times = [float(r["total_travel_time"]) for r in read_csv(out / "replicate_finals.csv")]
        assert min(times) < max(times)
        y_lo, y_hi = sorted(float(t.text) for t in root.iter(ns + "text") if t.get("text-anchor") == "end")
        assert y_lo <= min(times) and max(times) <= y_hi
        assert y_hi - y_lo < 10 * (max(times) - min(times))


class TestSweep:
    def test_row_cardinality_and_order(self, tmp_path):
        # Rows and each curve's points ascend in xi whatever order --xi lists.
        import xml.etree.ElementTree as ET

        cfg_path = write_config(tmp_path, steps=1)
        for xi in ("0,1", "1,0"):
            out = tmp_path / xi
            code = main(["sweep", "--config", str(cfg_path), "--xi", xi,
                         "--replications", "1", "--configurations", "equal_far", "--out", str(out)])
            assert code == 0
            rows = read_csv(out / "sweep.csv")
            assert len(rows) == 2
            assert [r["xi"] for r in rows] == ["0.0", "1.0"]
            assert (out / "trend.csv").exists()
            (polyline,) = ET.parse(out / "sweep.svg").getroot().iter("{http://www.w3.org/2000/svg}polyline")
            xs = [float(point.split(",")[0]) for point in polyline.get("points").split()]
            assert len(xs) == 2 and xs[0] < xs[1]

    def test_all_configurations_run(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=1)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--xi", "0.5",
                     "--replications", "2", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        names = sorted({r["configuration"] for r in rows})
        assert names == ["equal_far", "equal_near", "unequal_far", "unequal_near"]
        assert len(rows) == 8
        trend_rows = read_csv(out / "trend.csv")
        assert len(trend_rows) == 4

    def test_bad_xi_list_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, steps=1)
        for xi, message in (("0,2.0", "xi: value 2.0 outside [0, 1]"), ("0,0,1", "xi: duplicate value 0.0"),
                            (",", "xi: must be nonempty"), ("a,b", "xi: could not parse list 'a,b'")):
            assert main(["sweep", "--config", str(cfg_path), "--xi", xi,
                         "--out", str(tmp_path / "o")]) == 2
            assert f"configuration error: {message}\n" in capsys.readouterr().err

    def test_bad_configuration_list_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, steps=1)
        out = tmp_path / "o"
        for names, message in (("nonsense", "configurations: unknown names ['nonsense']"),
                               ("", "configurations: must be nonempty"),
                               (",", "configurations: must be nonempty"),
                               ("equal_far,equal_far", "configurations: duplicate name 'equal_far'")):
            assert main(["sweep", "--config", str(cfg_path), "--configurations", names, "--xi", "0",
                         "--replications", "1", "--out", str(out)]) == 2
            assert f"configuration error: {message}\n" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_config_error_in_a_lane_exits_2(self, tmp_path, capsys, workers):
        # The scenario constructor accepts all job shares at 0; the initial
        # state rejects them. That ConfigError ends the sweep, from a pool
        # worker too, before any output is made.
        cfg_path = write_config(tmp_path, steps=1, minor_job_share=0.0, dominant_job_share=0.0)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg_path), "--configurations", "equal_far,unequal_far",
                     "--xi", "0,1", "--replications", "1", "--workers", workers, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: centers: zero total job density, cannot place jobs\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("sweep", ["--workers", "0"], "workers: must be >= 1", id="0"),
        pytest.param("sweep", ["--workers", "-1"], "workers: must be >= 1", id="-1"),
        pytest.param("sweep", ["--replications", "0"], "replications: must be >= 1", id="sweep-replications-0"),
        pytest.param("replicate", ["--replications", "0"], "replications: must be >= 1",
                     id="replicate-replications-0"),
    ])
    def test_nonpositive_workers_exit_2(self, tmp_path, capsys, command, flags, message):
        cfg_path = write_config(tmp_path, steps=1)
        out = tmp_path / "o"
        if command == "sweep":
            flags = ["--xi", "0", "--replications", "1", "--configurations", "equal_far", *flags]
        assert main([command, "--config", str(cfg_path), *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_batch_inputs_are_checked_when_built(self, tmp_path):
        config = two_city_config(steps=1)
        spec = dict(configurations={"equal_far": config}, xi_values=(0.0,), replications=1, base_seed=0,
                    out_dir=tmp_path / "o")
        for field, value in (("configurations", {}), ("replications", 0)):
            with pytest.raises(ConfigError, match=f"^{field}: "):
                SweepSpec(**(spec | {field: value}))
        with pytest.raises(ConfigError, match="^replications: "):
            replicate(config, 0, 0)

    def test_worker_pool_matches_sequential(self, tmp_path):
        cfg_path = write_config(tmp_path, steps=1)
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        args = ["sweep", "--config", str(cfg_path), "--xi", "0,1", "--replications", "2",
                "--configurations", "equal_near,unequal_far"]
        assert main(args + ["--out", str(out_seq)]) == 0
        assert main(args + ["--out", str(out_par), "--workers", "2"]) == 0
        assert (out_seq / "sweep.csv").read_bytes() == (out_par / "sweep.csv").read_bytes()

    @staticmethod
    def _serial_pool(monkeypatch) -> list[int]:
        # A fake pool that maps serially and starts no process; cmd_sweep
        # imports the pool class only when it starts one. Returns the list of
        # worker counts that the sweeps request.
        import concurrent.futures

        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return requested

    def test_worker_pool_no_larger_than_the_sweep(self, tmp_path, monkeypatch):
        # A process pool starts all its workers at the first submit. A sweep
        # runs one task per preset, so 2 presets must not ask for 8.
        requested = self._serial_pool(monkeypatch)
        cfg_path = write_config(tmp_path, steps=1)
        out_seq = tmp_path / "seq"
        args = ["sweep", "--config", str(cfg_path), "--xi", "0,1", "--replications", "2",
                "--configurations", "equal_far,unequal_far"]
        assert main(args + ["--out", str(out_seq)]) == 0
        for workers in ("8", "2"):
            assert main(args + ["--out", str(tmp_path / workers), "--workers", workers]) == 0
            assert (out_seq / "sweep.csv").read_bytes() == (tmp_path / workers / "sweep.csv").read_bytes()
        assert requested == [2, 2]

    def test_one_preset_runs_on_one_memo_at_any_workers(self, tmp_path, monkeypatch):
        # One preset is one task: spare workers start no pool, and its xi x
        # seed lanes share every build prefix, so each half of a step is
        # computed as often as in the serial run.
        requested = self._serial_pool(monkeypatch)
        calls = Counter()
        for name in ("advance", "decide_and_build"):
            real = getattr(engine, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        cfg_path = write_config(tmp_path, steps=3)
        args = ["sweep", "--config", str(cfg_path), "--xi", "0,0.5,1", "--replications", "3",
                "--configurations", "unequal_far"]
        counts = {}
        for workers in ("1", "4"):
            assert main(args + ["--out", str(tmp_path / workers), "--workers", workers]) == 0
            counts[workers] = calls.copy()
            calls.clear()
        assert counts["1"] == counts["4"] and counts["1"]["decide_and_build"] > 0
        assert requested == []
        for name in ("sweep.csv", "trend.csv", "sweep.svg"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()

    def test_failing_lane_leaves_the_memo_clean(self, tmp_path, monkeypatch, capsys):
        # The second build of the sweep, step 2 of the first lane, raises. The
        # next lane shares step 1 with it and must compute step 2 afresh.
        import metrosim.engine as engine_mod

        real_build = engine_mod.decide_and_build
        builds = []

        def flaky_build(*args, **kwargs):
            builds.append(1)
            if len(builds) == 2:
                raise RuntimeError("flaky build")
            return real_build(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "decide_and_build", flaky_build)
        cfg_path = write_config(tmp_path, steps=2)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--xi", "0,1", "--replications", "2",
                     "--configurations", "equal_far,unequal_far", "--out", str(out)])
        monkeypatch.undo()
        assert code == 1
        assert "flaky build" in capsys.readouterr().err
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 8
        assert [(r["configuration"], r["xi"], r["seed"]) for r in rows if r["total_accessibility"] == ""] == [
            ("equal_far", "0.0", "0")]
        presets = sweep_configurations(two_city_config(steps=2))
        for r in rows[1:]:
            last = run(replace(presets[r["configuration"]], xi=float(r["xi"])), int(r["seed"])).history[-1]
            assert (float(r["total_accessibility"]), float(r["total_travel_time"])) == (
                last.total_accessibility, last.total_travel_time)

    def test_failed_cells_recorded_and_exit_nonzero(self, tmp_path, monkeypatch, capsys):
        import metrosim.cli as cli_mod

        real_run = cli_mod.engine.run

        def flaky_run(config, seed, **kwargs):
            if seed == 1:
                raise RuntimeError("boom")
            return real_run(config, seed, **kwargs)

        monkeypatch.setattr(cli_mod.engine, "run", flaky_run)
        cfg_path = write_config(tmp_path, steps=1)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--xi", "0.5", "--replications", "2",
                     "--configurations", "equal_far", "--out", str(out)])
        assert code == 1
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2
        failed = [r for r in rows if r["seed"] == "1"]
        assert failed[0]["total_accessibility"] == ""
        assert "boom" in capsys.readouterr().err


def test_sweep_configurations_shapes():
    base = two_city_config()
    variants = sweep_configurations(base)
    assert set(variants) == {"equal_near", "equal_far", "unequal_near", "unequal_far"}
    eq = variants["equal_far"].centers
    assert eq[0].amplitude == eq[1].amplitude
    uneq = variants["unequal_far"].centers
    assert uneq[1].amplitude > uneq[0].amplitude
    near = variants["equal_near"].centers
    far = variants["equal_far"].centers
    def separation(centers):
        (r0, c0), (r1, c1) = centers[0].position, centers[1].position
        return ((r0 - r1) ** 2 + (c0 - c1) ** 2) ** 0.5
    assert separation(near) < separation(far)


def test_spearman_trend_signs():
    assert spearman_trend([0.0, 0.25, 0.5, 0.75, 1.0], [5.0, 4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    assert spearman_trend([0.0, 0.5, 1.0], [1.0, 1.0, 1.0]) == 0.0
    assert spearman_trend([0.0, 0.5, 1.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_spearman_trend_matches_scipy():
    from scipy import stats

    rng = np.random.default_rng(0)
    compared = 0
    for _ in range(12_000):
        n = int(rng.integers(2, 13))
        # Small integers tie often; continuous values almost never do.
        x, y = ([float(v) for v in (rng.integers(0, 4, n) if rng.random() < 0.5 else rng.normal(size=n))]
                for _ in range(2))
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue  # flat profiles return 0.0, where spearmanr has no value
        assert spearman_trend(x, y) == float(stats.spearmanr(x, y)[0]), (x, y)
        compared += 1
    assert compared >= 10_000


def test_cli_imports_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(metrosim.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys, metrosim.cli; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_imports_no_process_pool():
    # Only sweep --workers above 1 starts a pool; every other process would
    # pay for loading multiprocessing and concurrent.futures at start-up.
    env = {**os.environ, "PYTHONPATH": str(Path(metrosim.__file__).resolve().parents[1])}
    code = "import sys, metrosim.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_commands_import_nothing_after_the_cli(tmp_path):
    # A module that a command imports lazily costs every fresh process that
    # runs it; the hash path of np.unique, for one, imports numpy.ma on its
    # first call.
    code = """
import sys
from pathlib import Path
from metrosim import cli
from metrosim.config import two_city_config
before = set(sys.modules)
out = Path(sys.argv[1])
config = two_city_config(steps=2)
cli.cmd_run(config, 0, out / "run")
cli.cmd_replicate(config, 2, 0, out / "replicate")
presets = cli.sweep_configurations(config)
cli.cmd_sweep(cli.SweepSpec(configurations={"unequal_far": presets["unequal_far"]}, xi_values=(0.0, 1.0),
                            replications=1, base_seed=0, out_dir=out / "sweep", workers=1))
print(sorted(set(sys.modules) - before))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(metrosim.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_json_matrix_matches_json_dumps():
    special = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1.5, 0.1,
               1e16, 9999999999999998.0, 1e-05, 0.0001, 1.7976931348623157e308, -1e16]
    rng = np.random.default_rng(0)
    cols = 1000
    per_block = output._JSON_BLOCK_ENTRIES // cols
    assert per_block > 1
    cases = [
        np.array([[0.0, -0.0, 5e-324, np.inf], [-np.inf, np.nan, 1.5, 1.5], [0.1, 0.1, -0.0, 0.0]]),
        np.array(special).reshape(2, 7),
        np.zeros((0, 5)),
        np.zeros((4, 0)),
        np.array([[1e-05]]),
    ]
    # One row fewer than a block, one block, and one row more.
    for rows in (per_block - 1, per_block, per_block + 1):
        m = rng.choice(special + rng.random(64).tolist(), size=(rows, cols))
        cases.append(m)
    for m in cases:
        f = io.StringIO()
        _write_json_matrix(f, m)
        assert f.getvalue() == json.dumps(m.tolist()), m.shape


def _map_case(rows, cols, n_centers=2, density="random", links=()):
    base = two_city_config(grid_rows=rows, grid_cols=cols, minor_position=(rows - 1, cols - 1),
                           dominant_position=(0, 0))
    centers = tuple(replace(base.centers[i % 2], position=((2 * i) % rows, (3 * i) % cols))
                    for i in range(n_centers))
    config = replace(base, centers=centers)
    rng = np.random.default_rng(rows * 100 + cols)
    n = rows * cols
    if density == "zero":
        values = np.zeros(n)
    else:
        # Shares k/390 put 255 - 195 * share on halves, where rounding is to even.
        values = rng.random(n) * 50.0
        values[: n // 2] = values.max() * rng.integers(0, 391, n // 2) / 390
    territory = rng.integers(0, n_centers, n)
    return config, values, territory, list(links)


MAP_CASES = {
    "1x1": _map_case(1, 1),
    "1x7": _map_case(1, 7, links=((0, 6), (2, 3))),
    "7x1": _map_case(7, 1, links=((0, 6),)),
    "5x9": _map_case(5, 9),
    "5x9-seven-centres": _map_case(5, 9, n_centers=7, links=((0, 44), (4, 40), (9, 17))),
    "5x9-zero-density": _map_case(5, 9, density="zero"),
    "5x9-straight-links": _map_case(5, 9, links=((0, 8), (4, 40), (10, 11))),
    "5x9-diagonal-links": _map_case(5, 9, links=((0, 10), (8, 16), (3, 41))),
}


@pytest.mark.parametrize("case", MAP_CASES.values(), ids=MAP_CASES.keys())
def test_map_svg_matches_the_cell_by_cell_oracle(tmp_path, case):
    path = tmp_path / "map.svg"
    output.render_map_svg(path, *case)
    assert path.read_bytes() == oracles.map_svg_oracle(*case).encode("utf-8")


def test_final_state_json_matches_json_dumps_of_the_document(tmp_path):
    cfg = two_city_config(grid_rows=20, grid_cols=20, minor_position=(16, 16), dominant_position=(2, 2),
                          landuse_enabled=True, xi=0.0, steps=2)
    state = run(cfg, 0)
    path = tmp_path / "final_state.json"
    write_final_state_json(path, state)

    net, metropolis = state.network, state.metropolis
    doc = {
        "config": config_to_dict(cfg),
        "step": len(state.decisions),
        "workers": metropolis.workers.tolist(),
        "jobs": metropolis.jobs.tolist(),
        "territory": metropolis.territory.tolist(),
        "links": [
            {"from": a, "to": b, "length_km": length, "v_link": float(cfg.v_link), "capacity": float(cfg.capacity),
             "flow": flow, "congested_time": time}
            for a, b, length, flow, time in zip(
                net.a.tolist(), net.b.tolist(), metropolis.distance_km[net.a, net.b].tolist(),
                net.flow.tolist(), transport.congested_times(net, metropolis).tolist())
        ],
        "travel_times": state.travel_times.tolist(),
        "worker_density_history": [dens.tolist() for dens in state.density_history],
    }
    assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"


def test_step_working_set_stays_within_a_few_n_by_n_arrays(tmp_path):
    # Peaks measured on this run, in (N, N) float64 arrays; each call may
    # reach half an array more. Stages that formed their temporaries out of
    # place, and a writer that built the whole text, peaked at 6.1, 5.1, 6.1
    # and 9.3 arrays; an assignment that held its own AFC matrix beside the
    # loader's took advance to 5.53, and a loader that formed its work
    # arrays on every MSA pass to 4.53.
    measured = {"decide_and_build": 4.20, "distribute": 3.12, "advance": 4.26, "write_final_state_json": 2.15}
    cfg = two_city_config(grid_rows=20, grid_cols=20, minor_position=(16, 16), dominant_position=(2, 2),
                          landuse_enabled=True, xi=0.0, steps=2)
    state = run(cfg, 0)
    metropolis = state.metropolis
    d = state.travel_times
    calls = {
        "decide_and_build": lambda: governance.decide_and_build(
            metropolis, state.assigned, governance.Stakeholder()),
        "distribute": lambda: transport.distribute(metropolis, d),
        "advance": lambda: engine.advance(state),
        "write_final_state_json": lambda: write_final_state_json(tmp_path / "final_state.json", state),
    }
    array_bytes = metropolis.n_cells**2 * 8
    peaks = {}
    for name, call in calls.items():
        call()  # first-call set-up is not part of the working set
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / array_bytes
        finally:
            tracemalloc.stop()
    assert all(peaks[name] <= measured[name] + 0.5 for name in calls), peaks


def test_svgs_are_valid_xml(tmp_path):
    import xml.etree.ElementTree as ET

    cfg_path = write_config(tmp_path, steps=1)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    main(["replicate", "--config", str(cfg_path), "--replications", "2", "--out", str(out)])
    main(["sweep", "--config", str(cfg_path), "--xi", "0,1", "--replications", "1",
          "--configurations", "equal_near", "--out", str(out)])
    for svg in out.glob("*.svg"):
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
