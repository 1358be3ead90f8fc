from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from metrosim.config import (
    CenterSpec,
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    two_city_config,
)
from metrosim.world import (
    grid_centroids,
    init_metropolis,
    mayor_weights,
    natural_totals,
    raw_density,
)

from oracles import density_oracle


def test_density_at_center_equals_amplitude(small_config):
    cfg = replace(small_config, centers=(replace(small_config.centers[0], gradient=0.5),))
    rho = raw_density(cfg)
    center_cell = 2 * cfg.grid_cols + 2
    assert rho[center_cell] == pytest.approx(50.0, abs=1e-12)


def test_density_law_matches_oracle(two_city):
    rho = raw_density(two_city)
    for cell in range(two_city.n_cells):
        assert abs(rho[cell] - density_oracle(two_city, cell)) < 1e-12


def test_mirrored_centers_give_mirror_symmetric_field():
    cfg = two_city_config(
        minor_position=(2, 2), dominant_position=(7, 7),
        minor_amplitude=120.0, dominant_amplitude=120.0,
        minor_job_share=0.5, dominant_job_share=0.5,
    )
    rho = raw_density(cfg).reshape(10, 10)
    mirrored = rho[::-1, ::-1]  # 180-degree rotation swaps the two centres
    assert np.max(np.abs(rho - mirrored)) < 1e-9


def test_init_scales_worker_total(two_city):
    metropolis = init_metropolis(two_city, total_workers=10000.0, total_jobs=8000.0)
    assert metropolis.workers.sum() == pytest.approx(10000.0, abs=1e-6)
    assert metropolis.jobs.sum() == pytest.approx(8000.0, abs=1e-6)
    assert (metropolis.workers >= 0).all() and (metropolis.jobs >= 0).all()


def test_init_splits_categories_by_mix(small_config):
    cfg = replace(
        small_config,
        categories=2,
        centers=(replace(small_config.centers[0], mix=(0.25, 0.75)),),
        m=np.zeros((2, 2)),
        m_prime=np.zeros((2, 2)),
    )
    metropolis = init_metropolis(cfg, 1000.0, 1000.0)
    assert metropolis.workers[:, 0].sum() == pytest.approx(250.0, rel=1e-12)
    assert metropolis.workers[:, 1].sum() == pytest.approx(750.0, rel=1e-12)


def test_natural_totals_match_raw_density(two_city):
    workers, jobs = natural_totals(two_city)
    assert workers == pytest.approx(raw_density(two_city).sum(), rel=1e-12)
    assert jobs == workers


def test_single_center_means_single_territory(small_config):
    metropolis = init_metropolis(small_config, 100.0, 100.0)
    assert (metropolis.territory == 0).all()


def test_opposite_corner_centers_split_grid_evenly():
    # Corners of the same edge: the bisector runs between columns, so no cell ties.
    cfg = two_city_config(grid_rows=6, grid_cols=6,
                          minor_position=(0, 0), dominant_position=(0, 5))
    metropolis = init_metropolis(cfg, 100.0, 100.0)
    counts = np.bincount(metropolis.territory, minlength=2)
    assert counts[0] == counts[1] == 18


def test_territory_tie_breaks_to_lowest_center_index():
    cfg = two_city_config(grid_rows=3, grid_cols=3,
                          minor_position=(1, 0), dominant_position=(1, 2))
    metropolis = init_metropolis(cfg, 10.0, 10.0)
    # The middle column is equidistant from both centres.
    assert metropolis.territory[1 * 3 + 1] == 0


def test_mayor_weights_sum_jobs_per_territory(two_city):
    metropolis = init_metropolis(two_city, 1000.0, 1000.0)
    weights = mayor_weights(metropolis)
    assert weights.sum() == pytest.approx(1000.0, rel=1e-9)
    for i in range(2):
        expected = metropolis.jobs[metropolis.territory == i].sum()
        assert weights[i] == pytest.approx(expected, rel=1e-12)


def test_metropolis_is_frozen(two_city):
    metropolis = init_metropolis(two_city, 1000.0, 1000.0)
    with pytest.raises(FrozenInstanceError):
        metropolis.workers = metropolis.workers * 2.0


def test_config_preference_matrices_are_private_and_read_only():
    m = np.array([[0.05, 0.01], [0.02, 0.05]])
    config = two_city_config(m=m, m_prime=m)
    for name in ("m", "m_prime"):
        with pytest.raises(ValueError):
            getattr(config, name)[0, 0] = 1.0
    m[0, 0] = 9.0
    assert config.m[0, 0] == 0.05 and config.m_prime[0, 0] == 0.05


def test_mayor_weights_track_job_moves(two_city):
    metropolis = init_metropolis(two_city, 1000.0, 1000.0)
    before = mayor_weights(metropolis)
    donor = int(np.nonzero(metropolis.territory == 0)[0][0])
    receiver = int(np.nonzero(metropolis.territory == 1)[0][0])
    metropolis.jobs[donor, 0] -= 1.0
    metropolis.jobs[receiver, 0] += 1.0
    after = mayor_weights(metropolis)
    assert after[0] == pytest.approx(before[0] - 1.0, abs=1e-9)
    assert after[1] == pytest.approx(before[1] + 1.0, abs=1e-9)


def test_symmetric_cities_have_equal_weights():
    # Same-row centres leave no equidistant cells, so the split is truly mirror
    # symmetric and the job weights must coincide.
    cfg = two_city_config(minor_position=(4, 2), dominant_position=(4, 7),
                          minor_amplitude=150.0, dominant_amplitude=150.0,
                          minor_job_share=0.5, dominant_job_share=0.5)
    metropolis = init_metropolis(cfg, 2000.0, 2000.0)
    weights = mayor_weights(metropolis)
    assert abs(weights[0] - weights[1]) < 1e-9


def test_territories_partition_the_grid(two_city):
    metropolis = init_metropolis(two_city, 500.0, 500.0)
    counts = np.bincount(metropolis.territory, minlength=metropolis.n_mayors)
    assert counts.sum() == two_city.n_cells
    assert (metropolis.territory >= 0).all()
    assert (metropolis.territory < metropolis.n_mayors).all()


def test_zero_density_rejected(small_config):
    # All job shares zero leaves no raw density to scale jobs onto.
    cfg = replace(small_config, centers=(replace(small_config.centers[0], job_share=0.0),))
    with pytest.raises(ConfigError):
        init_metropolis(cfg, 100.0, 100.0)


def test_centroids_are_cell_centres(small_config):
    pts = grid_centroids(small_config)
    assert pts[0].tolist() == [0.5, 0.5]
    assert pts[small_config.grid_cols - 1].tolist() == [4.5, 0.5]


# Both centres on cell (0, 0), so every grid side in range holds them.
_EDGE_BASE = two_city_config(minor_position=(0, 0), dominant_position=(0, 0))


def _next(value, up, integral):
    return value + (1 if up else -1) if integral else math.nextafter(value, math.inf if up else -math.inf)


def _declared_edge_cases():
    """Each declared range at its edges, as (name, edit, expected message or None).

    Generated from the field declarations of ScenarioConfig and CenterSpec
    (centre 1 stands for any centre). The bound itself is accepted for >= and
    [lo, hi] and rejected for >; the next value past the bound (±1 for an int,
    the adjacent float for a float) is rejected. A tuple field's rule holds
    for each entry; its value is the composition (x, 1 - x).
    """
    keys = dict(zip((f.name for f in fields(ScenarioConfig)), config_to_dict(_EDGE_BASE)))
    centers = _EDGE_BASE.centers
    cases = []
    for cls, prefix in ((ScenarioConfig, ""), (CenterSpec, "centers[1].")):
        for f in fields(cls):
            if "range" not in f.metadata:
                continue
            op, lo, hi = f.metadata["range"]
            name = prefix + keys.get(f.name, f.name)
            integral, entries = f.type == "int", f.type.startswith("tuple")
            bound = f"lie in [{lo}, {hi}]" if op == "in" else f"be {op} {lo}"
            must = f"{name}: {'entries ' if entries else ''}must {bound}"
            edges = [(lo, must if op == ">" else None), (_next(lo, False, integral), must)]
            if op == ">":
                edges.append((_next(lo, True, integral), None))
            if op == "in":
                edges += [(hi, None), (_next(hi, True, integral), must)]
            for x, expected in edges:
                x = x if integral else float(x)
                value = (x, 1 - x) if entries else x
                if cls is CenterSpec:
                    edit = dict(centers=(centers[0], replace(centers[1], **{f.name: value})))
                else:
                    edit = {f.name: value}
                cases.append(pytest.param(name, edit, expected, id=f"{name}={value!r}"))
    return cases


@pytest.mark.parametrize(("name", "edit", "expected"), _declared_edge_cases())
def test_declared_range_holds_at_its_edges(name, edit, expected):
    # A rejected value raises the rule's full message. An accepted one raises
    # nothing that names its field; it may still break a rule relating it to
    # another field (categories 1 against two-entry mixes), which names that field.
    if expected is not None:
        with pytest.raises(ConfigError) as info:
            replace(_EDGE_BASE, **edit)
        assert str(info.value) == expected
        return
    try:
        replace(_EDGE_BASE, **edit)
    except ConfigError as exc:
        assert not str(exc).startswith(f"{name}: "), str(exc)


def test_declared_range_messages():
    # The generated cases cover every kind of rule with the messages a user reads.
    messages = {case.values[2] for case in _declared_edge_cases()}
    assert {"capacity: must be > 0", "gamma: must lie in [0, 1]", "grid_rows: must lie in [1, 32767]",
            "lambda: must be >= 0", "centers[1].mix: entries must be >= 0"} <= messages


class TestConfigJson:
    def test_round_trip(self, tmp_path, two_city):
        # Saving what load_config read back writes the same text, also for a
        # config built in Python with ints in float fields.
        path = tmp_path / "scenario.json"
        for config in (two_city, two_city_config(cell_size_km=1, capacity=1500, initial_links=((0, 11),))):
            save_config(config, path)
            text = path.read_text(encoding="utf-8")
            save_config(load_config(path), path)
            assert path.read_text(encoding="utf-8") == text
            assert json.dumps(config_to_dict(load_config(path))) == json.dumps(config_to_dict(config))

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        plain = two_city_config(steps=3, xi=0.5, initial_links=((0, 1),))
        config = two_city_config(steps=np.int64(3), xi=np.float64(0.5),
                                 initial_links=((np.int64(0), np.int32(1)),))
        assert (type(config.steps), type(config.xi)) == (int, float)
        assert [type(end) for end in config.initial_links[0]] == [int, int]
        assert json.dumps(config_to_dict(config)) == json.dumps(config_to_dict(plain))

    @pytest.mark.parametrize(
        ("field", "overrides"),
        [
            ("assignment_iterations: ", dict(assignment_iterations=2.5)),
            ("steps: ", dict(steps=2.0)),
            ("furness_max_iter: ", dict(furness_max_iter=math.inf)),
            ("landuse_enabled: ", dict(landuse_enabled=1)),
            ("network_extension_radius: ", dict(network_extension_radius=2.5)),
            (r"initial_links\[0\]", dict(initial_links=((0, 1.5),))),
            (r"centers\[0\]\.position", dict(minor_position=(8.0, 8))),
            ("nu: must be finite", dict(nu=10**400)),
        ],
        ids=["float_int", "float_steps", "inf_int", "int_bool", "float_radius", "float_link_end",
             "float_position", "huge_int_float"],
    )
    def test_python_config_type_names_field(self, field, overrides):
        # A config built in Python goes through the same type checks as one
        # read from JSON, so it fails here and not inside a run.
        with pytest.raises(ConfigError, match=f"^{field}"):
            two_city_config(**overrides)

    def test_unknown_key_rejected(self, two_city):
        doc = config_to_dict(two_city)
        doc["lambda_typo"] = 1.0
        with pytest.raises(ConfigError, match="lambda_typo"):
            config_from_dict(doc)

    def test_missing_key_rejected(self, two_city):
        doc = config_to_dict(two_city)
        del doc["nu"]
        with pytest.raises(ConfigError, match="nu"):
            config_from_dict(doc)

    def test_out_of_range_xi_names_field(self, two_city):
        doc = config_to_dict(two_city)
        doc["xi"] = 1.5
        with pytest.raises(ConfigError, match="xi"):
            config_from_dict(doc)

    @pytest.mark.parametrize(("field", "value"), [
        ("relocation_fraction", -0.1),
        ("relocation_fraction", 1.5),
        ("assignment_iterations", 0),
    ])
    def test_out_of_range_step_constant_names_field(self, tmp_path, field, value):
        # The constructor is the only check of the constants that relocate and
        # assign_traffic read, from Python and from JSON alike.
        with pytest.raises(ConfigError, match=f"^{field}: "):
            replace(two_city_config(), **{field: value})
        doc = config_to_dict(two_city_config())
        doc[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{field}: "):
            load_config(path)

    @pytest.mark.parametrize(("index", "links"), [
        (0, ((3, 3),)),
        (1, ((0, 1), (2, -1))),
        (1, ((0, 1), (2, 100))),
        (1, ((0, 1), (0, 1))),
        (1, ((0, 1), (1, 0))),
    ], ids=["self_loop", "negative_cell", "cell_past_grid", "duplicate", "reversed_duplicate"])
    def test_bad_initial_link_names_index(self, tmp_path, index, links):
        # The constructor is the only check of the links a network is built
        # from (Network.with_link appends without one), from Python and from
        # JSON alike. The default grid has 100 cells.
        with pytest.raises(ConfigError, match=rf"^initial_links\[{index}\]: "):
            two_city_config(initial_links=links)
        doc = config_to_dict(two_city_config())
        doc["initial_links"] = [list(link) for link in links]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^initial_links\[{index}\]: "):
            load_config(path)

    def test_bad_mix_names_center(self, two_city):
        for mix in ([0.7, 0.7], 1.0, None, True):
            doc = config_to_dict(two_city)
            doc["centers"][0]["mix"] = mix
            with pytest.raises(ConfigError, match=r"centers\[0\].mix"):
                config_from_dict(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_names_field(self, tmp_path, value):
        # From Python and from JSON (whose NaN and Infinity literals Python's
        # json module reads), validation rejects every non-finite float field.
        centers = two_city_config().centers
        python_cases = [
            ("nu", dict(nu=value)),
            ("lambda", dict(lam=value)),
            ("furness_tolerance", dict(furness_tolerance=value)),
            ("v_local", dict(v_local=value)),
            (r"centers\[1\]\.gradient", dict(centers=(centers[0], replace(centers[1], gradient=value)))),
            (r"centers\[0\]\.mix", dict(centers=(replace(centers[0], mix=(value, 0.5)), centers[1]))),
            ("m_prime", dict(m_prime=np.array([[0.05, value], [0.0, 0.05]]))),
        ]
        for field, overrides in python_cases:
            with pytest.raises(ConfigError, match=f"^{field}: "):
                two_city_config(**overrides)
        json_cases = [
            ("nu", lambda doc: doc.update(nu=value)),
            ("lambda", lambda doc: doc.update({"lambda": value})),
            ("capacity", lambda doc: doc.update(capacity=value)),
            (r"centers\[1\]\.amplitude", lambda doc: doc["centers"][1].update(amplitude=value)),
            (r"centers\[0\]\.job_share", lambda doc: doc["centers"][0].update(job_share=value)),
            ("m", lambda doc: doc["m"][0].__setitem__(1, value)),
        ]
        path = tmp_path / "scenario.json"
        for field, edit in json_cases:
            doc = config_to_dict(two_city_config())
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ConfigError, match=f"^{field}: "):
                load_config(path)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="steps"):
            replace(two_city_config(), steps=-1)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        # The last input is valid JSON whose integer is too long for Python to parse.
        for raw in (b"{not json", b"\xff\xfe{}", b'{"nu": ' + b"9" * 5000 + b"}"):
            path.write_bytes(raw)
            with pytest.raises(ConfigError, match="scenario document"):
                load_config(path)

    def test_greek_parameters_use_spec_keys(self, two_city):
        doc = config_to_dict(two_city)
        assert "lambda" in doc and "m_prime" in doc
        assert json.dumps(doc)  # serialisable as-is
