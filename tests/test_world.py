from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from metrosim.config import (
    ConfigError,
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


def _density_oracle(config, cell):
    """Independent recomputation of the multi-centre exponential law at one cell."""
    row, col = divmod(cell, config.grid_cols)
    x = (col + 0.5) * config.cell_size_km
    y = (row + 0.5) * config.cell_size_km
    total = 0.0
    for c in config.centers:
        cx = (c.position[1] + 0.5) * config.cell_size_km
        cy = (c.position[0] + 0.5) * config.cell_size_km
        total += c.amplitude * math.exp(-c.gradient * math.hypot(x - cx, y - cy))
    return total


def test_density_at_center_equals_amplitude(small_config):
    cfg = replace(small_config, centers=(replace(small_config.centers[0], gradient=0.5),))
    rho = raw_density(cfg)
    center_cell = 2 * cfg.grid_cols + 2
    assert rho[center_cell] == pytest.approx(50.0, abs=1e-12)


def test_density_law_matches_oracle(two_city):
    rho = raw_density(two_city)
    for cell in range(two_city.n_cells):
        assert abs(rho[cell] - _density_oracle(two_city, cell)) < 1e-12


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


class TestConfigJson:
    def test_round_trip(self, tmp_path, two_city):
        path = tmp_path / "scenario.json"
        save_config(two_city, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(two_city)

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

    def test_bad_mix_names_center(self, two_city):
        for mix in ([0.7, 0.7], 1.0, None, True):
            doc = config_to_dict(two_city)
            doc["centers"][0]["mix"] = mix
            with pytest.raises(ConfigError, match=r"centers\[0\].mix"):
                config_from_dict(doc)

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
