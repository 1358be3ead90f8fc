from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from metrosim.config import two_city_config
from metrosim.landuse import (
    accessibility,
    cell_scores,
    choice_probabilities,
    relocate,
    urban_form,
    utility,
)
from metrosim.transport import Network, shortest_times
from metrosim.world import init_metropolis

from oracles import make_metropolis


def afc_times(metropolis):
    """Travel times on an empty network: local roads only, intra-cell floor on the diagonal."""
    return shortest_times(Network(), metropolis)


def afc_kernel(metropolis):
    """The accessibility kernel exp(-nu * d) at the configured nu on afc_times."""
    return np.exp(-metropolis.config.nu * afc_times(metropolis))


def with_relocation(metropolis, mu, relocation_fraction):
    """The same metropolis, relocating with the given logit scale and fraction."""
    return replace(metropolis, config=replace(metropolis.config, mu=mu, relocation_fraction=relocation_fraction))


# ---------------------------------------------------------------------------
# Accessibility


def test_zero_decay_counts_all_jobs():
    metropolis = make_metropolis()
    d = afc_times(metropolis)
    worker_access, job_access, _ = accessibility(metropolis, np.exp(-0.0 * d))
    for s in range(2):
        assert np.allclose(worker_access[:, s], metropolis.jobs[:, s].sum(), rtol=1e-12)
        assert np.allclose(job_access[:, s], metropolis.workers[:, s].sum(), rtol=1e-12)


def test_single_job_mass_decays_with_time():
    metropolis = make_metropolis()
    metropolis.jobs[:] = 0.0
    metropolis.jobs[7, 0] = 40.0
    d = afc_times(metropolis)
    worker_access, _, _ = accessibility(metropolis, np.exp(-2.0 * d))
    for c in (0, 7, 19):
        assert worker_access[c, 0] == pytest.approx(40.0 * math.exp(-2.0 * d[c, 7]), rel=1e-12)


def test_accessibility_matches_brute_force():
    metropolis = make_metropolis()
    rng = np.random.default_rng(17)
    d = rng.uniform(0.01, 0.6, size=(metropolis.n_cells, metropolis.n_cells))
    nu = 1.7
    worker_access, job_access, total = accessibility(metropolis, np.exp(-nu * d))
    n, s = metropolis.workers.shape
    for c in range(n):
        for cat in range(s):
            expected = sum(metropolis.jobs[j, cat] * math.exp(-nu * d[c, j]) for j in range(n))
            assert worker_access[c, cat] == pytest.approx(expected, rel=1e-9)
            expected_jobs = sum(metropolis.workers[j, cat] * math.exp(-nu * d[c, j]) for j in range(n))
            assert job_access[c, cat] == pytest.approx(expected_jobs, rel=1e-9)
    expected_total = (metropolis.workers * worker_access).sum()
    assert total.sum() == pytest.approx(expected_total, rel=1e-12)


# ---------------------------------------------------------------------------
# Urban form


def test_neutral_proximity_gives_unit_form():
    metropolis = make_metropolis()
    worker_form, job_form = urban_form(metropolis, np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.array_equal(worker_form, np.ones_like(worker_form))
    assert np.array_equal(job_form, np.ones_like(job_form))


def test_single_category_repulsion():
    metropolis = make_metropolis()
    metropolis = replace(metropolis, workers=np.zeros((metropolis.n_cells, 1)),
                         jobs=np.zeros((metropolis.n_cells, 1)))
    metropolis.workers[5, 0] = 9.0
    worker_form, _ = urban_form(metropolis, np.array([[-1.0]]), np.array([[0.0]]))
    assert worker_form[5, 0] == pytest.approx(0.1, rel=1e-12)  # (1 + 9) ** -1
    assert worker_form[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_positive_exponent_attracts():
    metropolis = make_metropolis()
    m = np.array([[0.5, 0.0], [0.0, 0.0]])
    before, _ = urban_form(metropolis, m, np.zeros((2, 2)))
    metropolis.workers[3, 0] += 10.0
    after, _ = urban_form(metropolis, m, np.zeros((2, 2)))
    assert after[3, 0] > before[3, 0]
    assert after[4, 0] == before[4, 0]


def test_form_stays_positive_with_negative_exponents():
    metropolis = make_metropolis()
    m = np.full((2, 2), -2.0)
    worker_form, job_form = urban_form(metropolis, m, m)
    assert (worker_form > 0).all()
    assert (job_form > 0).all()


# ---------------------------------------------------------------------------
# Utility


def test_utility_pure_accessibility():
    assert utility(3.0, 9.0, gamma=1.0) == pytest.approx(3.0)


def test_utility_pure_form():
    assert utility(3.0, 9.0, gamma=0.0) == pytest.approx(9.0)


def test_utility_geometric_mean():
    assert utility(4.0, 9.0, gamma=0.5) == pytest.approx(6.0)


def test_utility_zero_access_zero_value():
    assert utility(0.0, 5.0, gamma=0.7) == 0.0


# ---------------------------------------------------------------------------
# Choice probabilities


def test_choice_zero_sensitivity_uniform():
    probs = choice_probabilities(np.array([1.0, 5.0, 9.0, 2.0]), mu=0.0)
    assert np.array_equal(probs, np.full(4, 0.25))


def test_choice_probabilities_hand_computed():
    # mu * U = (0, ln 2, ln 3) gives shares (1, 2, 3) / 6.
    utilities = np.array([0.0, math.log(2.0), math.log(3.0)])
    probs = choice_probabilities(utilities, mu=1.0)
    assert np.allclose(probs, [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0], atol=1e-15)


def test_choice_normalisation_and_shift_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        utilities = rng.uniform(-5.0, 5.0, size=rng.integers(2, 40))
        mu = float(rng.uniform(0.0, 50.0))
        probs = choice_probabilities(utilities, mu)
        assert abs(probs.sum() - 1.0) < 1e-12
        shifted = choice_probabilities(utilities + 123.456, mu)
        assert np.max(np.abs(probs - shifted)) < 1e-12


def test_choice_concentrates_on_argmax_at_high_sensitivity():
    rng = np.random.default_rng(32)
    utilities = rng.uniform(0.0, 1.0, size=50)
    probs = choice_probabilities(utilities, mu=1e3)
    assert probs[np.argmax(utilities)] > 0.999


def test_choice_survives_huge_scores():
    probs = choice_probabilities(np.array([1e6, 1e6 + 1.0]), mu=10.0)
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) < 1e-12


def test_equal_utilities_give_uniform_shares():
    probs = choice_probabilities(np.full(7, 3.3), mu=42.0)
    assert np.allclose(probs, 1.0 / 7.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Relocation


def test_relocation_conserves_totals():
    metropolis = make_metropolis()
    scores = cell_scores(metropolis, afc_kernel(metropolis))
    moved = relocate(with_relocation(metropolis, mu=0.01, relocation_fraction=0.3), scores)
    for s in range(2):
        assert moved.workers[:, s].sum() == pytest.approx(metropolis.workers[:, s].sum(), rel=1e-9)
        assert moved.jobs[:, s].sum() == pytest.approx(metropolis.jobs[:, s].sum(), rel=1e-9)
    assert (moved.workers >= 0).all() and (moved.jobs >= 0).all()


def test_two_equal_cells_split_pool_evenly():
    cfg = two_city_config(grid_rows=1, grid_cols=2, minor_position=(0, 1), dominant_position=(0, 0),
                          minor_amplitude=100.0, dominant_amplitude=100.0,
                          minor_job_share=0.5, dominant_job_share=0.5)
    metropolis = init_metropolis(cfg, 100.0, 100.0)
    metropolis.workers[:] = np.array([[40.0, 0.0], [10.0, 0.0]])  # asymmetric start
    scores = cell_scores(metropolis, afc_kernel(metropolis))
    scores[0][:] = 1.0  # equal worker utility everywhere
    moved = relocate(with_relocation(metropolis, mu=5.0, relocation_fraction=1.0), scores)
    assert moved.workers[0, 0] == pytest.approx(25.0, rel=1e-12)
    assert moved.workers[1, 0] == pytest.approx(25.0, rel=1e-12)


def test_zero_fraction_is_identity():
    metropolis = make_metropolis()
    scores = cell_scores(metropolis, afc_kernel(metropolis))
    moved = relocate(with_relocation(metropolis, mu=1.0, relocation_fraction=0.0), scores)
    assert np.array_equal(moved.workers, metropolis.workers)
    assert np.array_equal(moved.jobs, metropolis.jobs)


def test_relocate_returns_a_new_metropolis():
    metropolis = make_metropolis()
    workers, jobs = metropolis.workers.copy(), metropolis.jobs.copy()
    scores = cell_scores(metropolis, afc_kernel(metropolis))
    moved = relocate(with_relocation(metropolis, mu=1.0, relocation_fraction=0.5), scores)
    assert not np.array_equal(moved.workers, workers)
    assert np.array_equal(metropolis.workers, workers)
    assert np.array_equal(metropolis.jobs, jobs)
    assert moved.distance_km is metropolis.distance_km


def test_relocation_moves_mass_toward_higher_utility():
    metropolis = make_metropolis()
    scores = cell_scores(metropolis, afc_kernel(metropolis))
    worker_utility, _ = scores
    best = int(np.argmax(worker_utility[:, 0]))
    moved = relocate(with_relocation(metropolis, mu=50.0 / worker_utility[:, 0].max(),
                                     relocation_fraction=0.5), scores)
    assert moved.workers[best, 0] > metropolis.workers[best, 0]

