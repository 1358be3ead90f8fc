"""The stylised metropolis: grid geometry, density fields, territory partition.

Worker and job counts are continuous reals; every operation outside
initialisation conserves the per-category totals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ScenarioConfig


@dataclass(frozen=True, eq=False)
class Metropolis:
    """Grid of cells with per-category worker/job counts and a mayor partition.

    Arrays are row-major over cells: cell id = row * grid_cols + col.
    `distance_km` is the fixed grid geometry, computed once by
    init_metropolis. There is one mayor per configured centre.

    A metropolis is a value: relocate returns a new one with new count
    arrays and shares `distance_km` and `territory` with its input, which
    it leaves unaltered.
    """

    config: ScenarioConfig
    workers: np.ndarray      # (N, S)
    jobs: np.ndarray         # (N, S)
    territory: np.ndarray    # (N,) mayor index
    distance_km: np.ndarray  # (N, N) straight-line km between cell centres

    @property
    def n_cells(self) -> int:
        return self.workers.shape[0]

    @property
    def n_mayors(self) -> int:
        return len(self.config.centers)


def grid_centroids(config: ScenarioConfig) -> np.ndarray:
    """Cell-centre coordinates in km, shape (N, 2) as (x, y) = (col, row) based."""
    rows = np.arange(config.grid_rows)
    cols = np.arange(config.grid_cols)
    yy, xx = np.meshgrid(rows, cols, indexing="ij")
    size = config.cell_size_km
    pts = np.stack([(xx.ravel() + 0.5) * size, (yy.ravel() + 0.5) * size], axis=1)
    return pts


def grid_distances(config: ScenarioConfig) -> np.ndarray:
    """Straight-line distances between cell centres in km, shape (N, N)."""
    pts = grid_centroids(config)
    dx = np.subtract.outer(pts[:, 0], pts[:, 0])
    dy = np.subtract.outer(pts[:, 1], pts[:, 1])
    return np.hypot(dx, dy, out=dx)


def _center_fields(config: ScenarioConfig) -> np.ndarray:
    """Per-centre exponential density contribution, shape (M, N)."""
    pts = grid_centroids(config)
    fields = []
    for c in config.centers:
        cx = (c.position[1] + 0.5) * config.cell_size_km
        cy = (c.position[0] + 0.5) * config.cell_size_km
        dist = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        fields.append(c.amplitude * np.exp(-c.gradient * dist))
    return np.stack(fields, axis=0)


def raw_density(config: ScenarioConfig) -> np.ndarray:
    """Unscaled worker density per cell, the sum of the centre contributions."""
    return _center_fields(config).sum(axis=0)


def natural_totals(config: ScenarioConfig) -> tuple[float, float]:
    """Worker and job totals implied by the density law.

    The amplitudes are calibrated in workers per cell, so the natural worker
    total is the raw density summed over the grid; the metropolis is closed
    (every worker commutes to a job) so the job total matches it.
    """
    total = float(raw_density(config).sum())
    return total, total


def init_metropolis(config: ScenarioConfig, total_workers: float, total_jobs: float) -> Metropolis:
    """Spread workers and jobs over the grid by the exponential multi-centre law.

    Workers follow the summed centre fields; jobs follow the same per-centre
    fields weighted by each centre's job share. Both are scaled so the grid
    totals match the requested values exactly, split by the centres' category
    mixes. Each cell belongs to the territory of its nearest centre, ties
    going to the lowest centre index; the partition is fixed for the whole
    run.
    """
    fields = _center_fields(config)  # (M, N)
    mixes = np.array([c.mix for c in config.centers])  # (M, S)
    job_shares = np.array([c.job_share for c in config.centers])  # (M,)

    worker_cat = fields.T @ mixes                      # (N, S)
    job_cat = (fields * job_shares[:, None]).T @ mixes  # (N, S)

    worker_sum = worker_cat.sum()
    if worker_sum <= 0.0:
        raise ConfigError("centers: zero total raw density, cannot place workers")
    workers = worker_cat * (total_workers / worker_sum)

    job_sum = job_cat.sum()
    if job_sum <= 0.0:
        raise ConfigError("centers: zero total job density, cannot place jobs")
    jobs = job_cat * (total_jobs / job_sum)

    distance_km = grid_distances(config)
    centre_cells = [c.position[0] * config.grid_cols + c.position[1] for c in config.centers]
    # argmin takes the first minimum: lowest index wins ties
    territory = distance_km[:, centre_cells].argmin(axis=1)
    return Metropolis(config=config, workers=workers, jobs=jobs, territory=territory, distance_km=distance_km)


def mayor_weights(metropolis: Metropolis) -> np.ndarray:
    """Total jobs per mayor territory, shape (M,); re-read every governance step."""
    job_totals = metropolis.jobs.sum(axis=1)
    weights = np.zeros(metropolis.n_mayors)
    np.add.at(weights, metropolis.territory, job_totals)
    return weights
