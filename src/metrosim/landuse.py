"""Cell scoring and relocation.

Accessibility is a Hansen-type decayed opportunity sum, urban form a signed
power-law of local counts, and their Cobb-Douglas combination drives a logit
reallocation of a fixed fraction of workers and jobs each step.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .world import Metropolis


def accessibility(metropolis: Metropolis, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decayed opportunity sums per cell and category on the kernel exp(-nu * d).

    Worker side counts reachable jobs, job side reachable workers; the
    aggregate weights each cell's per-category access by its resident
    workers. Returns (worker_access, job_access, total_access). The caller
    computes the kernel from its travel times d, once per set of times.
    """
    worker_access = kernel @ metropolis.jobs     # (N, S)
    job_access = kernel @ metropolis.workers     # (N, S)
    total_access = (metropolis.workers * worker_access).sum(axis=1)
    return worker_access, job_access, total_access


def urban_form(metropolis: Metropolis, m: np.ndarray, m_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local-attribute score from category co-presence.

    For workers of category s in cell c:
        F = prod over s' of (1 + workers_c[s']) ** m[s, s'] * (1 + jobs_c[s']) ** m_prime[s, s']
    Positive exponents attract, negative repel, zero is neutral. The +1 bases
    keep empty cells at F = 1 and negative exponents finite. The job side is
    the mirror image (own side first, cross side under m_prime).
    """
    log_workers = np.log1p(metropolis.workers)  # (N, S)
    log_jobs = np.log1p(metropolis.jobs)
    worker_form = np.exp(log_workers @ m.T + log_jobs @ m_prime.T)
    job_form = np.exp(log_jobs @ m.T + log_workers @ m_prime.T)
    return worker_form, job_form


def utility(access: np.ndarray, form: np.ndarray, gamma: float) -> np.ndarray:
    """Cobb-Douglas blend access**gamma * form**(1 - gamma), element by element."""
    return access**gamma * form ** (1.0 - gamma)


def cell_scores(metropolis: Metropolis, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(worker_utility, job_utility), each (N, S), of the land use on accessibility's kernel exp(-nu * d)."""
    cfg = metropolis.config
    worker_access, job_access, _ = accessibility(metropolis, kernel)
    worker_form, job_form = urban_form(metropolis, cfg.m, cfg.m_prime)
    return utility(worker_access, worker_form, cfg.gamma), utility(job_access, job_form, cfg.gamma)


def choice_probabilities(utilities: np.ndarray, mu: float) -> np.ndarray:
    """Logit choice shares exp(mu * U_c) / sum, guarded against overflow.

    The max is subtracted before exponentiation, which also makes the shares
    exactly invariant to a constant shift of the utilities. mu = 0 gives the
    uniform distribution.
    """
    scaled = mu * np.asarray(utilities, dtype=float)
    scaled = scaled - scaled.max()
    weights = np.exp(scaled)
    return weights / weights.sum()


def relocate(metropolis: Metropolis, scores: tuple[np.ndarray, np.ndarray]) -> Metropolis:
    """Move the configured fraction of each category between cells by logit shares of cell_scores' utilities.

    The pool of relocation_fraction of every cell's count is reallocated as
    expected mass pool * P(c), with P the logit shares at the configured mu;
    counts stay continuous, so no multinomial sampling is needed and
    per-category totals are conserved to rounding. Returns a new metropolis
    with new worker and job arrays; the input is left unaltered, and its
    distance_km and territory are shared.
    """
    cfg = metropolis.config
    fraction = cfg.relocation_fraction
    workers, jobs = metropolis.workers.copy(), metropolis.jobs.copy()
    for counts, utilities in zip((workers, jobs), scores):
        for cat in range(counts.shape[1]):
            total = counts[:, cat].sum()
            if total <= 0.0:
                continue
            shares = choice_probabilities(utilities[:, cat], cfg.mu)
            pool = fraction * total
            counts[:, cat] = counts[:, cat] * (1.0 - fraction) + pool * shares
    return replace(metropolis, workers=workers, jobs=jobs)
