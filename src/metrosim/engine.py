"""Simulation orchestration: the seeded step loop and replication statistics.

A state is a frozen value with no random stream: `step(state, rng)` runs
transport, land use, then governance, in that order, and returns a new state
with one more indicator row. Only `run` holds the seeded rng, whose only draws
happen in stakeholder selection, so runs with xi = 0 are fully deterministic
across seeds.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .governance import DecisionRecord, decide_and_build, select_stakeholder
from .landuse import accessibility, cell_scores, relocate
from .transport import Network, assign_traffic, build_network, distribute, shortest_times, total_travel_time
from .world import Metropolis, init_metropolis, mayor_weights, natural_totals

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IndicatorRow:
    """One history record: metropolis-level indicators after a step."""

    step: int
    total_accessibility: float
    total_travel_time: float
    link_count: int
    mayor_objectives: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SimState:
    """The world after some steps and its full history; `step` returns a new one.

    `travel_times` is made read-only when the state is built.
    """

    metropolis: Metropolis
    network: Network
    travel_times: np.ndarray
    history: tuple[IndicatorRow, ...]
    decisions: tuple[DecisionRecord, ...]
    density_history: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.travel_times.flags.writeable = False


def _indicators(metropolis: Metropolis, d: np.ndarray, flows: np.ndarray, link_count: int, step: int) -> IndicatorRow:
    _, _, total_access = accessibility(metropolis, d, metropolis.config.nu)
    per_mayor = tuple(
        float(total_access[metropolis.territory == i].sum()) for i in range(metropolis.n_mayors)
    )
    return IndicatorRow(
        step=step,
        total_accessibility=float(total_access.sum()),
        total_travel_time=total_travel_time(flows, d),
        link_count=link_count,
        mayor_objectives=per_mayor,
    )


def initial_state(config: ScenarioConfig) -> SimState:
    """World at step 0: initial densities, the pre-seeded network, free-flow times."""
    workers, jobs = natural_totals(config)
    metropolis = init_metropolis(config, workers, jobs)
    # relocate conserves each category's totals, so whether a category is
    # one-sided, and so gets no trips from distribute, is fixed for the run.
    has_origins, has_destinations = metropolis.workers.sum(axis=0) > 0.0, metropolis.jobs.sum(axis=0) > 0.0
    for cat in np.nonzero(has_origins != has_destinations)[0]:
        log.warning("category %d skipped: one-sided demand (origins=%s, destinations=%s)",
                    cat, has_origins[cat], has_destinations[cat])
    network = build_network(metropolis, config.initial_links)
    d = shortest_times(network, metropolis, free_flow=True)
    od = distribute(metropolis, d)
    return SimState(
        metropolis=metropolis,
        network=network,
        travel_times=d,
        history=(_indicators(metropolis, d, od.flows, len(network), 0),),
        decisions=(),
        density_history=(metropolis.workers.sum(axis=1),),
    )


def step(state: SimState, rng: random.Random, *, swap_mayor_weights: bool = False) -> SimState:
    """Advance one time step: transport, land use, governance, indicators.

    Travel demand is distributed on the previous step's times, assignment
    produces this step's congested times, relocation (when enabled) applies
    them, and the stakeholder drawn from rng builds its argmax link. Indicators
    are measured on the post-assignment times; the freshly built link carries
    traffic from the next step on. The input state is never altered.
    """
    metropolis = state.metropolis
    cfg = metropolis.config

    od = distribute(metropolis, state.travel_times)
    network, d = assign_traffic(od.flows, state.network, metropolis, cfg.assignment_iterations)

    if cfg.landuse_enabled:
        scores = cell_scores(metropolis, d)
        metropolis = relocate(metropolis, scores, cfg.mu, cfg.relocation_fraction)

    weights = mayor_weights(metropolis)
    if swap_mayor_weights:
        weights = weights[::-1]
    stakeholder, _ = select_stakeholder(cfg.xi, weights, rng)
    k = len(state.decisions) + 1
    network, record = decide_and_build(metropolis, network, stakeholder, travel_times=d, step=k)

    return SimState(
        metropolis=metropolis,
        network=network,
        travel_times=d,
        history=state.history + (_indicators(metropolis, d, od.flows, len(network), k),),
        decisions=state.decisions + (record,),
        density_history=state.density_history + (metropolis.workers.sum(axis=1),),
    )


def run(config: ScenarioConfig, seed: int, *, swap_mayor_weights: bool = False) -> SimState:
    """Execute a full run; identical (config, seed) pairs give identical output.

    swap_mayor_weights reverses the mayor weight vector before each
    stakeholder draw, which redirects local decision power toward the
    otherwise minor mayor without touching the land use; it exists for
    governance-regime experiments.
    """
    rng = random.Random(seed)
    state = initial_state(config)
    for _ in range(config.steps):
        state = step(state, rng, swap_mayor_weights=swap_mayor_weights)
    return state


@dataclass
class ReplicationStats:
    """Cross-replication statistics of the final-step indicator pair."""

    n: int
    finals: np.ndarray        # (n, 2): total accessibility, total travel time
    mean: np.ndarray          # (2,)
    covariance: np.ndarray    # (2, 2)
    axis_lengths: np.ndarray  # (2,) 1-sigma ellipse semi-axes, descending
    angle_rad: float          # orientation of the major axis


def summarize_finals(finals: np.ndarray) -> ReplicationStats:
    """Mean, covariance and 1-sigma variation ellipse of (accessibility, time) pairs."""
    finals = np.asarray(finals, dtype=float)
    n = finals.shape[0]
    mean = finals.mean(axis=0)
    if n > 1:
        covariance = np.cov(finals, rowvar=False, ddof=1)
    else:
        covariance = np.zeros((2, 2))
    eigvals, eigvecs = np.linalg.eigh(covariance)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    major = eigvecs[:, order[0]]
    return ReplicationStats(
        n=n,
        finals=finals,
        mean=mean,
        covariance=covariance,
        axis_lengths=np.sqrt(eigvals),
        angle_rad=float(np.arctan2(major[1], major[0])),
    )


def replicate(config: ScenarioConfig, n: int, base_seed: int, *, swap_mayor_weights: bool = False) -> ReplicationStats:
    """Run seeds base_seed .. base_seed + n - 1 and aggregate their final indicators."""
    if n < 1:
        raise ValueError("n must be >= 1")
    finals = np.empty((n, 2))
    for i in range(n):
        state = run(config, base_seed + i, swap_mayor_weights=swap_mayor_weights)
        last = state.history[-1]
        finals[i] = (last.total_accessibility, last.total_travel_time)
    return summarize_finals(finals)
