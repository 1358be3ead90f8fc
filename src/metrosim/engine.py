"""Simulation orchestration: the seeded step loop and replication statistics.

A state is a frozen value with no random stream. `step(state, rng, ...)` runs
`advance` (transport, then land use), draws the deciding stakeholder and lets
it build its argmax link (`decide_and_build`), and returns a new state with one
more indicator row. Only `run` holds the seeded rng, whose only draws happen
in stakeholder selection, so runs with xi = 0 are fully deterministic across
seeds.

The world after k steps (metropolis and network) depends only on the
scenario and the k links built: `advance` reads nothing else, and the
stakeholder enters a build only through the link it chooses and its
`DecisionRecord`. `run` therefore keys its steps in a memo, a plain dict: the
caller's, which runs share (`replicate` one over its seeds, a sweep one over
a preset's xi x seed lanes), or a fresh one of its own. The memo maps three
key types, which never compare equal:

- the scenario key, a str (the config's JSON with xi set to null), to the
  initial state;
- a build prefix, a tuple of the scenario key and the links chosen so far
  (None for a no-build), to the step's advanced half;
- (build prefix, stakeholder) to the stakeholder's `DecisionRecord`.

Each value is computed only on a miss. A lone run's own memo never hits,
since each step's prefix is one link longer than the last. Every run
assembles its own state from these shared values, with its own decisions, so
every output equals a lone run's bit for bit; runs of different scenarios
that share a memo share nothing.

A memo keeps every entry: a metropolis, a network, a record or row, but no
(N, N) matrix besides the scenario's shared cell distances, so its memory
grows as entries x O(N S + links). A state keeps the network its last
assignment returned; `SimState.network` derives the built network from that
and the last record's link, and `SimState.travel_times` the times.
A one-sided category warns once per computed initial state, and a Furness
balance at max_iter in every computed `distribute` call that stops there.
"""
from __future__ import annotations

import json
import logging
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ScenarioConfig, config_to_dict
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
    """The world after some steps and its full history; `step` returns a new one."""

    metropolis: Metropolis
    assigned: Network  # the network the last assignment returned; the initial one at step 0
    history: tuple[IndicatorRow, ...]
    decisions: tuple[DecisionRecord, ...]
    density_history: tuple[np.ndarray, ...]

    @property
    def network(self) -> Network:
        """The built network: assigned plus the last decision's link at zero flow, or assigned itself."""
        chosen = self.decisions[-1].chosen if self.decisions else None
        return self.assigned if chosen is None else self.assigned.with_link(*chosen)

    @property
    def travel_times(self) -> np.ndarray:
        """The last assignment's all-pairs times (at zero flow at step 0), read-only and never cached."""
        d = shortest_times(self.assigned, self.metropolis)
        d.flags.writeable = False
        return d


class Advanced(NamedTuple):
    """A step's decider-independent half: the world after transport and land use.

    `assigned` is the network this step's assignment returned. `row` holds
    the step's indicators; `step` sets its link count after the build.
    """

    metropolis: Metropolis
    assigned: Network
    row: IndicatorRow


def _indicators(metropolis: Metropolis, d: np.ndarray, kernel: np.ndarray, flows: np.ndarray, link_count: int,
                step: int) -> IndicatorRow:
    """Indicators on the times d, whose accessibility kernel exp(-nu * d) is kernel."""
    _, _, total_access = accessibility(metropolis, kernel)
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


def _memoised(memo: dict, key: object, compute: Callable):
    """The memo's entry for key, computed on a miss.

    An entry is stored only once compute has returned, so a step that raises
    leaves nothing behind for a later run to reuse.
    """
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def initial_state(config: ScenarioConfig) -> SimState:
    """World at step 0: initial densities, the pre-seeded network at zero flow, and its times."""
    workers, jobs = natural_totals(config)
    metropolis = init_metropolis(config, workers, jobs)
    # relocate conserves each category's totals, so whether a category is
    # one-sided, and so gets no trips from distribute, is fixed for the run.
    has_origins, has_destinations = metropolis.workers.sum(axis=0) > 0.0, metropolis.jobs.sum(axis=0) > 0.0
    for cat in np.nonzero(has_origins != has_destinations)[0]:
        log.warning("category %d skipped: one-sided demand (origins=%s, destinations=%s)",
                    cat, has_origins[cat], has_destinations[cat])
    network = build_network(config.initial_links)
    d = shortest_times(network, metropolis)
    od = distribute(metropolis, d)
    return SimState(
        metropolis=metropolis,
        assigned=network,
        history=(_indicators(metropolis, d, np.exp(-config.nu * d), od.flows, len(network), 0),),
        decisions=(),
        density_history=(metropolis.workers.sum(axis=1),),
    )


def advance(state: SimState) -> Advanced:
    """The first half of a step: demand, assignment, land use and the step's indicators.

    Travel demand is distributed on the previous step's times, assignment
    produces this step's congested times, and relocation (when enabled)
    applies them. Indicators are measured on the post-assignment times. The
    OD matrix is not kept. Scoring and the indicators read the same
    accessibility kernel exp(-nu d), computed once here.
    """
    metropolis = state.metropolis
    cfg = metropolis.config
    od = distribute(metropolis, state.travel_times)
    assigned, d = assign_traffic(od.flows, state.network, metropolis, cfg.assignment_iterations)
    kernel = np.multiply(d, -cfg.nu)
    np.exp(kernel, out=kernel)
    if cfg.landuse_enabled:
        metropolis = relocate(metropolis, cell_scores(metropolis, kernel))
    row = _indicators(metropolis, d, kernel, od.flows, len(assigned), len(state.decisions) + 1)
    return Advanced(metropolis, assigned, row)


def step(state: SimState, rng: random.Random, *, xi: float, memo: dict, scenario: str) -> SimState:
    """Advance one time step: transport, land use, governance, indicators.

    `advance` runs transport and land use, the stakeholder drawn from rng
    with governance share xi builds its argmax link, and the freshly built
    link carries traffic from the next step on. The input state is never
    altered. xi is the caller's, not the state's config.xi: the world of a
    state taken from a memo carries the config of the run that computed it.

    scenario is the key `run` found the initial state under in memo. The
    advanced half is looked up by the state's build prefix, scenario plus
    the links its decisions chose, and the decision record by (build prefix,
    stakeholder); each is computed and stored only on a miss.
    """
    prefix = (scenario, *(record.chosen for record in state.decisions))
    metropolis, assigned, row = _memoised(memo, prefix, lambda: advance(state))
    stakeholder, _ = select_stakeholder(xi, mayor_weights(metropolis), rng)
    record = _memoised(memo, (prefix, stakeholder), lambda: decide_and_build(
        metropolis, assigned, stakeholder, step=row.step)[1])
    return SimState(
        metropolis=metropolis,
        assigned=assigned,
        history=state.history + (replace(row, link_count=len(assigned) + (record.chosen is not None)),),
        decisions=state.decisions + (record,),
        density_history=state.density_history + (metropolis.workers.sum(axis=1),),
    )


def run(config: ScenarioConfig, seed: int, *, memo: dict | None = None) -> SimState:
    """Execute a full run; identical (config, seed) pairs give identical output.

    memo, when given, is shared with other runs: the initial state and every
    step half one of them computed for the same scenario (config with xi
    left out) and the same links built are reused, not recomputed (see the
    module docstring). Without one the run keys its steps in a fresh dict.
    The returned state's metropolis carries `config`.
    """
    rng = random.Random(seed)
    memo = {} if memo is None else memo
    scenario = json.dumps(config_to_dict(config) | {"xi": None}, sort_keys=True)
    state = _memoised(memo, scenario, lambda: initial_state(config))
    for _ in range(config.steps):
        state = step(state, rng, xi=config.xi, memo=memo, scenario=scenario)
    return replace(state, metropolis=replace(state.metropolis, config=config))


@dataclass
class ReplicationStats:
    """Cross-replication statistics of the final-step indicator pair."""

    seeds: list[int]          # (n,): the seed of each row of finals
    finals: np.ndarray        # (n, 2): total accessibility, total travel time
    mean: np.ndarray          # (2,)
    covariance: np.ndarray    # (2, 2)
    axis_lengths: np.ndarray  # (2,) 1-sigma ellipse semi-axes, descending
    angle_rad: float          # orientation of the major axis

    @property
    def n(self) -> int:
        return len(self.seeds)


def summarize_finals(seeds: list[int], finals: np.ndarray) -> ReplicationStats:
    """Mean, covariance and 1-sigma variation ellipse of the runs' (accessibility, time) pairs."""
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
        seeds=list(seeds),
        finals=finals,
        mean=mean,
        covariance=covariance,
        axis_lengths=np.sqrt(eigvals),
        angle_rad=float(np.arctan2(major[1], major[0])),
    )


def replicate(config: ScenarioConfig, n: int, base_seed: int) -> ReplicationStats:
    """Run seeds base_seed .. base_seed + n - 1 and aggregate their final indicators.

    The n runs share one memo, so a step two seeds reach with the same links
    built is computed once. n < 1 raises `ConfigError`, before any run.
    """
    if n < 1:
        raise ConfigError("replications: must be >= 1")
    memo = {}
    seeds = list(range(base_seed, base_seed + n))
    finals = np.empty((n, 2))
    for i, seed in enumerate(seeds):
        state = run(config, seed, memo=memo)
        last = state.history[-1]
        finals[i] = (last.total_accessibility, last.total_travel_time)
    return summarize_finals(seeds, finals)
