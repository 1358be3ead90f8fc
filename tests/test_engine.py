from __future__ import annotations

import logging
import random
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from metrosim.config import two_city_config
from metrosim import engine
from metrosim.engine import IndicatorRow, SimState, initial_state, replicate, run, step, summarize_finals
from metrosim.governance import DecisionRecord, Stakeholder
from metrosim.landuse import accessibility, cell_scores
from metrosim.transport import assign_traffic, distribute, shortest_times, total_travel_time


def test_steps_zero_keeps_only_initial_snapshot():
    cfg = two_city_config(steps=0)
    state = run(cfg, seed=3)
    assert len(state.history) == 1
    assert state.history[0].step == 0
    assert state.history[0].link_count == 0
    assert not state.decisions


def test_history_grows_one_row_per_step():
    cfg = two_city_config(steps=4)
    state = run(cfg, seed=5)
    assert [row.step for row in state.history] == [0, 1, 2, 3, 4]
    assert len(state.decisions) == 4


def test_link_count_increments_each_step():
    cfg = two_city_config(steps=5)
    state = run(cfg, seed=8)
    counts = [row.link_count for row in state.history]
    assert counts == [0, 1, 2, 3, 4, 5]


def test_frozen_landuse_keeps_metropolis_bit_identical():
    cfg = two_city_config(steps=3, landuse_enabled=False)
    state = initial_state(cfg)
    workers_before = state.metropolis.workers.copy()
    jobs_before = state.metropolis.jobs.copy()
    rng = random.Random(1)
    for _ in range(3):
        state = step(state, rng, xi=cfg.xi, memo={}, scenario="")
    assert np.array_equal(state.metropolis.workers, workers_before)
    assert np.array_equal(state.metropolis.jobs, jobs_before)


def test_landuse_enabled_moves_mass():
    cfg = two_city_config(steps=2, landuse_enabled=True)
    state = run(cfg, seed=1)
    fresh = initial_state(cfg)
    assert not np.array_equal(state.metropolis.workers, fresh.metropolis.workers)


def test_conservation_over_full_run():
    cfg = two_city_config(steps=6, landuse_enabled=True)
    state = initial_state(cfg)
    workers0 = state.metropolis.workers.sum(axis=0)
    jobs0 = state.metropolis.jobs.sum(axis=0)
    final = run(cfg, seed=2)
    assert np.allclose(final.metropolis.workers.sum(axis=0), workers0, rtol=1e-6)
    assert np.allclose(final.metropolis.jobs.sum(axis=0), jobs0, rtol=1e-6)


def test_same_seed_reproduces_run_exactly():
    cfg = two_city_config(steps=4, landuse_enabled=True)
    a = run(cfg, seed=77)
    b = run(cfg, seed=77)
    assert [r.__dict__ for r in a.history] == [r.__dict__ for r in b.history]
    assert [d.chosen for d in a.decisions] == [d.chosen for d in b.decisions]
    assert np.array_equal(a.metropolis.workers, b.metropolis.workers)
    assert np.array_equal(a.travel_times, b.travel_times)


def test_different_seeds_can_diverge():
    # Seed 15 draws mayor 0 twice where seed 0 stays with the dominant mayor.
    cfg = two_city_config(steps=4, xi=1.0)
    a = run(cfg, seed=0)
    b = run(cfg, seed=15)
    assert [d.mayor for d in a.decisions] != [d.mayor for d in b.decisions]
    assert [d.chosen for d in a.decisions] != [d.chosen for d in b.decisions]


def test_xi_zero_is_seed_independent():
    cfg = two_city_config(steps=3, xi=0.0)
    runs = [run(cfg, seed=s) for s in (0, 1, 999)]
    reference = [r.total_accessibility for r in runs[0].history]
    for state in runs[1:]:
        assert [r.total_accessibility for r in state.history] == reference
        assert [d.chosen for d in state.decisions] == [d.chosen for d in runs[0].decisions]


def test_governance_draws_are_recorded():
    cfg = two_city_config(steps=3, xi=1.0)
    state = run(cfg, seed=6)
    for record in state.decisions:
        assert record.level == "local"


def test_state_is_a_value():
    cfg = two_city_config(steps=1, landuse_enabled=True)
    state = initial_state(cfg)
    history, decisions, metropolis = state.history, state.decisions, state.metropolis
    workers = metropolis.workers.copy()
    after = step(state, random.Random(0), xi=cfg.xi, memo={}, scenario="")
    assert state.history is history and state.decisions is decisions and state.metropolis is metropolis
    assert len(state.history) == 1 and state.decisions == ()
    assert np.array_equal(state.metropolis.workers, workers)
    assert len(after.history) == 2 and len(after.decisions) == 1
    assert not np.array_equal(after.metropolis.workers, workers)
    with pytest.raises(FrozenInstanceError):
        after.history = ()


def test_state_records_cannot_be_changed_in_place():
    state = run(two_city_config(steps=1), 0)
    with pytest.raises(AttributeError):
        state.decisions[0].evaluations.append((0, 1, 0.0))
    with pytest.raises(ValueError):
        state.travel_times[0, 0] = 0.0


class _StubRng:
    """Hands out fixed uniform draws in order."""

    def __init__(self, *draws: float) -> None:
        self._draws = iter(draws)

    def random(self) -> float:
        return next(self._draws)


def test_step_depends_on_the_decider_not_the_draw():
    # Both level draws are >= xi, so both steps are the governor's.
    state = initial_state(two_city_config(steps=1, xi=0.5, landuse_enabled=True))
    a = step(state, _StubRng(0.6), xi=0.5, memo={}, scenario="")
    b = step(state, _StubRng(0.9), xi=0.5, memo={}, scenario="")
    assert a.decisions[0].level == "metropolitan"
    assert a.history == b.history
    assert a.decisions == b.decisions


def test_indicator_accessibility_recomputable_from_state():
    cfg = two_city_config(steps=3)
    state = run(cfg, seed=9)
    _, _, total_access = accessibility(state.metropolis, np.exp(-cfg.nu * state.travel_times))
    logged = state.history[-1].total_accessibility
    assert abs(float(total_access.sum()) - logged) < 1e-9 * max(1.0, abs(logged))


def test_advance_shares_one_accessibility_kernel(monkeypatch):
    # With land use on, scoring and the indicators read one kernel exp(-nu d),
    # and the step's indicators equal a recomputation from the new state.
    kernels = []

    def scores_recording(metropolis, kernel):
        kernels.append(kernel)
        return cell_scores(metropolis, kernel)

    def access_recording(metropolis, kernel):
        kernels.append(kernel)
        return accessibility(metropolis, kernel)

    assigned = []

    def assign_recording(*args):
        network, d = assign_traffic(*args)
        assigned.append(d)
        return network, d

    cfg = two_city_config(grid_rows=6, grid_cols=6, minor_position=(5, 5), dominant_position=(0, 0),
                          landuse_enabled=True)
    state = initial_state(cfg)
    monkeypatch.setattr(engine, "cell_scores", scores_recording)
    monkeypatch.setattr(engine, "accessibility", access_recording)
    monkeypatch.setattr(engine, "assign_traffic", assign_recording)
    metropolis, _, row = engine.advance(state)
    monkeypatch.undo()
    (d,) = assigned
    assert len(kernels) == 2 and kernels[0] is kernels[1]
    assert kernels[0].tobytes() == np.exp(-cfg.nu * d).tobytes()
    _, _, total_access = accessibility(metropolis, np.exp(-cfg.nu * d))
    assert row.total_accessibility == float(total_access.sum())


@pytest.mark.parametrize("bpr_beta", [4.0, 0.0])
def test_step_zero_indicators_recompute_from_zero_flow_times(bpr_beta):
    # Row 0 is measured, and step-0 demand distributed, on the pre-seeded
    # network's zero-flow times d, the state's travel_times at step 0, with
    # the kernel initial_state builds itself. At bpr_beta = 0 those times run
    # each link at link_time * (1 + bpr_alpha). Equal reprs are equal bits.
    cfg = two_city_config(initial_links=((0, 11), (11, 22)), bpr_beta=bpr_beta)
    state = initial_state(cfg)
    metropolis = state.metropolis
    d = state.travel_times
    _, _, total_access = accessibility(metropolis, np.exp(-cfg.nu * d))
    expected = IndicatorRow(
        step=0,
        total_accessibility=float(total_access.sum()),
        total_travel_time=total_travel_time(distribute(metropolis, d).flows, d),
        link_count=2,
        mayor_objectives=tuple(float(total_access[metropolis.territory == i].sum()) for i in range(2)),
    )
    assert state.history == (expected,)
    assert repr(state.history[0]) == repr(expected)


def test_mayor_objectives_partition_total():
    cfg = two_city_config(steps=2)
    state = run(cfg, seed=4)
    for row in state.history:
        assert sum(row.mayor_objectives) == pytest.approx(row.total_accessibility, rel=1e-9)


def test_full_run_within_desk_budget():
    import time

    cfg = two_city_config(steps=6, landuse_enabled=True)
    start = time.perf_counter()
    run(cfg, seed=0)
    assert time.perf_counter() - start < 60.0


def test_initial_links_preseed_network():
    cfg = two_city_config(steps=1, initial_links=((0, 1), (11, 22)))
    state = run(cfg, seed=0)
    assert state.history[0].link_count == 2
    assert state.history[-1].link_count == 3


def test_one_sided_category_is_logged_once_per_run(caplog):
    # Centre 0 holds every category-0 worker and no jobs, so category 0 is
    # one-sided, and relocation keeps it so; congested evaluation distributes
    # the demand once more in every decision.
    cfg = two_city_config(grid_rows=5, grid_cols=5, minor_position=(4, 4), dominant_position=(0, 0),
                          steps=4, congestion_in_evaluation=True, landuse_enabled=True)
    minor, dominant = cfg.centers
    cfg = replace(cfg, centers=(replace(minor, job_share=0.0, mix=(1.0, 0.0)), replace(dominant, mix=(0.0, 1.0))))
    with caplog.at_level(logging.WARNING, logger="metrosim"):
        state = run(cfg, seed=0)
    assert len(state.decisions) == 4
    assert state.metropolis.jobs[:, 0].sum() == 0.0
    assert caplog.text.count("category 0 skipped: one-sided demand") == 1
    assert "category 1" not in caplog.text
    # The warning fires where the initial state is computed, and a batch's
    # seeds share it through their memo: a 3-seed replicate logs it once too.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="metrosim"):
        replicate(cfg, 3, 0)
    assert caplog.text.count("category 0 skipped: one-sided demand") == 1


def _swap_mayor_weights(monkeypatch):
    """Draw stakeholders on the mayor weights reversed, which turns local power toward the minor mayor."""
    original = engine.mayor_weights
    monkeypatch.setattr(engine, "mayor_weights", lambda metropolis: original(metropolis)[::-1])


def test_swapped_weights_redirect_local_decisions(monkeypatch):
    cfg = two_city_config(steps=2, xi=1.0)
    natural_mayors = [d.mayor for seed in range(10) for d in run(cfg, seed=seed).decisions]
    _swap_mayor_weights(monkeypatch)
    swapped_mayors = [d.mayor for seed in range(10) for d in run(cfg, seed=seed).decisions]
    # Dominant city holds ~90% of the jobs: natural runs favour mayor 1,
    # swapped runs mirror that toward mayor 0.
    assert sum(natural_mayors) > 0.7 * len(natural_mayors)
    assert sum(swapped_mayors) < 0.3 * len(swapped_mayors)


@pytest.mark.parametrize("cfg, swap", [
    (two_city_config(steps=3, landuse_enabled=True), False),
    (two_city_config(steps=2, congestion_in_evaluation=True), False),
    (two_city_config(steps=3), True),
], ids=["landuse", "congested", "swapped-weights"])
def test_shared_memo_matches_memo_free_runs(monkeypatch, cfg, swap):
    # Runs that share no memo are the oracle. Lanes xi 0, 0.5, 1 x seeds 0-3
    # share one memo; a lane that reuses another lane's steps must end in
    # the same state and carry its own config.
    if swap:
        _swap_mayor_weights(monkeypatch)
    memo = {}
    for xi in (0.0, 0.5, 1.0):
        lane = replace(cfg, xi=xi)
        alone = [run(lane, seed) for seed in range(4)]
        for seed, oracle in enumerate(alone):
            shared = run(lane, seed, memo=memo)
            assert shared.metropolis.config is lane
            assert shared.history == oracle.history
            assert shared.decisions == oracle.decisions
            assert len(shared.density_history) == len(oracle.density_history)
            assert all(np.array_equal(x, y) for x, y in zip(shared.density_history, oracle.density_history))
        finals = [(s.history[-1].total_accessibility, s.history[-1].total_travel_time) for s in alone]
        assert np.array_equal(replicate(lane, 4, 0).finals, finals)


def _assert_same_run(shared, oracle):
    assert shared.history == oracle.history
    assert shared.decisions == oracle.decisions
    assert all(np.array_equal(x, y) for x, y in zip(shared.density_history, oracle.density_history))


def _record_calls(monkeypatch, name):
    """Wrap engine.<name>; the returned list gets each call's positional arguments."""
    original, calls = getattr(engine, name), []

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, name, recorded)
    return calls


def test_memo_computes_each_build_prefix_once(monkeypatch):
    # The world after k steps depends only on the scenario and the k links
    # built. So with one memo shared by every scenario below, advance runs
    # once per distinct (scenario, links built) and decide_and_build once per
    # distinct (scenario, links built, stakeholder), while every lane still
    # equals its lone run. The 2x2 grid saturates after six builds, so
    # no-builds (None) enter its keys.
    cases = [
        two_city_config(steps=3, landuse_enabled=True),
        two_city_config(steps=2, congestion_in_evaluation=True),
        two_city_config(steps=3),
        two_city_config(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0), steps=8),
    ]
    lanes = [(c, replace(cfg, xi=xi), seed) for xi in (0.0, 0.5, 1.0) for seed in range(4)
             for c, cfg in enumerate(cases)]
    oracles = [run(lane, seed) for _, lane, seed in lanes]
    prefixes, pairs, decider_prefixes = set(), set(), set()
    for (c, *_), oracle in zip(lanes, oracles):
        chosen = tuple(record.chosen for record in oracle.decisions)
        deciders = tuple((record.level, record.mayor) for record in oracle.decisions)
        for k in range(len(chosen)):
            prefixes.add((c, chosen[:k]))
            pairs.add((c, chosen[:k], deciders[k]))
            decider_prefixes.add((c, deciders[:k + 1]))
    assert any(None in prefix for _, prefix in prefixes)
    assert len(pairs) < len(decider_prefixes)
    advanced, decided = _record_calls(monkeypatch, "advance"), _record_calls(monkeypatch, "decide_and_build")
    memo = {}
    for (_, lane, seed), oracle in zip(lanes, oracles):
        _assert_same_run(run(lane, seed, memo=memo), oracle)
    assert (len(advanced), len(decided)) == (len(prefixes), len(pairs))


@pytest.mark.parametrize("cfg", [
    two_city_config(steps=3, landuse_enabled=True),
    two_city_config(steps=2, congestion_in_evaluation=True),
    two_city_config(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0), steps=8),
], ids=["landuse", "congested", "saturating"])
def test_lone_run_never_hits_its_own_memo(monkeypatch, cfg):
    # A run keys step k under a build prefix of k links (None for a
    # no-build), so its own fresh memo never serves one of its steps: a
    # lone run computes every step, as the oracles above, runs that share
    # no memo, assume.
    advanced, decided = _record_calls(monkeypatch, "advance"), _record_calls(monkeypatch, "decide_and_build")
    state = run(cfg, 0)
    assert (len(advanced), len(decided)) == (cfg.steps, cfg.steps)
    if cfg.grid_rows == 2:
        assert state.decisions[-1].chosen is None


def test_three_computed_steps_serve_more_than_three_decider_prefixes(monkeypatch):
    # On a 1x2 grid every stakeholder can build only the one link, so the
    # governor and both mayors reach one world after step 1, and steps 2 and
    # 3 build nothing. Keyed by the links built, three advance calls serve
    # the empty decider prefix and all one- and two-decider prefixes.
    cfg = two_city_config(grid_rows=1, grid_cols=2, minor_position=(0, 1), dominant_position=(0, 0), steps=3)
    lanes = [(replace(cfg, xi=xi), seed) for xi in (0.0, 0.5, 1.0) for seed in range(5)]
    oracles = [run(lane, seed) for lane, seed in lanes]
    advanced = _record_calls(monkeypatch, "advance")
    memo = {}
    served = set()
    for (lane, seed), oracle in zip(lanes, oracles):
        before = len(advanced)
        _assert_same_run(run(lane, seed, memo=memo), oracle)
        computed = {len(state.decisions) for state, in advanced[before:]}
        deciders = tuple((record.level, record.mayor) for record in oracle.decisions)
        served.update(deciders[:k] for k in range(cfg.steps) if k not in computed)
    assert len(advanced) == 3
    assert len(served) > 3


def _square_arrays(value, n, seen):
    """Every (n, n) ndarray reachable from value through tuples, dicts and dataclass fields."""
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value] if value.shape == (n, n) else []
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list)):
        children = value
    elif is_dataclass(value):
        children = [getattr(value, f.name) for f in fields(value)]
    else:
        return []
    return [array for child in children for array in _square_arrays(child, n, seen)]


def test_memo_entries_hold_no_travel_time_matrix():
    # After two scenarios' lanes share one memo, the only (N, N) arrays its
    # entries reach are the scenarios' own cell distances, which every
    # metropolis of a scenario shares.
    scenarios = [two_city_config(steps=3, landuse_enabled=True),
                 two_city_config(steps=2, congestion_in_evaluation=True, dominant_position=(1, 8))]
    memo = {}
    for cfg in scenarios:
        for xi in (0.0, 0.5, 1.0):
            for seed in range(3):
                run(replace(cfg, xi=xi), seed, memo=memo)
    distances = {id(state.metropolis.distance_km) for state in memo.values() if isinstance(state, SimState)}
    assert len(distances) == 2
    square = _square_arrays(list(memo.values()), scenarios[0].n_cells, set())
    assert square and {id(array) for array in square} <= distances


@pytest.mark.parametrize("cfg", [
    two_city_config(steps=3, landuse_enabled=True),
    two_city_config(steps=2, congestion_in_evaluation=True, capacity=60.0),
    two_city_config(grid_rows=15, grid_cols=15, minor_position=(12, 12), dominant_position=(2, 2), steps=3,
                    initial_links=((0, 16), (32, 64), (100, 130))),
    two_city_config(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0), steps=8),
], ids=["landuse", "congested", "15x15-initial-links", "saturating"])
def test_derived_travel_times_equal_the_assigned_ones(monkeypatch, cfg):
    # A state keeps the network its last assignment returned (the pre-seeded
    # one at step 0) and derives its travel times from it; each step's must
    # equal, bit for bit, the matrix that step's assignment returned, and
    # the initial state's the zero-flow times of the pre-seeded network.
    assigned = []

    def assign_recording(*args):
        network, d = assign_traffic(*args)
        assigned.append((network, d))
        return network, d

    monkeypatch.setattr(engine, "assign_traffic", assign_recording)
    state = initial_state(cfg)
    assert state.assigned is state.network
    assert state.travel_times.tobytes() == shortest_times(state.network, state.metropolis).tobytes()
    rng = random.Random(0)
    for k in range(1, cfg.steps + 1):
        state = step(state, rng, xi=cfg.xi, memo={}, scenario="")
        assert len(assigned) == k
        assert state.assigned is assigned[-1][0]
        assert state.travel_times.tobytes() == assigned[-1][1].tobytes()
    if cfg.grid_rows == 2:
        assert state.decisions[-1].chosen is None


def test_network_is_the_assigned_one_plus_the_chosen_link():
    # A state stores the assigned network and its decisions; the built
    # network is derived from them, and a memo's decision entry holds the
    # record alone. The 2x2 grid with one pre-seeded link saturates after
    # five builds, so its last steps build nothing.
    assert [f.name for f in fields(SimState)] == ["metropolis", "assigned", "history", "decisions", "density_history"]
    cfg = two_city_config(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0), steps=8,
                          initial_links=((0, 3),))
    state = initial_state(cfg)
    assert state.network is state.assigned
    rng, memo = random.Random(0), {}
    for _ in range(cfg.steps):
        state = step(state, rng, xi=cfg.xi, memo=memo, scenario="")
        chosen, network, assigned = state.decisions[-1].chosen, state.network, state.assigned
        if chosen is None:
            assert network is assigned
        else:
            assert network.a.tolist() == [*assigned.a.tolist(), chosen[0]]
            assert network.b.tolist() == [*assigned.b.tolist(), chosen[1]]
            assert network.flow.tolist() == [*assigned.flow.tolist(), 0.0]
    assert [row.link_count for row in state.history] == [1, 2, 3, 4, 5, 6, 6, 6, 6]
    assert state.history[-1].link_count == len(state.network)
    decided = [value for key, value in memo.items() if isinstance(key, tuple) and isinstance(key[-1], Stakeholder)]
    assert len(decided) == cfg.steps and all(isinstance(record, DecisionRecord) for record in decided)


@pytest.mark.parametrize("congested", [False, True], ids=["free-flow", "congested"])
def test_power_of_two_scale_scales_indicators_exactly(congested):
    # With land use off, scaling every centre's amplitude and the capacity
    # by 2**k scales workers, jobs, trips and flows by 2**k and leaves every
    # flow over capacity as it was, all exactly. So the same links are
    # built on bit-equal times, while accessibility and every objective
    # scale by exactly 4**k and total travel time by exactly 2**k.
    cfg = two_city_config(grid_rows=8, grid_cols=8, minor_position=(6, 6), dominant_position=(1, 1), steps=3,
                          congestion_in_evaluation=congested, capacity=60.0)
    base = run(cfg, 0)
    for k in (1, -2):
        scaled = run(replace(cfg, centers=tuple(replace(c, amplitude=c.amplitude * 2.0**k) for c in cfg.centers),
                             capacity=cfg.capacity * 2.0**k), 0)
        assert [d.chosen for d in scaled.decisions] == [d.chosen for d in base.decisions]
        assert scaled.travel_times.tobytes() == base.travel_times.tobytes()
        for row, scaled_row in zip(base.history, scaled.history, strict=True):
            assert scaled_row.total_accessibility == row.total_accessibility * 4.0**k
            assert scaled_row.total_travel_time == row.total_travel_time * 2.0**k
        for d, scaled_d in zip(base.decisions, scaled.decisions):
            assert (scaled_d.objective_before, scaled_d.objective_after) == (
                d.objective_before * 4.0**k, d.objective_after * 4.0**k)
            assert scaled_d.evaluations == tuple((a, b, value * 4.0**k) for a, b, value in d.evaluations)


def _assert_same_indicators(base, other):
    """Equal link counts, and every indicator within a relative 1e-9 of the other run's."""
    for row, other_row in zip(base.history, other.history, strict=True):
        assert other_row.link_count == row.link_count
        for value, other_value in zip((row.total_accessibility, row.total_travel_time, *row.mayor_objectives),
                                      (other_row.total_accessibility, other_row.total_travel_time,
                                       *other_row.mayor_objectives), strict=True):
            assert abs(other_value - value) <= 1e-9 * abs(value)


@pytest.mark.parametrize("congested", [False, True], ids=["free-flow", "congested"])
def test_transposed_grid_builds_the_transposed_links(congested):
    # Swapping grid_rows and grid_cols and transposing every centre and
    # initial link maps cell r C + c to c R + r and leaves every distance as
    # it was. So the transposed run builds the transposed links, and its
    # indicators differ only by the order of sums.
    rows, cols = 4, 7
    cfg = two_city_config(grid_rows=rows, grid_cols=cols, minor_position=(3, 5), dominant_position=(0, 1), steps=3,
                          initial_links=((0, 8),), landuse_enabled=True, congestion_in_evaluation=congested,
                          capacity=60.0)

    def transpose(cell):
        return cell % cols * rows + cell // cols

    transposed = replace(cfg, grid_rows=cols, grid_cols=rows,
                         centers=tuple(replace(c, position=c.position[::-1]) for c in cfg.centers),
                         initial_links=tuple((transpose(a), transpose(b)) for a, b in cfg.initial_links))
    for seed in (0, 1):
        base, other = run(cfg, seed), run(transposed, seed)
        assert [d.chosen and tuple(sorted(map(transpose, d.chosen))) for d in base.decisions] == [
            d.chosen for d in other.decisions]
        _assert_same_indicators(base, other)


@pytest.mark.parametrize("congested", [False, True], ids=["free-flow", "congested"])
def test_permuted_categories_build_the_same_links(congested):
    # Permuting the categories' mix, m and m_prime together relabels the
    # categories and nothing else: the run builds the same links, and its
    # indicators differ only by the order of sums over categories. The
    # centres, mixes and preference matrices are asymmetric, so no mirror
    # link ties with the one built.
    base_cfg = two_city_config(grid_rows=6, grid_cols=6, minor_position=(1, 2), dominant_position=(4, 5), steps=3,
                               landuse_enabled=True, congestion_in_evaluation=congested, capacity=60.0)
    m = np.array([[0.05, 0.02, 0.0], [0.01, 0.04, 0.03], [0.0, 0.02, 0.06]])
    m_prime = np.array([[0.03, 0.0, 0.01], [0.02, 0.05, 0.0], [0.01, 0.03, 0.04]])
    mixes = ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3))

    def with_categories(order):
        return replace(base_cfg, categories=3, m=m[np.ix_(order, order)], m_prime=m_prime[np.ix_(order, order)],
                       centers=tuple(replace(c, mix=tuple(mix[k] for k in order))
                                     for c, mix in zip(base_cfg.centers, mixes, strict=True)))

    for seed in (0, 1):
        base, permuted = run(with_categories([0, 1, 2]), seed), run(with_categories([2, 0, 1]), seed)
        assert [d.chosen for d in base.decisions] == [d.chosen for d in permuted.decisions]
        _assert_same_indicators(base, permuted)


def test_memo_keeps_scenarios_apart():
    # Two scenarios that differ in more than xi share one memo but no state.
    near, far = two_city_config(steps=2, xi=0.5), two_city_config(steps=2, xi=0.5, dominant_position=(1, 8))
    memo = {}
    for cfg in (near, far, near, far):
        shared = run(cfg, 1, memo=memo)
        assert shared.metropolis.config is cfg
        _assert_same_run(shared, run(cfg, 1))


class TestReplicate:
    def test_single_run_has_zero_covariance(self):
        cfg = two_city_config(steps=2)
        stats = replicate(cfg, n=1, base_seed=5)
        assert stats.n == 1
        assert np.array_equal(stats.covariance, np.zeros((2, 2)))
        assert np.array_equal(stats.axis_lengths, np.zeros(2))

    def test_xi_zero_batch_has_zero_variance(self):
        cfg = two_city_config(steps=3, xi=0.0)
        stats = replicate(cfg, n=5, base_seed=0)
        assert np.allclose(stats.covariance, 0.0, atol=1e-18)

    def test_mean_matches_per_run_average(self):
        cfg = two_city_config(steps=2, xi=1.0)
        stats = replicate(cfg, n=6, base_seed=10)
        finals = []
        for seed in range(10, 16):
            state = run(cfg, seed=seed)
            last = state.history[-1]
            finals.append((last.total_accessibility, last.total_travel_time))
        assert np.allclose(stats.mean, np.mean(finals, axis=0), rtol=1e-12)
        assert np.allclose(stats.finals, finals, rtol=1e-12)

    def test_aggregation_is_permutation_invariant(self):
        rng = np.random.default_rng(0)
        finals = rng.uniform(0.0, 10.0, size=(12, 2))
        base = summarize_finals(list(range(12)), finals)
        perm = rng.permutation(12)
        shuffled = summarize_finals(perm.tolist(), finals[perm])
        assert np.allclose(base.mean, shuffled.mean, rtol=1e-12)
        assert np.allclose(base.covariance, shuffled.covariance, rtol=1e-12)

    def test_covariance_is_symmetric_psd(self):
        cfg = two_city_config(steps=3, xi=0.8)
        stats = replicate(cfg, n=8, base_seed=3)
        assert np.allclose(stats.covariance, stats.covariance.T)
        assert (np.linalg.eigvalsh(stats.covariance) >= -1e-12).all()
        assert stats.axis_lengths[0] >= stats.axis_lengths[1] >= 0.0
