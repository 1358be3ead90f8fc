from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from metrosim.config import two_city_config
from metrosim.governance import (
    PRUNE_MARGIN,
    Stakeholder,
    _candidate_times,
    _LinkGains,
    _territory_accessibility,
    decide_and_build,
    enumerate_candidates,
    select_stakeholder,
)
from metrosim.transport import (
    Network,
    assign_traffic,
    build_network,
    distribute,
    intra_cell_time,
    shortest_times,
)
from metrosim.world import grid_centroids, init_metropolis


def make_metropolis(**cfg_kwargs):
    cfg_kwargs.setdefault("grid_rows", 5)
    cfg_kwargs.setdefault("grid_cols", 5)
    cfg_kwargs.setdefault("minor_position", (4, 4))
    cfg_kwargs.setdefault("dominant_position", (0, 0))
    cfg = two_city_config(**cfg_kwargs)
    return init_metropolis(cfg, 1000.0, 1000.0)


def candidate_pairs(network, metropolis):
    """enumerate_candidates as a list of (a, b) pairs of ints."""
    a, b = enumerate_candidates(network, metropolis)
    return list(zip(a.tolist(), b.tolist()))


def enumerate_candidates_oracle(network, metropolis):
    """Brute-force candidate pairs, walking the grid cell by cell."""
    cfg = metropolis.config
    rows, cols = cfg.grid_rows, cfg.grid_cols
    pairs = set()
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    pairs.add((a, r2 * cols + c2))
    touched = network.endpoints()
    for i, a in enumerate(touched):
        for b in touched[i + 1 :]:
            (ra, ca), (rb, cb) = divmod(a, cols), divmod(b, cols)
            if 1 <= max(abs(ra - rb), abs(ca - cb)) <= cfg.network_extension_radius:
                pairs.add((a, b))
    links = {(min(a, b), max(a, b)) for a, b in zip(network.a.tolist(), network.b.tolist())}
    return sorted(pairs - links)


def trial_times_oracle(metropolis, network, a, b):
    """Travel times after building a-b, recomputed from scratch on a copy of the network.

    Free-flow shortest times by default; with congestion_in_evaluation set,
    the current demand is re-distributed on the current times and assigned
    on the extended network.
    """
    cfg = metropolis.config
    trial = network.with_link(a, b, metropolis.distance_km[a, b] / cfg.v_link)
    if cfg.congestion_in_evaluation:
        od = distribute(metropolis, shortest_times(network, metropolis))
        return assign_traffic(od.flows, trial, metropolis, cfg.assignment_iterations)[1]
    return shortest_times(trial, metropolis, free_flow=True)


def evaluate_candidate_oracle(metropolis, network, a, b, stakeholder):
    """Objective after building a-b, on the times of trial_times_oracle."""
    d = trial_times_oracle(metropolis, network, a, b)
    return _territory_accessibility(metropolis, d, stakeholder.territory_cells(metropolis))


STAKEHOLDERS = (Stakeholder(kind="governor"), Stakeholder(kind="mayor", mayor=0),
                Stakeholder(kind="mayor", mayor=1))


def random_case(n: int, seed: int):
    """An n x n metropolis with seeded perturbed land use and a few random links."""
    metropolis = make_metropolis(grid_rows=n, grid_cols=n, minor_position=(n - 1, n - 1))
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    workers = metropolis.workers * np_rng.uniform(0.5, 1.5, metropolis.workers.shape)
    metropolis = replace(metropolis, workers=workers,
                         jobs=metropolis.jobs * np_rng.uniform(0.5, 1.5, metropolis.jobs.shape))
    net = Network(metropolis.n_cells)
    for _ in range(rng.randint(1, n)):
        a, b = rng.choice(candidate_pairs(net, metropolis))
        net = net.with_link(a, b, metropolis.distance_km[a, b] / metropolis.config.v_link)
    return metropolis, net


def loaded_congested_case(n: int, seed: int, capacity: float = 1500.0):
    """random_case under congested evaluation at the given link capacity.

    The network is loaded by one assignment of the current demand, as a run
    step does, so its current times differ from free-flow times.
    """
    metropolis, net = random_case(n, seed)
    cfg = replace(metropolis.config, congestion_in_evaluation=True, capacity=capacity)
    metropolis = replace(metropolis, config=cfg)
    od = distribute(metropolis, shortest_times(net, metropolis))
    net, _ = assign_traffic(od.flows, net, metropolis, cfg.assignment_iterations)
    return metropolis, net


# ---------------------------------------------------------------------------
# Stakeholder selection


def test_xi_zero_always_governor():
    rng = random.Random(0)
    for _ in range(200):
        stakeholder, draws = select_stakeholder(0.0, np.array([10.0, 20.0]), rng)
        assert stakeholder.kind == "governor"
        assert len(draws) == 1


def test_xi_one_with_degenerate_weights():
    rng = random.Random(1)
    for _ in range(200):
        stakeholder, draws = select_stakeholder(1.0, np.array([5.0, 0.0]), rng)
        assert stakeholder == Stakeholder(kind="mayor", mayor=0)
        assert len(draws) == 2


def test_mayor_frequencies_follow_job_weights():
    rng = random.Random(4242)
    counts = [0, 0]
    for _ in range(10_000):
        stakeholder, _ = select_stakeholder(1.0, np.array([75.0, 25.0]), rng)
        counts[stakeholder.mayor] += 1
    share = counts[0] / 10_000
    assert 0.74 <= share <= 0.76


def test_zero_weights_fall_back_to_uniform(caplog):
    rng = random.Random(7)
    counts = [0, 0, 0]
    for _ in range(3000):
        stakeholder, _ = select_stakeholder(1.0, np.zeros(3), rng)
        counts[stakeholder.mayor] += 1
    for c in counts:
        assert 850 < c < 1150  # ~1000 each, 5 sigma wide


def test_draw_order_is_level_then_mayor():
    # Two generators started from the same seed must stay in lockstep: the
    # governor path consumes one draw, the local path two.
    rng = random.Random(99)
    reference = random.Random(99)
    stakeholder, draws = select_stakeholder(0.0, np.array([1.0, 1.0]), rng)
    assert draws == (reference.random(),)
    stakeholder, draws = select_stakeholder(1.0, np.array([1.0, 1.0]), rng)
    assert draws == (reference.random(), reference.random())


# ---------------------------------------------------------------------------
# Candidate enumeration


def test_two_by_two_grid_has_six_candidates():
    metropolis = make_metropolis(grid_rows=2, grid_cols=2,
                                 minor_position=(1, 1), dominant_position=(0, 0))
    assert candidate_pairs(Network(4), metropolis) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_saturated_network_has_no_candidates():
    metropolis = make_metropolis(grid_rows=2, grid_cols=2,
                                 minor_position=(1, 1), dominant_position=(0, 0))
    net = build_network(metropolis, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert candidate_pairs(net, metropolis) == []


def test_candidates_are_unique_and_sorted():
    metropolis = make_metropolis()
    net = build_network(metropolis, ((0, 1), (6, 12)))
    pairs = candidate_pairs(net, metropolis)
    assert len(pairs) == len(set(pairs))
    assert pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)
    assert (0, 1) not in pairs and (6, 12) not in pairs


def test_extension_candidates_respect_radius():
    metropolis = make_metropolis()  # 5x5, extension radius 3
    net = build_network(metropolis, ((0, 1), (3, 4)))  # touched cells: 0, 1, 3, 4
    candidates = set(candidate_pairs(net, metropolis))
    assert (1, 4) in candidates       # both touched, Chebyshev 3
    assert (0, 3) in candidates       # both touched, Chebyshev 3
    assert (0, 4) not in candidates   # both touched but Chebyshev 4: too far
    assert (0, 7) not in candidates   # cell 7 does not touch the network


def test_enumeration_matches_loop_oracle():
    for n, seed in ((5, 0), (5, 1), (5, 2), (10, 0), (10, 1), (10, 2)):
        metropolis, net = random_case(n, seed)
        # The same links stored with their endpoints swapped (b < a).
        flipped = build_network(metropolis, tuple(zip(net.b.tolist(), net.a.tolist())))
        for radius in (1, 3, n):
            case = replace(metropolis, config=replace(metropolis.config, network_extension_radius=radius))
            for network in (net, flipped):
                assert candidate_pairs(network, case) == enumerate_candidates_oracle(network, case)


def test_candidate_lengths_are_centroid_distances():
    metropolis = make_metropolis()
    pts = grid_centroids(metropolis.config)
    for a, b in candidate_pairs(Network(metropolis.n_cells), metropolis):
        assert metropolis.distance_km[a, b] == float(np.hypot(*(pts[a] - pts[b])))


# ---------------------------------------------------------------------------
# Objectives


def test_governor_objective_sums_mayor_objectives():
    metropolis = make_metropolis()
    d = shortest_times(Network(metropolis.n_cells), metropolis)
    total = _territory_accessibility(metropolis, d, Stakeholder(kind="governor").territory_cells(metropolis))
    mayors = sum(_territory_accessibility(metropolis, d, Stakeholder(kind="mayor", mayor=i).territory_cells(metropolis))
                 for i in range(2))
    assert total == pytest.approx(mayors, rel=1e-12)


def test_empty_territory_objective_is_zero():
    metropolis = make_metropolis()
    metropolis.territory[:] = 0  # mayor 1 owns nothing
    d = shortest_times(Network(metropolis.n_cells), metropolis)
    mayor = Stakeholder(kind="mayor", mayor=1)
    assert _territory_accessibility(metropolis, d, mayor.territory_cells(metropolis)) == 0.0


def test_single_cell_territory_objective():
    metropolis = make_metropolis()
    metropolis.territory[:] = 0
    metropolis.territory[13] = 1
    d = shortest_times(Network(metropolis.n_cells), metropolis)
    from metrosim.landuse import accessibility

    _, _, total_access = accessibility(metropolis, d, metropolis.config.nu)
    mayor = Stakeholder(kind="mayor", mayor=1)
    assert _territory_accessibility(metropolis, d, mayor.territory_cells(metropolis)) == pytest.approx(
        float(total_access[13]), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Candidate evaluation


def test_collinear_candidate_changes_nothing():
    # Links 0-1 and 1-2 run along the top row; the direct 0-2 candidate rides
    # the same straight line at the same speed, so no shortest path improves.
    metropolis = make_metropolis()
    net = build_network(metropolis, ((0, 1), (1, 2)))
    governor = Stakeholder(kind="governor")
    base = _territory_accessibility(metropolis, shortest_times(net, metropolis, free_flow=True),
                                    governor.territory_cells(metropolis))
    value = evaluate_candidate_oracle(metropolis, net, 0, 2, governor)
    assert value == pytest.approx(base, rel=1e-12)


def test_new_fast_link_strictly_improves_objective():
    metropolis = make_metropolis()
    net = Network(metropolis.n_cells)
    governor = Stakeholder(kind="governor")
    base = _territory_accessibility(metropolis, shortest_times(net, metropolis, free_flow=True),
                                    governor.territory_cells(metropolis))
    improved = evaluate_candidate_oracle(metropolis, net, 0, 6, governor)
    assert improved > base


def test_evaluation_leaves_network_untouched():
    # Neither the trial networks nor the built network may change the
    # input network's arrays, in either evaluation mode.
    names = ("a", "b", "free_flow_time", "flow", "congested_time")
    for congested in (False, True):
        metropolis = make_metropolis(grid_rows=3, grid_cols=3, minor_position=(2, 2),
                                     congestion_in_evaluation=congested)
        net = build_network(metropolis, ((0, 4),))
        net.flow[0] = 42.0
        net.congested_time[0] = 0.5
        before = {name: getattr(net, name).copy() for name in names}
        built, _ = decide_and_build(metropolis, net, Stakeholder(kind="governor"),
                                    travel_times=shortest_times(net, metropolis))
        assert len(built) == 2
        for name in names:
            assert np.array_equal(getattr(net, name), before[name])


def test_incremental_evaluation_matches_full_recompute():
    # The free-flow search scores only the candidates its bound cannot rule
    # out. Its decision must still be the exhaustive argmax (smallest (a, b)
    # on ties), its objective_after bit-identical to an exhaustive pass over
    # the one-link relaxation, and every score it reports must match a full
    # shortest-path recomputation.
    for n, seed in ((5, 0), (5, 1), (5, 2), (10, 0), (10, 1), (10, 2)):
        metropolis, net = random_case(n, seed)
        candidates = candidate_pairs(net, metropolis)
        d_base = shortest_times(net, metropolis, free_flow=True)
        floor = intra_cell_time(metropolis)
        v_link = metropolis.config.v_link
        for stakeholder in STAKEHOLDERS:
            _, record = decide_and_build(metropolis, net, stakeholder, travel_times=shortest_times(net, metropolis))
            full = {(a, b): evaluate_candidate_oracle(metropolis, net, a, b, stakeholder) for a, b in candidates}
            oracle = max(full, key=full.__getitem__)  # first maximum in enumeration order
            assert record.chosen == oracle
            assert record.objective_after == pytest.approx(full[oracle], rel=1e-12)

            cells = stakeholder.territory_cells(metropolis)
            relaxed = {
                (a, b): _territory_accessibility(
                    metropolis, _candidate_times(d_base, a, b, metropolis.distance_km[a, b] / v_link, floor), cells)
                for a, b in candidates
            }
            assert record.objective_after == max(relaxed.values())

            assert record.n_candidates == len(candidates)
            assert 0 < len(record.evaluations) <= len(candidates)
            for a, b, value in record.evaluations:
                assert value == relaxed[(a, b)]
                assert value == pytest.approx(full[(a, b)], rel=1e-12)
            if n == 10:
                assert len(record.evaluations) < len(candidates) // 4  # the bound prunes


def test_gain_bound_holds_for_every_candidate():
    for n, seed in ((5, 3), (5, 4), (10, 5)):
        metropolis, net = random_case(n, seed)
        a, b = enumerate_candidates(net, metropolis)
        d_base = shortest_times(net, metropolis, free_flow=True)
        for stakeholder in STAKEHOLDERS:
            before = _territory_accessibility(metropolis, d_base, stakeholder.territory_cells(metropolis))
            gains = _LinkGains(metropolis, d_base, stakeholder.territory_cells(metropolis), a, b)
            bounds = gains.bounds()
            for k in range(len(a)):
                exact = evaluate_candidate_oracle(metropolis, net, a[k], b[k], stakeholder) - before
                assert exact <= bounds[k] + 1e-12 * abs(before)
                assert gains.gain(k) == pytest.approx(exact, abs=1e-12 * abs(before))


def row_column_bound_oracle(gains):
    """Per direction x -> y, the smaller of a row bound against P = W K^T over
    every column and a column bound against Q = K_T^T W over every row of T."""
    weights = gains.workers @ gains.jobs.T                 # (|T|, N)
    P, Q = weights @ gains.K.T, gains.KTt @ weights       # P[i, y], Q[x, j]
    out = np.zeros(len(gains.a))
    for k, (a, b, c) in enumerate(zip(gains.a, gains.b, gains.c)):
        for x, y in ((a, b), (b, a)):
            row = np.maximum(c * gains.KTt[x] - gains.KTt[y], 0.0) @ P[:, y]
            col = np.maximum(c * gains.K[y] - gains.K[x], 0.0) @ Q[x]
            out[k] += min(row, col)
    return out


def test_box_bound_is_no_looser_than_row_column_bound():
    # The box bound sums over the block R x C only, where the row/column
    # bound sums its row form over every column and its column form over
    # every row of the territory.
    tighter = 0
    for n, seed in ((5, 3), (5, 4), (10, 5)):
        metropolis, net = random_case(n, seed)
        a, b = enumerate_candidates(net, metropolis)
        d_base = shortest_times(net, metropolis, free_flow=True)
        for stakeholder in STAKEHOLDERS:
            cells = stakeholder.territory_cells(metropolis)
            tol = 1e-12 * abs(_territory_accessibility(metropolis, d_base, cells))
            gains = _LinkGains(metropolis, d_base, cells, a, b)
            bounds, oracle = gains.bounds(), row_column_bound_oracle(gains)
            for k in range(len(a)):
                assert gains.gain(k) <= bounds[k] + tol
                assert bounds[k] <= oracle[k] + tol
            tighter += int((bounds < oracle - tol).sum())
    assert tighter > 0


def test_free_flow_times_obey_triangle_inequality():
    # The free-flow search is exact only because d_ij <= d_ik + d_kj: its
    # block split of a link's gain and its pruning bound both rest on it.
    for n, seed in ((5, 6), (10, 7), (10, 8)):
        metropolis, net = random_case(n, seed)
        d = shortest_times(net, metropolis, free_flow=True)
        np.fill_diagonal(d, 0.0)
        tol = 1e-12 * d.max()
        for k in range(metropolis.n_cells):
            assert (d <= d[:, k, None] + d[None, k, :] + tol).all()


def test_congested_objective_is_bounded_by_free_flow_gain():
    # Congested times are never below free-flow times, so a candidate's
    # congested objective is at most the free-flow objective of the network
    # plus that link: before_ff + gain(k) <= before_ff + bounds()[k]. The
    # congested search prunes on exactly these two values.
    for n, seed, capacity in ((5, 0, 1500.0), (5, 1, 20.0), (10, 2, 1500.0), (10, 3, 20.0)):
        metropolis, net = loaded_congested_case(n, seed, capacity)
        a, b = enumerate_candidates(net, metropolis)
        d_ff = shortest_times(net, metropolis, free_flow=True)
        trial = [trial_times_oracle(metropolis, net, a[k], b[k]) for k in range(len(a))]
        for stakeholder in STAKEHOLDERS:
            cells = stakeholder.territory_cells(metropolis)
            before_ff = _territory_accessibility(metropolis, d_ff, cells)
            margin = PRUNE_MARGIN * abs(before_ff)
            gains = _LinkGains(metropolis, d_ff, cells, a, b)
            bounds = gains.bounds()
            for k, d in enumerate(trial):
                congested = _territory_accessibility(metropolis, d, cells)
                assert congested <= before_ff + gains.gain(k) + margin
                assert congested <= before_ff + bounds[k] + margin


# ---------------------------------------------------------------------------
# Decide and build


def test_single_candidate_is_built():
    for congested in (False, True):
        metropolis = make_metropolis(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0),
                                     congestion_in_evaluation=congested)
        net = build_network(metropolis, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
        built, record = decide_and_build(metropolis, net, Stakeholder(kind="governor"),
                                         travel_times=shortest_times(net, metropolis))
        assert record.chosen == (1, 3)
        assert [(a, b) for a, b, _ in record.evaluations] == [(1, 3)]
        assert built.has_link(1, 3)
        assert len(built) == len(net) + 1


def test_no_candidates_records_no_build():
    for congested in (False, True):
        metropolis = make_metropolis(grid_rows=2, grid_cols=2, minor_position=(1, 1), dominant_position=(0, 0),
                                     congestion_in_evaluation=congested)
        net = build_network(metropolis, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        built, record = decide_and_build(metropolis, net, Stakeholder(kind="governor"),
                                         travel_times=shortest_times(net, metropolis))
        assert record.chosen is None
        assert record.n_candidates == 0
        assert record.evaluations == ()
        assert record.objective_after == record.objective_before
        assert len(built) == len(net)


def test_equal_objectives_break_to_first_pair():
    # A perfectly mirror-symmetric 1 x cols metropolis: candidates come in
    # value-equal mirrored pairs, so the winner must be the enumeration-first
    # of its pair. On 1 x 5 the two middle links tie for the maximum, and
    # the search must score both of them exactly.
    stakeholder = Stakeholder(kind="governor")
    for cols in (4, 5):
        cfg = two_city_config(grid_rows=1, grid_cols=cols, minor_position=(0, cols - 1),
                              dominant_position=(0, 0), minor_amplitude=100.0, dominant_amplitude=100.0,
                              minor_job_share=0.5, dominant_job_share=0.5)
        metropolis = init_metropolis(cfg, 100.0, 100.0)
        net = Network(cols)
        _, record = decide_and_build(metropolis, net, stakeholder, travel_times=shortest_times(net, metropolis))
        values = {ab: evaluate_candidate_oracle(metropolis, net, *ab, stakeholder)
                  for ab in candidate_pairs(net, metropolis)}
        assert values[(0, 1)] == pytest.approx(values[(cols - 2, cols - 1)], rel=1e-12)
        best = max(values.values())
        firsts = [ab for ab, v in values.items() if v >= best - abs(best) * 1e-15]
        assert record.chosen == firsts[0]
        assert set(firsts) <= {(a, b) for a, b, _ in record.evaluations}
    assert firsts == [(1, 2), (2, 3)]


def test_chosen_link_dominates_all_candidates():
    metropolis = make_metropolis()
    net = build_network(metropolis, ((0, 6),))
    rng = random.Random(11)
    for mayor in (None, 0, 1):
        stakeholder = (Stakeholder(kind="governor") if mayor is None
                       else Stakeholder(kind="mayor", mayor=mayor))
        built, record = decide_and_build(metropolis, net, stakeholder, travel_times=shortest_times(net, metropolis))
        assert record.objective_after >= record.objective_before
        for _, _, value in record.evaluations:
            assert record.objective_after >= value
        net = built


def test_congested_scoring_matches_oracle():
    # The congested search assigns only the candidates whose free-flow bound
    # can still reach the best congested score. Its decision must be the
    # exhaustive first maximum, and every value it lists the oracle's. At
    # capacity 20 the loaded network's current times differ from free-flow
    # times and the congested and free-flow choices differ. At capacity 150
    # a new link relieves enough congestion that a search offsetting the
    # bounds by the congested objective instead of the free-flow one prunes
    # the maximum. At the default capacity the bound prunes all but a few.
    for n, seed, capacity in ((5, 0, 20.0), (5, 1, 20.0), (5, 6, 150.0), (5, 2, 1500.0), (10, 2, 1500.0)):
        metropolis, net = loaded_congested_case(n, seed, capacity)
        candidates = candidate_pairs(net, metropolis)
        trial = {(a, b): trial_times_oracle(metropolis, net, a, b) for a, b in candidates}
        for stakeholder in STAKEHOLDERS:
            _, record = decide_and_build(metropolis, net, stakeholder, travel_times=shortest_times(net, metropolis))
            cells = stakeholder.territory_cells(metropolis)
            oracle = {ab: _territory_accessibility(metropolis, d, cells) for ab, d in trial.items()}
            assert record.n_candidates == len(candidates)
            for a, b, value in record.evaluations:
                assert value == oracle[(a, b)]
            assert record.chosen == max(oracle, key=oracle.__getitem__)  # first maximum in enumeration order
            assert record.objective_after == oracle[record.chosen]
            if capacity == 1500.0:
                assert len(record.evaluations) < record.n_candidates


def test_congested_evaluation_mode_runs():
    cfg = two_city_config(grid_rows=3, grid_cols=3, minor_position=(2, 2), dominant_position=(0, 0),
                          congestion_in_evaluation=True)
    metropolis = init_metropolis(cfg, 300.0, 300.0)
    net = Network(9)
    built, record = decide_and_build(metropolis, net, Stakeholder(kind="governor"),
                                     travel_times=shortest_times(net, metropolis))
    assert record.chosen is not None
    assert len(built) == 1
    assert np.isfinite(record.objective_after)
