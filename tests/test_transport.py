from __future__ import annotations

import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from metrosim.governance import Stakeholder, decide_and_build, enumerate_candidates
from metrosim.transport import (
    Network,
    ODMatrix,
    _Routing,
    _walk_groups,
    assign_traffic,
    bpr_time,
    build_network,
    congested_times,
    distribute,
    furness_balance,
    intra_cell_time,
    link_time,
    shortest_times,
    total_travel_time,
)

from oracles import (
    afc_oracle,
    closure_times_oracle,
    dijkstra_load_oracle,
    floyd_warshall_oracle,
    furness_oracle,
    furness_residual_trace,
    ipf_oracle,
    load_all_or_nothing_oracle,
    make_metropolis,
    per_group_walk_oracle,
)


def load_all_or_nothing(od, network, metropolis):
    """One all-or-nothing pass of assign_traffic's loader at the network's congested times."""
    return _Routing(network, metropolis).loads(od, congested_times(network, metropolis))


# ---------------------------------------------------------------------------
# Travel times


def test_empty_network_times_are_afc():
    metropolis = make_metropolis()
    d = shortest_times(Network(), metropolis)
    expected = afc_oracle(metropolis)
    np.fill_diagonal(expected, intra_cell_time(metropolis))
    assert np.array_equal(d, expected)


def test_fast_link_on_segment_dominates():
    metropolis = make_metropolis()
    # Cells 0 and 4 share a row; the link runs straight along the segment.
    length = 4.0 * metropolis.config.cell_size_km
    net = Network().with_link(0, 4)  # at the default v_link, 75 km/h
    d = shortest_times(net, metropolis)
    assert d[0, 4] == pytest.approx(length / 75.0, rel=1e-12)


def test_slow_link_is_ignored():
    metropolis = make_metropolis(v_link=5.0)
    net = Network().with_link(0, 1)  # slower than local roads
    d = shortest_times(net, metropolis)
    assert d[0, 1] == pytest.approx(1.0 / metropolis.config.v_local, rel=1e-12)


def test_diagonal_carries_intra_cell_floor():
    metropolis = make_metropolis()
    d = shortest_times(Network(), metropolis)
    assert np.allclose(np.diag(d), intra_cell_time(metropolis))
    assert intra_cell_time(metropolis) > 0


def test_shortest_times_match_floyd_warshall_on_random_networks():
    rng = random.Random(1234)
    for trial in range(25):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        metropolis = make_metropolis(rows=rows, cols=cols, v_link=120.0)
        n = metropolis.n_cells
        net = Network()
        pairs = []
        for _ in range(rng.randint(0, 12)):
            a, b = rng.sample(range(n), 2)
            if (a, b) in pairs or (b, a) in pairs:
                continue
            net = net.with_link(a, b)
            pairs.append((a, b))
        # Random flows put each link at 1 to 39 times its free-flow time.
        net = replace(net, flow=np.array([rng.uniform(0.0, 4.0) * metropolis.config.capacity for _ in pairs]))
        d = shortest_times(net, metropolis)
        oracle = floyd_warshall_oracle(metropolis, pairs, congested_times(net, metropolis))
        assert np.max(np.abs(d - oracle)) < 1e-9, f"trial {trial}"


def test_shortest_times_equal_the_routing_closure_bit_for_bit():
    rng = np.random.default_rng(2024)
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        # At free flow every link is slower than local roads at 20 km/h and
        # none is at 130 km/h; random flows put each link at 1 to 39 times its
        # free-flow time, so some congested links are slower.
        for v_link in (20.0, 130.0):
            metropolis = make_metropolis(rows=rows, cols=cols, v_link=v_link)
            n = metropolis.n_cells
            for n_links in (0, 1, 3, 8, 15, 25, 40):
                net, seen = Network(), set()
                while len(net) < n_links:
                    a, b = (int(c) for c in rng.choice(n, size=2, replace=False))
                    if (min(a, b), max(a, b)) not in seen:
                        seen.add((min(a, b), max(a, b)))
                        net = net.with_link(a, b)
                net = replace(net, flow=rng.uniform(0.0, 4.0, len(net)) * metropolis.config.capacity)
                for flows, case in (("random", net), ("zero", replace(net, flow=np.zeros(len(net))))):
                    oracle = closure_times_oracle(metropolis, case)
                    assert np.array_equal(shortest_times(case, metropolis), oracle), \
                        f"{rows}x{cols}, v_link {v_link}, {n_links} links, {flows} flows"


def seeded_network(metropolis, rng, n_links, *, mirrored=False):
    """n_links distinct links at random flows, 1 to 39 times their free-flow time.

    mirrored adds each link's reflection about the grid diagonal at the same
    flow; the two have the same length and so the same time, and routes
    through mirrored links tie exactly.
    """
    cols = metropolis.config.grid_cols
    net, seen, flows = Network(), set(), []
    while len(net) < n_links:
        a, b = (int(c) for c in rng.choice(metropolis.n_cells, size=2, replace=False))
        pairs = [(a, b)]
        mirror = ((a % cols) * cols + a // cols, (b % cols) * cols + b // cols)
        if mirrored and set(mirror) != {a, b}:
            pairs.append(mirror)
        keys = {(min(p), max(p)) for p in pairs}
        if len(net) + len(pairs) > n_links or keys & seen:
            continue
        seen |= keys
        flow = rng.uniform(0.0, 4.0) * metropolis.config.capacity
        for p in pairs:
            net = net.with_link(*p)
            flows.append(flow)
    return replace(net, flow=np.array(flows))


def test_loader_equals_the_whole_join_bit_for_bit():
    rng = np.random.default_rng(515)
    entry_ties = exit_ties = 0
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        metropolis = make_metropolis(rows=rows, cols=cols, v_link=130.0)
        n = metropolis.n_cells
        for n_links in (1, 2, 5, 12, 25):
            for mirrored in ((False, True) if rows == cols else (False,)):
                net = seeded_network(metropolis, rng, n_links, mirrored=mirrored)
                od = rng.uniform(0.0, 10.0, (n, n)) * (rng.random((n, n)) < 0.7)
                expected, n_entry, n_exit = load_all_or_nothing_oracle(od, metropolis, net)
                entry_ties += n_entry
                exit_ties += n_exit
                assert np.array_equal(load_all_or_nothing(od, net, metropolis), expected), \
                    f"{rows}x{cols}, {n_links} links, mirrored={mirrored}"
    # Ties must occur on routed pairs, or the first-terminal rule goes untested.
    assert entry_ties > 0 and exit_ties > 0


def saturated_network(metropolis):
    """The network that holds every link enumerate_candidates offers, added round by round until none is left.

    Fails, rather than running on, once the links outnumber the cell pairs,
    as they do if a built link is offered again.
    """
    n, net = metropolis.n_cells, Network()
    while True:
        a, b = enumerate_candidates(net, metropolis)
        if not len(a):
            return net
        assert len(net) + len(a) <= n * (n - 1) // 2, "enumerate_candidates offers a built link"
        for pair in zip(a.tolist(), b.tolist()):
            net = net.with_link(*pair)


def test_array_walk_equals_the_per_group_walk_bit_for_bit():
    # Every MSA pass of assign_traffic on the gravity demand of its network:
    # congested at capacity 20 and 60, on random, initial-link, saturated and
    # mirrored-tie networks.
    rng = np.random.default_rng(33)
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        for capacity in (20.0, 60.0):
            metropolis = make_metropolis(rows=rows, cols=cols, capacity=capacity, v_link=130.0)
            cases = {
                "random": seeded_network(metropolis, rng, 12),
                "initial links": build_network(((0, cols + 1), (cols + 1, 2 * cols + 2))),
                "saturated": saturated_network(metropolis),
            }
            if rows == cols:
                cases["mirrored"] = seeded_network(metropolis, rng, 12, mirrored=True)
            for name, net in cases.items():
                od = distribute(metropolis, shortest_times(net, metropolis)).flows
                assigned, d = assign_traffic(od, net, metropolis, 4)
                for k in range(1, 5):
                    loads = load_all_or_nothing(od, net, metropolis)
                    assert loads.tobytes() == per_group_walk_oracle(od, metropolis, net).tobytes(), \
                        f"{rows}x{cols}, capacity {capacity}, {name}, pass {k}"
                    net = replace(net, flow=(1.0 - 1.0 / k) * net.flow + (1.0 / k) * loads)
                assert assigned.flow.tobytes() == net.flow.tobytes()
                assert d.tobytes() == shortest_times(assigned, metropolis).tobytes()


def test_walk_on_a_successor_cycle_fails_at_once():
    # A path on t endpoints has at most t - 1 hops. A faulty successor matrix
    # whose walk from 0 to exit 1 runs 0 -> 2 -> 0 must raise, naming the
    # unfinished group, not loop forever.
    succ = np.tile(np.arange(3), (3, 1))
    succ[0, 1], succ[2, 1] = 2, 0
    edge_link = np.full((3, 3), -1)
    edge_link[0, 2] = edge_link[2, 0] = 0
    flow = np.zeros(9)
    flow[0 * 3 + 1] = 5.0
    flow[2 * 3 + 0] = 1.0  # a finished group beside the stuck one
    with pytest.raises(RuntimeError, match=r"route groups \(entry, exit\) \[\(0, 1\)\] did not reach"):
        _walk_groups(flow, succ, edge_link, 1)


def test_join_memory_stays_within_n_by_n_temporaries():
    # A 30x30 grid with 40 links (76 terminals): the whole (N, N, t) join
    # peaked at 1035 MB in the loader and 507 MB in shortest_times.
    metropolis = make_metropolis(rows=30, cols=30)
    n = metropolis.n_cells
    rng = np.random.default_rng(30)
    net, seen = Network(), set()
    while len(net) < 40:
        a, b = (int(c) for c in rng.choice(n, size=2, replace=False))
        if (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            net = net.with_link(a, b)
    od = rng.uniform(0.0, 10.0, (n, n))
    peaks = {}
    # The loader and assign_traffic peak at 31.8 MB, while grouping routes,
    # and shortest_times at 14.3 MB. One more (N, N) float array held, such
    # as a second AFC matrix beside the time buffer, is 6.5 MB. A loader that
    # formed its work arrays on every pass and grouped routes through two
    # (N, N) masks peaked at 45.3 MB.
    for name, call, bound_mb in (("loader", lambda: load_all_or_nothing(od, net, metropolis), 36),
                                 ("shortest_times", lambda: shortest_times(net, metropolis), 20),
                                 ("assign_traffic", lambda: assign_traffic(od, net, metropolis, 4), 36)):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peaks[name] <= bound_mb, peaks


def test_triangle_consistency():
    metropolis = make_metropolis(rows=4, cols=4)
    net = build_network(((0, 5), (5, 10), (10, 15)))
    d = shortest_times(net, metropolis)
    floor = intra_cell_time(metropolis)
    n = metropolis.n_cells
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, k] <= d[i, j] + d[j, k] + 2 * floor + 1e-12


def test_adding_link_never_increases_free_flow_times():
    metropolis = make_metropolis()
    net = build_network(((0, 6), (6, 12)))
    before = shortest_times(net, metropolis)
    bigger = net.with_link(12, 18)
    after = shortest_times(bigger, metropolis)
    assert (after <= before + 1e-15).all()


@pytest.mark.parametrize("bpr_beta", [4.0, 0.0])
def test_link_times_are_bpr_of_flow(bpr_beta):
    # A link's time at flow is always bpr_time(link_time, flow): on a built
    # network, on a link decide_and_build appends and on an assigned network.
    # At bpr_beta = 0 the curve is flat, so a link with no flow is already
    # at link_time * (1 + bpr_alpha). Routing reads those times.
    metropolis = make_metropolis(rows=4, cols=4, capacity=60.0, bpr_beta=bpr_beta)
    cfg = metropolis.config
    net = build_network(((0, 5), (5, 10), (10, 15)))
    od = distribute(metropolis, shortest_times(net, metropolis)).flows
    assigned, _ = assign_traffic(od, net, metropolis, cfg.assignment_iterations)
    built, _ = decide_and_build(metropolis, assigned, Stakeholder())
    assert len(built) == 4 and (assigned.flow > 0.0).all() and built.flow[-1] == 0.0
    for network in (net, assigned, built):
        expected = bpr_time(link_time(metropolis, network.a, network.b), network.flow,
                            cfg.capacity, cfg.bpr_alpha, cfg.bpr_beta)
        assert congested_times(network, metropolis).tobytes() == expected.tobytes()
        pairs = list(zip(network.a.tolist(), network.b.tolist()))
        oracle = floyd_warshall_oracle(metropolis, pairs, expected.tolist())
        assert np.max(np.abs(shortest_times(network, metropolis) - oracle)) < 1e-9


def test_network_is_a_value():
    net = Network()
    bigger = net.with_link(0, 1)
    assert len(net) == 0 and len(bigger) == 1
    with pytest.raises(FrozenInstanceError):
        bigger.flow = np.ones(1)


# ---------------------------------------------------------------------------
# Gravity distribution


def category_furness(metropolis, d, cat):
    """One category's gravity balancing with the config's parameters."""
    cfg = metropolis.config
    return furness_balance(metropolis.workers[:, cat], metropolis.jobs[:, cat], np.exp(-cfg.lam * d),
                           cfg.furness_tolerance, cfg.furness_max_iter)


def test_distribute_sums_the_category_balancings_in_order():
    metropolis = make_metropolis()
    rng = np.random.default_rng(9)
    workers = metropolis.workers * rng.uniform(0.5, 1.5, size=metropolis.workers.shape)
    metropolis = replace(metropolis, workers=workers,
                         jobs=metropolis.jobs * rng.uniform(0.5, 1.5, size=metropolis.jobs.shape))
    d = shortest_times(Network(), metropolis)
    od = distribute(metropolis, d)
    expected = np.zeros((metropolis.n_cells, metropolis.n_cells))
    for cat in range(metropolis.workers.shape[1]):
        flows, residual, iterations, converged = category_furness(metropolis, d, cat)
        expected += flows
        assert od.residuals[cat] == residual
        assert od.iterations[cat] == iterations
        assert od.converged[cat] == converged
    assert np.array_equal(od.flows, expected)
    workers = metropolis.workers.sum(axis=1)
    assert np.max(np.abs(od.flows.sum(axis=1) - workers) / workers) < 1e-7


def test_one_sided_category_contributes_nothing():
    metropolis = make_metropolis()
    metropolis.jobs[:, 0] = 0.0
    d = shortest_times(Network(), metropolis)
    od = distribute(metropolis, d)
    assert np.array_equal(od.flows, category_furness(metropolis, d, 1)[0])
    assert (od.residuals[0], od.iterations[0], od.converged[0]) == (0.0, 0, True)


def assert_same_balance(result, oracle):
    assert result[0].tobytes() == oracle[0].tobytes()
    assert result[1:] == oracle[1:]


def test_furness_matches_the_every_iteration_oracle_bit_for_bit():
    # Seeded marginals with empty origin and destination cells, tolerances
    # from loose to below rounding, and caps that stop the balance early.
    rng = np.random.default_rng(17)
    stops = {True: 0, False: 0}
    for n in (1, 2, 7, 40, 120):
        for lam in (0.0, 0.7, 3.0, 9.0):
            for tol, max_iter in ((1e-3, 500), (1e-8, 500), (1e-12, 500), (1e-8, 3), (1e-15, 40)):
                a = rng.uniform(0.0, 50.0, n)
                e = rng.uniform(0.0, 50.0, n)
                if n > 2:
                    a[rng.choice(n, size=n // 3, replace=False)] = 0.0
                    e[rng.choice(n, size=n // 3, replace=False)] = 0.0
                d = rng.uniform(0.02, 1.5, (n, n))
                oracle = furness_oracle(a, e, d, lam, tol, max_iter)
                assert_same_balance(furness_balance(a, e, np.exp(-lam * d), tol, max_iter), oracle)
                stops[oracle[3]] += 1
    assert stops[True] > 0 and stops[False] > 0  # both stop rules are exercised
    d = rng.uniform(0.02, 1.5, (6, 6))
    for a, e in ((np.zeros(6), np.ones(6)), (np.ones(6), np.zeros(6))):  # an empty side
        assert_same_balance(furness_balance(a, e, np.exp(-1.0 * d), 1e-8, 100), furness_oracle(a, e, d, 1.0, 1e-8, 100))


def test_furness_stops_where_only_the_exact_residual_is_below_tol():
    # At some iteration, at a working tolerance, the residual from the
    # scaling vectors lies above the exact one by rounding. With tol set to
    # the vector residual, only the exact one is below tol there, so the
    # balance must take the exact test inside the guard band to stop at that
    # iteration, as the oracle does.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, e = rng.uniform(0.5, 50.0, 60), rng.uniform(0.5, 50.0, 60)
        d = rng.uniform(0.02, 1.5, (60, 60))
        trace = furness_residual_trace(a, e, d, 2.0, 40)
        for k, (cheap, exact) in enumerate(trace):
            if exact < cheap < 1e-6 and all(earlier >= cheap for _, earlier in trace[:k]):
                break
        else:
            continue
        assert cheap - exact < 4 * (60 + 4) * np.finfo(float).eps
        oracle = furness_oracle(a, e, d, 2.0, cheap, 40)
        assert oracle[1:] == (exact, k + 1, True)
        assert_same_balance(furness_balance(a, e, np.exp(-2.0 * d), cheap, 40), oracle)
        return
    pytest.fail("no seed gives an iteration with the vector residual above the exact one")


def test_distribute_with_a_one_sided_category_matches_the_oracle():
    metropolis = make_metropolis(rows=6, cols=6)
    rng = np.random.default_rng(4)
    workers = metropolis.workers * rng.uniform(0.5, 1.5, size=metropolis.workers.shape)
    jobs = metropolis.jobs * rng.uniform(0.5, 1.5, size=metropolis.jobs.shape)
    workers[:5] = 0.0
    jobs[-5:] = 0.0
    jobs[:, 0] = 0.0
    metropolis = replace(metropolis, workers=workers, jobs=jobs)
    d = shortest_times(build_network(((0, 35), (5, 30))), metropolis)
    cfg = metropolis.config
    od = distribute(metropolis, d)
    flows = np.zeros_like(d)
    for cat in range(workers.shape[1]):
        oracle = furness_oracle(workers[:, cat], jobs[:, cat], d, cfg.lam, cfg.furness_tolerance,
                                cfg.furness_max_iter)
        flows += oracle[0]
        assert (od.residuals[cat], od.iterations[cat], od.converged[cat]) == oracle[1:]
    assert od.iterations[0] == 0 and od.iterations[1] > 0
    assert od.flows.tobytes() == flows.tobytes()


def test_balance_results_are_frozen():
    flows, _, _, _ = furness_balance(np.ones(3), np.ones(3), np.exp(-1.0 * np.ones((3, 3))), 1e-8, 50)
    od = ODMatrix(flows, np.zeros(1), np.ones(1, dtype=bool), np.ones(1, dtype=int))
    with pytest.raises(FrozenInstanceError):
        od.flows = od.flows


def test_furness_lambda_zero_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(1.0, 20.0, size=8)
        e = rng.uniform(1.0, 20.0, size=8)
        d = rng.uniform(0.05, 1.0, size=(8, 8))
        flows, _, _, _ = furness_balance(a, e, np.exp(-0.0 * d), tol=1e-12, max_iter=500)
        e_scaled = e * a.sum() / e.sum()
        expected = np.outer(a, e_scaled) / e_scaled.sum()
        assert np.max(np.abs(flows - expected)) < 1e-9


def test_furness_single_zone():
    flows, _, _, _ = furness_balance(np.array([5.0]), np.array([7.0]), np.exp(-1.0 * np.array([[0.1]])),
                                     tol=1e-10, max_iter=100)
    assert flows[0, 0] == pytest.approx(5.0, rel=1e-9)


def test_furness_matches_reference_ipf():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.uniform(0.5, 30.0, size=10)
        e = rng.uniform(0.5, 30.0, size=10)
        d = rng.uniform(0.02, 0.8, size=(10, 10))
        d = (d + d.T) / 2
        flows, _, _, converged = furness_balance(a, e, np.exp(-0.3 * d), tol=1e-10, max_iter=2000)
        assert converged
        oracle = ipf_oracle(a, e, d, lam=0.3)
        assert np.max(np.abs(flows - oracle)) < 1e-6


def test_furness_marginals_converge():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 10.0, size=12)
    a[3] = 0.0  # an empty zone must stay empty
    e = rng.uniform(0.5, 10.0, size=12)
    d = rng.uniform(0.05, 0.5, size=(12, 12))
    flows, _, _, converged = furness_balance(a, e, np.exp(-0.8 * d), tol=1e-9, max_iter=1000)
    assert converged
    e_scaled = e * (a.sum() / e.sum())
    assert np.max(np.abs(flows.sum(axis=1) - a) / np.maximum(a, 1e-12)) < 1e-9
    assert np.max(np.abs(flows.sum(axis=0) - e_scaled) / np.maximum(e_scaled, 1e-12)) < 1e-9
    assert flows[3].sum() == 0.0


def test_furness_nonconvergence_is_flagged():
    rng = np.random.default_rng(5)
    a = rng.uniform(1.0, 10.0, size=10)
    e = rng.uniform(1.0, 10.0, size=10)
    d = rng.uniform(0.1, 1.0, size=(10, 10))
    flows, residual, _, converged = furness_balance(a, e, np.exp(-2.0 * d), tol=1e-14, max_iter=1)
    assert not converged
    assert residual > 0.0
    assert np.isfinite(flows).all()


def test_gravity_cost_weakly_decreases_with_lambda():
    rng = np.random.default_rng(11)
    a = rng.uniform(1.0, 10.0, size=9)
    e = rng.uniform(1.0, 10.0, size=9)
    d = rng.uniform(0.05, 1.0, size=(9, 9))
    d = (d + d.T) / 2
    costs = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        flows, _, _, _ = furness_balance(a, e, np.exp(-lam * d), tol=1e-11, max_iter=3000)
        costs.append((flows * d).sum())
    assert all(costs[i + 1] <= costs[i] + 1e-9 for i in range(len(costs) - 1))


# ---------------------------------------------------------------------------
# Congestion and assignment


def test_bpr_free_flow_identity():
    assert bpr_time(0.5, 0.0, 100.0, 0.15, 4.0) == 0.5


def test_bpr_at_capacity():
    assert bpr_time(1.0, 100.0, 100.0, 0.15, 4.0) == pytest.approx(1.15, rel=1e-12)


def test_bpr_at_double_capacity():
    assert bpr_time(2.0, 200.0, 100.0, 0.15, 4.0) == pytest.approx(2.0 * 3.4, rel=1e-12)


def test_bpr_strictly_increasing_in_flow():
    flows = np.linspace(0.0, 300.0, 31)
    times = bpr_time(1.0, flows, 100.0, 0.15, 4.0)
    assert (np.diff(times) > 0).all()


def test_bpr_on_arrays_matches_one_link_at_a_time():
    # congested_times computes all link times as one array; each must equal
    # the scalar call bit for bit, or outputs would depend on the update form.
    rng = np.random.default_rng(5)
    t0 = rng.uniform(0.01, 0.1, 2000)
    flows = rng.uniform(0.0, 1000.0, 2000)
    times = bpr_time(t0, flows, 100.0, 0.15, 4.0)
    assert times.tolist() == [bpr_time(t, f, 100.0, 0.15, 4.0) for t, f in zip(t0.tolist(), flows.tolist())]


def test_zero_od_leaves_network_free_flow():
    metropolis = make_metropolis()
    net = build_network(((0, 1), (1, 2)))
    od = np.zeros((metropolis.n_cells, metropolis.n_cells))
    loaded, d = assign_traffic(od, net, metropolis, iterations=3)
    assert (loaded.flow == 0.0).all()
    assert congested_times(loaded, metropolis).tobytes() == link_time(metropolis, loaded.a, loaded.b).tobytes()
    assert np.array_equal(d, shortest_times(net, metropolis))


def test_assignment_leaves_input_network_untouched():
    metropolis = make_metropolis()
    net = build_network(((0, 12),))
    od = np.zeros((metropolis.n_cells, metropolis.n_cells))
    od[0, 12] = 50.0
    names = ("a", "b", "flow")
    before = {name: getattr(net, name).copy() for name in names}
    loaded, _ = assign_traffic(od, net, metropolis, iterations=2)
    assert loaded.flow[0] > 0.0
    for name in names:
        assert np.array_equal(getattr(net, name), before[name]), name


def test_parallel_routes_balance_after_even_iterations():
    # Corners 0 and 8 of a 3x3 grid with mirror-image two-hop routes via 2 and
    # via 6: the all-or-nothing loads alternate, and successive averaging
    # equalises them at every even iteration.
    metropolis = make_metropolis(rows=3, cols=3)
    net = build_network(((0, 2), (2, 8), (0, 6), (6, 8)))
    n = metropolis.n_cells
    od = np.zeros((n, n))
    od[0, 8] = od[8, 0] = 120.0
    loaded, _ = assign_traffic(od, net, metropolis, iterations=4)
    flows = dict(zip(zip(loaded.a.tolist(), loaded.b.tolist()), loaded.flow.tolist()))
    assert flows[(0, 2)] == pytest.approx(flows[(0, 6)], abs=1e-6)
    assert flows[(2, 8)] == pytest.approx(flows[(6, 8)], abs=1e-6)
    assert flows[(0, 2)] == pytest.approx(120.0, abs=1e-6)


def test_single_link_congests_or_migrates_to_local_roads():
    # One fast link with demand at twice its capacity: after overload its BPR
    # time exceeds the AFC time, so the next iteration routes around it.
    capacity = 50.0
    metropolis = make_metropolis(rows=1, cols=4, minor_position=(0, 3), dominant_position=(0, 0),
                                 capacity=capacity)
    cfg = metropolis.config
    length = 3.0 * cfg.cell_size_km
    net = Network().with_link(0, 3)
    n = metropolis.n_cells
    od = np.zeros((n, n))
    od[0, 3] = 2.0 * capacity

    t0 = length / 75.0
    afc = length / cfg.v_local
    overloaded = bpr_time(t0, 2.0 * capacity, capacity, cfg.bpr_alpha, cfg.bpr_beta)
    assert overloaded > afc  # hand check: 0.04 * (1 + 0.15 * 16) = 0.136 > 0.12

    loaded, d = assign_traffic(od, net, metropolis, iterations=2)
    # Iteration 1 loads everything; iteration 2 migrates to AFC; the average halves the load.
    assert loaded.flow[0] == pytest.approx(capacity, rel=1e-12)
    assert d[0, 3] <= afc + 1e-15


def test_loads_match_path_walk_oracle():
    rng = random.Random(99)
    for trial in range(8):
        metropolis = make_metropolis(rows=3, cols=4, v_link=110.0)
        n = metropolis.n_cells
        net, seen = Network(), set()
        for _ in range(rng.randint(2, 7)):
            a, b = rng.sample(range(n), 2)
            if (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            net = net.with_link(a, b)
        # Random flows put each link at 1 to 2.2 times its free-flow time: 50 to 110 km/h.
        net = replace(net, flow=np.array([rng.uniform(0.0, 1.68) * metropolis.config.capacity for _ in range(len(net))]))
        od = np.zeros((n, n))
        for _ in range(12):
            i, j = rng.sample(range(n), 2)
            od[i, j] += rng.uniform(1.0, 10.0)

        loaded, _ = assign_traffic(od, net, metropolis, iterations=1)
        oracle = dijkstra_load_oracle(metropolis, net, od)
        assert np.max(np.abs(loaded.flow - oracle)) < 1e-9, f"trial {trial}"


# ---------------------------------------------------------------------------
# Total travel time


def test_total_travel_time_zero_od():
    d = np.full((3, 3), 0.4)
    assert total_travel_time(np.zeros((3, 3)), d) == 0.0


def test_total_travel_time_single_flow():
    od = np.zeros((2, 2))
    od[0, 1] = 10.0
    d = np.full((2, 2), 0.5)
    assert total_travel_time(od, d) == pytest.approx(5.0)


def test_total_travel_time_matches_double_loop():
    rng = np.random.default_rng(21)
    flows = rng.uniform(0.0, 5.0, size=(6, 6))
    d = rng.uniform(0.01, 0.9, size=(6, 6))
    expected = 0.0
    for i in range(6):
        for j in range(6):
            expected += flows[i, j] * d[i, j]
    assert total_travel_time(flows, d) == pytest.approx(expected, rel=1e-12)

