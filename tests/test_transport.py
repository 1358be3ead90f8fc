from __future__ import annotations

import heapq
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from metrosim.config import two_city_config
from metrosim.transport import (
    FurnessResult,
    Network,
    ODMatrix,
    _load_all_or_nothing,
    assign_traffic,
    bpr_time,
    build_network,
    distribute,
    furness_balance,
    intra_cell_time,
    shortest_times,
    total_travel_time,
)
from metrosim.world import grid_centroids, init_metropolis


def make_metropolis(rows=5, cols=5, **cfg_kwargs):
    cfg_kwargs.setdefault("minor_position", (rows - 1, cols - 1))
    cfg_kwargs.setdefault("dominant_position", (0, 0))
    cfg = two_city_config(grid_rows=rows, grid_cols=cols, **cfg_kwargs)
    return init_metropolis(cfg, 1000.0, 1000.0)


# ---------------------------------------------------------------------------
# Oracles


def afc_oracle(metropolis):
    """Local-road times between cell centres, one pair at a time, zero diagonal."""
    cfg = metropolis.config
    pts = grid_centroids(cfg)
    n = metropolis.n_cells
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            w[i, j] = float(np.hypot(*(pts[i] - pts[j]))) / cfg.v_local
    return w


def floyd_warshall_oracle(metropolis, links, times):
    """Dense all-pairs relaxation over AFC edges plus regional links."""
    n = metropolis.n_cells
    w = afc_oracle(metropolis)
    for (a, b), t in zip(links, times):
        if t < w[a, b]:
            w[a, b] = w[b, a] = t
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    np.fill_diagonal(d, intra_cell_time(metropolis))
    return d


def closure_times_oracle(metropolis, network, free_flow):
    """Times of the unsplit closure that also routed: Floyd-Warshall with successors,
    the argmin/take_along_axis join and np.where against the AFC times.
    """
    afc = metropolis.distance_km / metropolis.config.v_local
    d = afc.copy()
    if len(network):
        link_times = network.free_flow_time if free_flow else network.congested_time
        terminals = np.array(sorted(set(network.a.tolist()) | set(network.b.tolist())))
        t = len(terminals)
        dist = afc[np.ix_(terminals, terminals)]
        ia = np.searchsorted(terminals, network.a)
        ib = np.searchsorted(terminals, network.b)
        li = np.nonzero(link_times < dist[ia, ib])[0]
        dist[ia[li], ib[li]] = dist[ib[li], ia[li]] = link_times[li]
        succ = np.tile(np.arange(t), (t, 1))
        for k in range(t):
            cand = dist[:, k : k + 1] + dist[k : k + 1, :]
            better = cand < dist
            if better.any():
                dist = np.where(better, cand, dist)
                succ = np.where(better, np.broadcast_to(succ[:, k : k + 1], succ.shape), succ)
        access = afc[:, terminals]
        via = access[:, :, None] + dist[None, :, :]
        entry_for_exit = via.argmin(axis=1)
        best_via = np.take_along_axis(via, entry_for_exit[:, None, :], axis=1)[:, 0, :]
        full = best_via[:, None, :] + access[None, :, :]
        exit_term = full.argmin(axis=2)
        d_net = np.take_along_axis(full, exit_term[:, :, None], axis=2)[:, :, 0]
        d = np.where(d_net < afc, d_net, afc)
    np.fill_diagonal(d, intra_cell_time(metropolis))
    return d


def load_all_or_nothing_oracle(od, afc, network):
    """The loader with the whole join at once, and how many routed pairs tie.

    Builds the (N, t, t) and (N, N, t) join arrays, takes argmin and
    take_along_axis over their terminal axes and groups routes with np.add.at.
    Returns the loads, the routed pairs whose best entry terminal ties with
    another and those whose best exit terminal does.
    """
    loads = np.zeros(len(network))
    if not len(network):
        return loads, 0, 0
    terminals = np.array(network.endpoints())
    t = len(terminals)
    dist = afc[np.ix_(terminals, terminals)]
    edge_link = np.full((t, t), -1, dtype=int)
    ia = np.searchsorted(terminals, network.a)
    ib = np.searchsorted(terminals, network.b)
    li = np.nonzero(network.congested_time < dist[ia, ib])[0]
    ia, ib = ia[li], ib[li]
    dist[ia, ib] = dist[ib, ia] = network.congested_time[li]
    edge_link[ia, ib] = edge_link[ib, ia] = li

    succ = np.tile(np.arange(t), (t, 1))
    for k in range(t):
        cand = dist[:, k : k + 1] + dist[k : k + 1, :]
        better = cand < dist
        if better.any():
            dist = np.where(better, cand, dist)
            succ = np.where(better, np.broadcast_to(succ[:, k : k + 1], succ.shape), succ)

    access = afc[:, terminals]                                   # (N, t)
    via = access[:, :, None] + dist[None, :, :]                  # (N, t_a, t_b)
    entry_for_exit = via.argmin(axis=1)                          # (N, t_b)
    best_via = np.take_along_axis(via, entry_for_exit[:, None, :], axis=1)[:, 0, :]  # (N, t_b)
    full = best_via[:, None, :] + access[None, :, :]             # (N, N, t_b)
    exit_term = full.argmin(axis=2)                              # (N, N)
    d_net = np.take_along_axis(full, exit_term[:, :, None], axis=2)[:, :, 0]
    entry_term = np.take_along_axis(entry_for_exit, exit_term, axis=1)

    mask = (d_net < afc) & (od > 0.0)
    entry_ties = (via == best_via[:, None, :]).sum(axis=1) > 1  # (N, t_b)
    rows = np.nonzero(mask)[0]
    n_entry_ties = int(entry_ties[rows, exit_term[mask]].sum())
    n_exit_ties = int(((full[mask] == d_net[mask][:, None]).sum(axis=1) > 1).sum())
    if not mask.any():
        return loads, n_entry_ties, n_exit_ties
    grouped = np.zeros((t, t))
    np.add.at(grouped, (entry_term[mask], exit_term[mask]), od[mask])
    for ei, xi in zip(*np.nonzero(grouped)):
        flow = grouped[ei, xi]
        u = ei
        while u != xi:
            v = succ[u, xi]
            li = edge_link[u, v]
            if li >= 0:
                loads[li] += flow
            u = v
    return loads, n_entry_ties, n_exit_ties


def ipf_oracle(origins, destinations, d, lam, sweeps=5000, tol=1e-13):
    """Reference iterative proportional fitting by direct row/column scaling."""
    flows = np.outer(origins, destinations) * np.exp(-lam * d)
    target_rows = np.asarray(origins, dtype=float)
    target_cols = np.asarray(destinations, dtype=float) * (target_rows.sum() / destinations.sum())
    for _ in range(sweeps):
        row = flows.sum(axis=1)
        flows *= np.divide(target_rows, row, out=np.ones_like(row), where=row > 0)[:, None]
        col = flows.sum(axis=0)
        flows *= np.divide(target_cols, col, out=np.ones_like(col), where=col > 0)[None, :]
        if (np.abs(flows.sum(axis=1) - target_rows).max() < tol
                and np.abs(flows.sum(axis=0) - target_cols).max() < tol):
            break
    return flows


def furness_oracle(origins, destinations, d, lam, tol, max_iter):
    """The gravity balance that forms the flow matrix and its exact residual every iteration."""
    def _marginal_error(flows, origins, destinations):
        row = np.abs(flows.sum(axis=1) - origins) / np.maximum(origins, 1e-12)
        col = np.abs(flows.sum(axis=0) - destinations) / np.maximum(destinations, 1e-12)
        return float(max(row.max(initial=0.0), col.max(initial=0.0)))

    a = np.asarray(origins, dtype=float)
    e = np.asarray(destinations, dtype=float)
    n = a.shape[0]
    total_a, total_e = a.sum(), e.sum()
    if total_a <= 0.0 or total_e <= 0.0:
        zeros = np.zeros((n, n))
        return FurnessResult(zeros, e * 0.0, 0.0, 0, True)
    e = e * (total_a / total_e)

    kernel = np.exp(-lam * d)
    p = np.ones(n)
    q = np.ones(n)
    flows = np.zeros((n, n))
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        denom_p = kernel @ (q * e)
        p = np.divide(1.0, denom_p, out=np.zeros(n), where=denom_p > 0.0)
        denom_q = kernel.T @ (p * a)
        q = np.divide(1.0, denom_q, out=np.zeros(n), where=denom_q > 0.0)
        flows = (p * a)[:, None] * (q * e)[None, :] * kernel
        residual = _marginal_error(flows, a, e)
        if residual < tol:
            return FurnessResult(flows, e, residual, iterations, True)
    return FurnessResult(flows, e, residual, iterations, False)


def furness_residual_trace(a, e, d, lam, max_iter):
    """Per iteration of furness_oracle, the residual taken from the scaling vectors and the exact one.

    The vector residual is the balance's cheap test: row sums p a (K q e),
    column sums q e (K^T p a).
    """
    def relative_error(rows, cols):
        row = np.abs(rows - a) / np.maximum(a, 1e-12)
        col = np.abs(cols - e) / np.maximum(e, 1e-12)
        return float(max(row.max(initial=0.0), col.max(initial=0.0)))

    e = e * (a.sum() / e.sum())
    kernel = np.exp(-lam * d)
    n = len(a)
    q = np.ones(n)
    trace = []
    for _ in range(max_iter):
        denom_p = kernel @ (q * e)
        p = np.divide(1.0, denom_p, out=np.zeros(n), where=denom_p > 0.0)
        denom_q = kernel.T @ (p * a)
        q = np.divide(1.0, denom_q, out=np.zeros(n), where=denom_q > 0.0)
        pa, qe = p * a, q * e
        flows = pa[:, None] * qe[None, :] * kernel
        trace.append((relative_error(pa * (kernel @ qe), qe * denom_q),
                      relative_error(flows.sum(axis=1), flows.sum(axis=0))))
    return trace


def dijkstra_load_oracle(metropolis, network, od):
    """Per-link loads from a heap Dijkstra over the dense AFC + links graph.

    Ties between a link edge and the AFC edge of the same pair go to AFC,
    matching the production rule that equal-time traffic stays local.
    """
    n = metropolis.n_cells
    afc = afc_oracle(metropolis)
    link_time = {}
    for li, (a, b, t) in enumerate(zip(network.a.tolist(), network.b.tolist(), network.congested_time.tolist())):
        link_time[(a, b)] = link_time[(b, a)] = (t, li)
    w = afc.copy()
    for (a, b), (t, _li) in link_time.items():
        if t < w[a, b]:
            w[a, b] = t

    loads = np.zeros(len(network))
    for src in range(n):
        dist = np.full(n, np.inf)
        prev = np.full(n, -1)
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v in range(n):
                if v == u:
                    continue
                alt = du + w[u, v]
                if alt < dist[v]:
                    dist[v] = alt
                    prev[v] = u
                    heapq.heappush(heap, (alt, v))
        for dst in range(n):
            if dst == src or od[src, dst] <= 0.0:
                continue
            if dist[dst] >= afc[src, dst]:  # direct AFC wins ties
                continue
            v = dst
            while prev[v] != -1:
                u = prev[v]
                entry = link_time.get((u, v))
                if entry is not None and entry[0] < afc[u, v]:
                    loads[entry[1]] += od[src, dst]
                v = u
    return loads


# ---------------------------------------------------------------------------
# Travel times


def test_empty_network_times_are_afc():
    metropolis = make_metropolis()
    net = Network(metropolis.n_cells)
    d = shortest_times(net, metropolis)
    expected = afc_oracle(metropolis)
    np.fill_diagonal(expected, intra_cell_time(metropolis))
    assert np.array_equal(d, expected)


def test_fast_link_on_segment_dominates():
    metropolis = make_metropolis()
    net = Network(metropolis.n_cells)
    # Cells 0 and 4 share a row; the link runs straight along the segment.
    length = 4.0 * metropolis.config.cell_size_km
    net = net.with_link(0, 4, length / 75.0)
    d = shortest_times(net, metropolis)
    assert d[0, 4] == pytest.approx(length / 75.0, rel=1e-12)


def test_slow_link_is_ignored():
    metropolis = make_metropolis()
    net = Network(metropolis.n_cells)
    net = net.with_link(0, 1, 1.0 / 5.0)  # slower than local roads
    d = shortest_times(net, metropolis)
    assert d[0, 1] == pytest.approx(1.0 / metropolis.config.v_local, rel=1e-12)


def test_diagonal_carries_intra_cell_floor():
    metropolis = make_metropolis()
    d = shortest_times(Network(metropolis.n_cells), metropolis)
    assert np.allclose(np.diag(d), intra_cell_time(metropolis))
    assert intra_cell_time(metropolis) > 0


def test_shortest_times_match_floyd_warshall_on_random_networks():
    rng = random.Random(1234)
    for trial in range(25):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        metropolis = make_metropolis(rows=rows, cols=cols)
        n = metropolis.n_cells
        pts = grid_centroids(metropolis.config)
        net = Network(n)
        pairs, times = [], []
        for _ in range(rng.randint(0, 12)):
            a, b = rng.sample(range(n), 2)
            if net.has_link(a, b):
                continue
            length = float(np.hypot(*(pts[a] - pts[b])))
            net = net.with_link(a, b, length / rng.uniform(10.0, 120.0))
            li = len(net) - 1
            net.congested_time[li] = net.free_flow_time[li] * rng.uniform(1.0, 2.5)
            pairs.append((a, b))
            times.append(net.congested_time[li])
        d = shortest_times(net, metropolis)
        oracle = floyd_warshall_oracle(metropolis, pairs, times)
        assert np.max(np.abs(d - oracle)) < 1e-9, f"trial {trial}"


def test_shortest_times_equal_the_routing_closure_bit_for_bit():
    rng = np.random.default_rng(2024)
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        metropolis = make_metropolis(rows=rows, cols=cols)
        n = metropolis.n_cells
        for n_links in (0, 1, 3, 8, 15, 25, 40):
            net = Network(n)
            while len(net) < n_links:
                a, b = (int(c) for c in rng.choice(n, size=2, replace=False))
                if not net.has_link(a, b):
                    speed = rng.uniform(10.0, 130.0)  # some links are slower than local roads
                    net = net.with_link(a, b, metropolis.distance_km[a, b] / speed)
            net = replace(net, congested_time=net.free_flow_time * rng.uniform(1.0, 3.0, len(net)))
            for ff in (False, True):
                oracle = closure_times_oracle(metropolis, net, ff)
                assert np.array_equal(shortest_times(net, metropolis, free_flow=ff), oracle), \
                    f"{rows}x{cols}, {n_links} links, free_flow={ff}"


def seeded_network(metropolis, rng, n_links, *, mirrored=False):
    """n_links distinct links at random speeds and congestion factors.

    mirrored adds each link's reflection about the grid diagonal at the same
    time, so routes through mirrored links tie exactly.
    """
    cols = metropolis.config.grid_cols
    net = Network(metropolis.n_cells)
    while len(net) < n_links:
        a, b = (int(c) for c in rng.choice(metropolis.n_cells, size=2, replace=False))
        pairs = [(a, b)]
        mirror = ((a % cols) * cols + a // cols, (b % cols) * cols + b // cols)
        if mirrored and set(mirror) != {a, b}:
            pairs.append(mirror)
        if len(net) + len(pairs) > n_links or any(net.has_link(*p) for p in pairs):
            continue
        time = metropolis.distance_km[a, b] / rng.uniform(10.0, 130.0) * rng.uniform(1.0, 3.0)
        for p in pairs:
            net = net.with_link(*p, time)
    return net


def test_loader_equals_the_whole_join_bit_for_bit():
    rng = np.random.default_rng(515)
    entry_ties = exit_ties = 0
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        metropolis = make_metropolis(rows=rows, cols=cols)
        n = metropolis.n_cells
        afc = metropolis.distance_km / metropolis.config.v_local
        for n_links in (1, 2, 5, 12, 25):
            for mirrored in ((False, True) if rows == cols else (False,)):
                net = seeded_network(metropolis, rng, n_links, mirrored=mirrored)
                od = rng.uniform(0.0, 10.0, (n, n)) * (rng.random((n, n)) < 0.7)
                expected, n_entry, n_exit = load_all_or_nothing_oracle(od, afc, net)
                entry_ties += n_entry
                exit_ties += n_exit
                assert np.array_equal(_load_all_or_nothing(od, net, metropolis), expected), \
                    f"{rows}x{cols}, {n_links} links, mirrored={mirrored}"
    # Ties must occur on routed pairs, or the first-terminal rule goes untested.
    assert entry_ties > 0 and exit_ties > 0


def test_join_memory_stays_within_n_by_n_temporaries():
    # A 30x30 grid with 40 links (76 terminals): the whole (N, N, t) join
    # peaked at 1035 MB in the loader and 507 MB in shortest_times.
    metropolis = make_metropolis(rows=30, cols=30)
    n = metropolis.n_cells
    rng = np.random.default_rng(30)
    net = Network(n)
    while len(net) < 40:
        a, b = (int(c) for c in rng.choice(n, size=2, replace=False))
        if not net.has_link(a, b):
            net = net.with_link(a, b, metropolis.distance_km[a, b] / metropolis.config.v_link)
    od = rng.uniform(0.0, 10.0, (n, n))
    peaks = {}
    # assign_traffic peaks in its loader at 45.3 MB; a second AFC matrix
    # held across its MSA iterations took it to 51.8 MB.
    for name, call, bound_mb in (("loader", lambda: _load_all_or_nothing(od, net, metropolis), 64),
                                 ("shortest_times", lambda: shortest_times(net, metropolis), 32),
                                 ("assign_traffic", lambda: assign_traffic(od, net, metropolis, 4), 48)):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peaks[name] <= bound_mb, peaks


def test_triangle_consistency():
    metropolis = make_metropolis(rows=4, cols=4)
    net = build_network(metropolis, ((0, 5), (5, 10), (10, 15)))
    d = shortest_times(net, metropolis)
    floor = intra_cell_time(metropolis)
    n = metropolis.n_cells
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, k] <= d[i, j] + d[j, k] + 2 * floor + 1e-12


def test_adding_link_never_increases_free_flow_times():
    metropolis = make_metropolis()
    net = build_network(metropolis, ((0, 6), (6, 12)))
    before = shortest_times(net, metropolis, free_flow=True)
    bigger = net.with_link(12, 18, 1.5 / 75.0)
    after = shortest_times(bigger, metropolis, free_flow=True)
    assert (after <= before + 1e-15).all()


def test_network_is_a_value():
    net = Network(9)
    bigger = net.with_link(0, 1, 1.0 / 60.0)
    assert len(net) == 0 and len(bigger) == 1
    with pytest.raises(FrozenInstanceError):
        bigger.flow = np.ones(1)


def test_network_rejects_duplicates_and_self_loops():
    net = Network(9).with_link(0, 1, 1.0 / 60.0)
    with pytest.raises(ValueError):
        net.with_link(1, 0, 1.0 / 60.0)
    with pytest.raises(ValueError):
        net.with_link(2, 2, 1.0 / 60.0)
    with pytest.raises(ValueError):
        net.with_link(3, 4, 0.0)


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
    d = shortest_times(Network(metropolis.n_cells), metropolis)
    od = distribute(metropolis, d)
    expected = np.zeros((metropolis.n_cells, metropolis.n_cells))
    for cat in range(metropolis.workers.shape[1]):
        result = category_furness(metropolis, d, cat)
        expected += result.flows
        assert od.residuals[cat] == result.residual
        assert od.iterations[cat] == result.iterations
        assert od.converged[cat] == result.converged
    assert np.array_equal(od.flows, expected)
    workers = metropolis.workers.sum(axis=1)
    assert np.max(np.abs(od.flows.sum(axis=1) - workers) / workers) < 1e-7


def test_one_sided_category_contributes_nothing():
    metropolis = make_metropolis()
    metropolis.jobs[:, 0] = 0.0
    d = shortest_times(Network(metropolis.n_cells), metropolis)
    od = distribute(metropolis, d)
    assert np.array_equal(od.flows, category_furness(metropolis, d, 1).flows)
    assert (od.residuals[0], od.iterations[0], od.converged[0]) == (0.0, 0, True)


def assert_same_balance(result, oracle):
    assert result.flows.tobytes() == oracle.flows.tobytes()
    assert result.destinations_scaled.tobytes() == oracle.destinations_scaled.tobytes()
    assert (result.residual, result.iterations, result.converged) == (
        oracle.residual, oracle.iterations, oracle.converged)


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
                stops[oracle.converged] += 1
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
        assert (oracle.iterations, oracle.residual, oracle.converged) == (k + 1, exact, True)
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
    d = shortest_times(build_network(metropolis, ((0, 35), (5, 30))), metropolis)
    cfg = metropolis.config
    od = distribute(metropolis, d)
    flows = np.zeros_like(d)
    for cat in range(workers.shape[1]):
        oracle = furness_oracle(workers[:, cat], jobs[:, cat], d, cfg.lam, cfg.furness_tolerance,
                                cfg.furness_max_iter)
        flows += oracle.flows
        assert (od.residuals[cat], od.iterations[cat], od.converged[cat]) == (
            oracle.residual, oracle.iterations, oracle.converged)
    assert od.iterations[0] == 0 and od.iterations[1] > 0
    assert od.flows.tobytes() == flows.tobytes()


def test_balance_results_are_frozen():
    result = furness_balance(np.ones(3), np.ones(3), np.exp(-1.0 * np.ones((3, 3))), 1e-8, 50)
    od = ODMatrix(result.flows, np.zeros(1), np.ones(1, dtype=bool), np.ones(1, dtype=int))
    with pytest.raises(FrozenInstanceError):
        result.residual = 0.0
    with pytest.raises(FrozenInstanceError):
        od.flows = od.flows


def test_furness_lambda_zero_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(1.0, 20.0, size=8)
        e = rng.uniform(1.0, 20.0, size=8)
        d = rng.uniform(0.05, 1.0, size=(8, 8))
        result = furness_balance(a, e, np.exp(-0.0 * d), tol=1e-12, max_iter=500)
        e_scaled = e * a.sum() / e.sum()
        expected = np.outer(a, e_scaled) / e_scaled.sum()
        assert np.max(np.abs(result.flows - expected)) < 1e-9


def test_furness_single_zone():
    result = furness_balance(np.array([5.0]), np.array([7.0]), np.exp(-1.0 * np.array([[0.1]])),
                             tol=1e-10, max_iter=100)
    assert result.flows[0, 0] == pytest.approx(5.0, rel=1e-9)


def test_furness_matches_reference_ipf():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.uniform(0.5, 30.0, size=10)
        e = rng.uniform(0.5, 30.0, size=10)
        d = rng.uniform(0.02, 0.8, size=(10, 10))
        d = (d + d.T) / 2
        result = furness_balance(a, e, np.exp(-0.3 * d), tol=1e-10, max_iter=2000)
        assert result.converged
        oracle = ipf_oracle(a, e, d, lam=0.3)
        assert np.max(np.abs(result.flows - oracle)) < 1e-6


def test_furness_marginals_converge():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 10.0, size=12)
    a[3] = 0.0  # an empty zone must stay empty
    e = rng.uniform(0.5, 10.0, size=12)
    d = rng.uniform(0.05, 0.5, size=(12, 12))
    result = furness_balance(a, e, np.exp(-0.8 * d), tol=1e-9, max_iter=1000)
    assert result.converged
    e_scaled = result.destinations_scaled
    assert np.max(np.abs(result.flows.sum(axis=1) - a) / np.maximum(a, 1e-12)) < 1e-9
    assert np.max(np.abs(result.flows.sum(axis=0) - e_scaled) / np.maximum(e_scaled, 1e-12)) < 1e-9
    assert result.flows[3].sum() == 0.0


def test_furness_nonconvergence_is_flagged():
    rng = np.random.default_rng(5)
    a = rng.uniform(1.0, 10.0, size=10)
    e = rng.uniform(1.0, 10.0, size=10)
    d = rng.uniform(0.1, 1.0, size=(10, 10))
    result = furness_balance(a, e, np.exp(-2.0 * d), tol=1e-14, max_iter=1)
    assert not result.converged
    assert result.residual > 0.0
    assert np.isfinite(result.flows).all()


def test_gravity_cost_weakly_decreases_with_lambda():
    rng = np.random.default_rng(11)
    a = rng.uniform(1.0, 10.0, size=9)
    e = rng.uniform(1.0, 10.0, size=9)
    d = rng.uniform(0.05, 1.0, size=(9, 9))
    d = (d + d.T) / 2
    costs = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        result = furness_balance(a, e, np.exp(-lam * d), tol=1e-11, max_iter=3000)
        costs.append((result.flows * d).sum())
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
    # assign_traffic updates all link times as one array; each must equal the
    # scalar call bit for bit, or outputs would depend on the update form.
    rng = np.random.default_rng(5)
    t0 = rng.uniform(0.01, 0.1, 2000)
    flows = rng.uniform(0.0, 1000.0, 2000)
    times = bpr_time(t0, flows, 100.0, 0.15, 4.0)
    assert times.tolist() == [bpr_time(t, f, 100.0, 0.15, 4.0) for t, f in zip(t0.tolist(), flows.tolist())]


def test_zero_od_leaves_network_free_flow():
    metropolis = make_metropolis()
    net = build_network(metropolis, ((0, 1), (1, 2)))
    od = np.zeros((metropolis.n_cells, metropolis.n_cells))
    loaded, d = assign_traffic(od, net, metropolis, iterations=3)
    assert (loaded.flow == 0.0).all()
    assert np.array_equal(loaded.congested_time, loaded.free_flow_time)
    assert np.array_equal(d, shortest_times(net, metropolis, free_flow=True))


def test_assignment_leaves_input_network_untouched():
    metropolis = make_metropolis()
    net = build_network(metropolis, ((0, 12),))
    od = np.zeros((metropolis.n_cells, metropolis.n_cells))
    od[0, 12] = 50.0
    names = ("a", "b", "free_flow_time", "flow", "congested_time")
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
    net = build_network(metropolis, ((0, 2), (2, 8), (0, 6), (6, 8)))
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
    net = Network(metropolis.n_cells)
    length = 3.0 * cfg.cell_size_km
    net = net.with_link(0, 3, length / 75.0)
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
        metropolis = make_metropolis(rows=3, cols=4)
        n = metropolis.n_cells
        pts = grid_centroids(metropolis.config)
        net = Network(n)
        for _ in range(rng.randint(2, 7)):
            a, b = rng.sample(range(n), 2)
            if net.has_link(a, b):
                continue
            length = float(np.hypot(*(pts[a] - pts[b])))
            net = net.with_link(a, b, length / rng.uniform(50.0, 110.0))
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

