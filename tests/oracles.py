"""Slow references that the tests check the simulator's fast paths against.

Each oracle computes its result the plain way: pair by pair, by whole-array
joins, by masked-copy folds, by a heap Dijkstra or by forming the flows every
iteration. Where two oracles differ, as the routing ones do in how they pick
a route's entry and exit terminals, they differ on purpose: that difference
is what each one checks. The pieces they share are written once here.

The module imports only numpy, the standard library and metrosim, so it
loads without the test extra:

    PYTHONPATH=tests python -c 'import oracles'
"""
from __future__ import annotations

import heapq
import math
from dataclasses import replace

import numpy as np

from metrosim.config import two_city_config
from metrosim.governance import _territory_accessibility
from metrosim.transport import (
    FurnessResult,
    assign_traffic,
    congested_times,
    distribute,
    intra_cell_time,
    shortest_times,
)
from metrosim.world import grid_centroids, init_metropolis


def make_metropolis(rows=5, cols=5, **cfg_kwargs):
    """A rows x cols two-city metropolis of 1000 workers and 1000 jobs.

    The dominant centre sits at (0, 0) and the minor one in the far corner,
    unless cfg_kwargs place them; any other keyword sets a config field.
    """
    cfg_kwargs.setdefault("minor_position", (rows - 1, cols - 1))
    cfg_kwargs.setdefault("dominant_position", (0, 0))
    return init_metropolis(two_city_config(grid_rows=rows, grid_cols=cols, **cfg_kwargs), 1000.0, 1000.0)


# ---------------------------------------------------------------------------
# Density


def density_oracle(config, cell):
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


# ---------------------------------------------------------------------------
# Travel times and routing


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
    w = afc_oracle(metropolis)
    for (a, b), t in zip(links, times):
        if t < w[a, b]:
            w[a, b] = w[b, a] = t
    d = w.copy()
    for k in range(metropolis.n_cells):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    np.fill_diagonal(d, intra_cell_time(metropolis))
    return d


def endpoint_closure(afc, network, times):
    """The graph on the network's endpoints, closed by Floyd-Warshall with successors.

    Each edge is the AFC time between two endpoints, replaced by its link's
    time where the link is faster. Returns the endpoints, the closed times
    between them, succ[u, x], the next endpoint on u's shortest path to x,
    and edge_link[u, v], the link that the edge u-v rides or -1.
    """
    terminals = network.endpoints()
    t = len(terminals)
    dist = afc[np.ix_(terminals, terminals)]
    edge_link = np.full((t, t), -1, dtype=int)
    ia = np.searchsorted(terminals, network.a)
    ib = np.searchsorted(terminals, network.b)
    li = np.nonzero(times < dist[ia, ib])[0]
    ia, ib = ia[li], ib[li]
    dist[ia, ib] = dist[ib, ia] = times[li]
    edge_link[ia, ib] = edge_link[ib, ia] = li

    succ = np.tile(np.arange(t), (t, 1))
    for k in range(t):
        cand = dist[:, k : k + 1] + dist[k : k + 1, :]
        better = cand < dist
        if better.any():
            dist = np.where(better, cand, dist)
            succ = np.where(better, np.broadcast_to(succ[:, k : k + 1], succ.shape), succ)
    return terminals, dist, succ, edge_link


def argmin_join(access, dist):
    """The whole join of access legs and endpoint times at once, by argmin and take_along_axis.

    access[i, a] is the AFC time from cell i to endpoint a. Returns the
    (N, t, t) array via[i, a, b] = access[i, a] + dist[a, b], each origin's
    best entry endpoint per exit and that leg's time, the (N, N, t) array
    full[i, j, b] of routes through exit b, each pair's best exit, and the
    joined times.
    """
    via = access[:, :, None] + dist[None, :, :]                  # (N, t_a, t_b)
    entry_for_exit = via.argmin(axis=1)                          # (N, t_b)
    best_via = np.take_along_axis(via, entry_for_exit[:, None, :], axis=1)[:, 0, :]  # (N, t_b)
    full = best_via[:, None, :] + access[None, :, :]             # (N, N, t_b)
    exit_term = full.argmin(axis=2)                              # (N, N)
    d_net = np.take_along_axis(full, exit_term[:, :, None], axis=2)[:, :, 0]
    return via, entry_for_exit, best_via, full, exit_term, d_net


def walk_groups(grouped, succ, edge_link, n_links):
    """Per-link loads of walking each (entry, exit) group's flow hop by hop along its endpoint path."""
    loads = np.zeros(n_links)
    for ei, xi in zip(*np.nonzero(grouped)):
        flow = grouped[ei, xi]
        u = ei
        while u != xi:
            v = succ[u, xi]
            li = edge_link[u, v]
            if li >= 0:
                loads[li] += flow
            u = v
    return loads


def closure_times_oracle(metropolis, network):
    """Times of the unsplit closure that also routed: Floyd-Warshall with successors,
    the argmin/take_along_axis join and np.where against the AFC times, on the
    network's link times at its flows.
    """
    afc = metropolis.distance_km / metropolis.config.v_local
    d = afc.copy()
    if len(network):
        terminals, dist, _, _ = endpoint_closure(afc, network, congested_times(network, metropolis))
        d_net = argmin_join(afc[:, terminals], dist)[-1]
        d = np.where(d_net < afc, d_net, afc)
    np.fill_diagonal(d, intra_cell_time(metropolis))
    return d


def load_all_or_nothing_oracle(od, metropolis, network):
    """The loader with the whole join at once, and how many routed pairs tie.

    Joins with argmin and take_along_axis over the terminal axes and groups
    routes with np.add.at. Returns the loads, the routed pairs whose best
    entry terminal ties with another and those whose best exit terminal does.
    """
    if not len(network):
        return np.zeros(0), 0, 0
    afc = metropolis.distance_km / metropolis.config.v_local
    terminals, dist, succ, edge_link = endpoint_closure(afc, network, congested_times(network, metropolis))
    t = len(terminals)
    via, entry_for_exit, best_via, full, exit_term, d_net = argmin_join(afc[:, terminals], dist)
    entry_term = np.take_along_axis(entry_for_exit, exit_term, axis=1)

    mask = (d_net < afc) & (od > 0.0)
    entry_ties = (via == best_via[:, None, :]).sum(axis=1) > 1  # (N, t_b)
    rows = np.nonzero(mask)[0]
    n_entry_ties = int(entry_ties[rows, exit_term[mask]].sum())
    n_exit_ties = int(((full[mask] == d_net[mask][:, None]).sum(axis=1) > 1).sum())
    grouped = np.zeros((t, t))
    np.add.at(grouped, (entry_term[mask], exit_term[mask]), od[mask])
    return walk_groups(grouped, succ, edge_link, len(network)), n_entry_ties, n_exit_ties


def per_group_walk_oracle(od, metropolis, network):
    """The loader that walks one (entry, exit) group at a time in a Python loop.

    Folds the network's congested times with np.where and masked copies,
    takes the routed pairs from two (N, N) masks, sums their flows per group
    with bincount and walks each group's endpoint path hop by hop, adding
    its flow to every link it rides.
    """
    if not len(network):
        return np.zeros(0)
    d = metropolis.distance_km / metropolis.config.v_local
    terminals, dist, succ, edge_link = endpoint_closure(d, network, congested_times(network, metropolis))
    t = len(terminals)

    access = d[:, terminals]
    best_via = access[:, :1] + dist[:1]
    entry_for_exit = np.zeros(best_via.shape, dtype=np.intp)
    for a in range(1, t):
        via = access[:, a : a + 1] + dist[a : a + 1]
        better = via < best_via
        np.copyto(best_via, via, where=better)
        np.copyto(entry_for_exit, a, where=better)
    exit_term = np.full(d.shape, -1, dtype=np.intp)
    for b in range(t):
        leg = best_via[:, b : b + 1] + access[:, b]
        better = leg < d
        np.copyto(d, leg, where=better)
        np.copyto(exit_term, b, where=better)

    rows, cols = np.nonzero((exit_term >= 0) & (od > 0.0))
    exits = exit_term[rows, cols]
    pair = entry_for_exit[rows, exits] * t + exits
    grouped = np.bincount(pair, weights=od[rows, cols], minlength=t * t).reshape(t, t)
    return walk_groups(grouped, succ, edge_link, len(network))


def dijkstra_load_oracle(metropolis, network, od):
    """Per-link loads from a heap Dijkstra over the dense AFC + links graph.

    Ties between a link edge and the AFC edge of the same pair go to AFC,
    matching the production rule that equal-time traffic stays local.
    """
    n = metropolis.n_cells
    afc = afc_oracle(metropolis)
    link_at = {}
    for li, (a, b, t) in enumerate(zip(network.a.tolist(), network.b.tolist(), congested_times(network, metropolis).tolist())):
        link_at[(a, b)] = link_at[(b, a)] = (t, li)
    w = afc.copy()
    for (a, b), (t, _li) in link_at.items():
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
                entry = link_at.get((u, v))
                if entry is not None and entry[0] < afc[u, v]:
                    loads[entry[1]] += od[src, dst]
                v = u
    return loads


# ---------------------------------------------------------------------------
# Gravity distribution


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


def marginal_error(rows, cols, origins, destinations):
    """The largest relative gap of row sums to origins and column sums to destinations."""
    row = np.abs(rows - origins) / np.maximum(origins, 1e-12)
    col = np.abs(cols - destinations) / np.maximum(destinations, 1e-12)
    return float(max(row.max(initial=0.0), col.max(initial=0.0)))


def furness_sweeps(a, e, kernel, max_iter):
    """Each iteration of the balance that forms the flow matrix every time.

    Yields p a, q e, the column denominators K^T p a and the flows
    (p a) (q e)^T * K.
    """
    n = len(a)
    q = np.ones(n)
    for _ in range(max_iter):
        denom_p = kernel @ (q * e)
        p = np.divide(1.0, denom_p, out=np.zeros(n), where=denom_p > 0.0)
        denom_q = kernel.T @ (p * a)
        q = np.divide(1.0, denom_q, out=np.zeros(n), where=denom_q > 0.0)
        pa, qe = p * a, q * e
        yield pa, qe, denom_q, pa[:, None] * qe[None, :] * kernel


def furness_oracle(origins, destinations, d, lam, tol, max_iter):
    """The gravity balance that forms the flow matrix and its exact residual every iteration."""
    a = np.asarray(origins, dtype=float)
    e = np.asarray(destinations, dtype=float)
    n = a.shape[0]
    total_a, total_e = a.sum(), e.sum()
    if total_a <= 0.0 or total_e <= 0.0:
        return FurnessResult(np.zeros((n, n)), 0.0, 0, True)
    e = e * (total_a / total_e)

    flows, residual, iterations = np.zeros((n, n)), np.inf, 0
    for iterations, (_, _, _, flows) in enumerate(furness_sweeps(a, e, np.exp(-lam * d), max_iter), 1):
        residual = marginal_error(flows.sum(axis=1), flows.sum(axis=0), a, e)
        if residual < tol:
            return FurnessResult(flows, residual, iterations, True)
    return FurnessResult(flows, residual, iterations, False)


def furness_residual_trace(a, e, d, lam, max_iter):
    """Per iteration of furness_oracle, the residual taken from the scaling vectors and the exact one.

    The vector residual is the balance's cheap test: row sums p a (K q e),
    column sums q e (K^T p a).
    """
    e = e * (a.sum() / e.sum())
    kernel = np.exp(-lam * d)
    return [(marginal_error(pa * (kernel @ qe), qe * denom_q, a, e),
             marginal_error(flows.sum(axis=1), flows.sum(axis=0), a, e))
            for pa, qe, denom_q, flows in furness_sweeps(a, e, kernel, max_iter)]


# ---------------------------------------------------------------------------
# Candidate enumeration and scoring


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


def zero_flow(network):
    """The network with its flows set to zero: its shortest times are the free-flow times."""
    return replace(network, flow=np.zeros(len(network)))


def trial_times_oracle(metropolis, network, a, b):
    """Travel times after building a-b, recomputed from scratch on a copy of the network.

    Free-flow (zero-flow) shortest times by default; with congestion_in_evaluation set,
    the current demand is re-distributed on the current times and assigned
    on the extended network.
    """
    cfg = metropolis.config
    trial = network.with_link(a, b)
    if cfg.congestion_in_evaluation:
        od = distribute(metropolis, shortest_times(network, metropolis))
        return assign_traffic(od.flows, trial, metropolis, cfg.assignment_iterations)[1]
    return shortest_times(zero_flow(trial), metropolis)


def evaluate_candidate_oracle(metropolis, network, a, b, stakeholder):
    """Objective after building a-b, on the times of trial_times_oracle."""
    d = trial_times_oracle(metropolis, network, a, b)
    return _territory_accessibility(metropolis, d, stakeholder.territory_cells(metropolis))


def row_column_bound_oracle(gains):
    """Per direction x -> y, the smaller of a row bound against P = W K^T over
    every column and a column bound against Q = K_T^T W over every row of T."""
    KTt = np.ascontiguousarray(gains.K.T[:, gains.cells])  # KTt[x, i] = K_ix
    weights = gains.workers @ gains.jobs.T                 # (|T|, N)
    P, Q = weights @ gains.K.T, KTt @ weights              # P[i, y], Q[x, j]
    out = np.zeros(len(gains.a))
    for k, (a, b, c) in enumerate(zip(gains.a, gains.b, gains.c)):
        for x, y in ((a, b), (b, a)):
            row = np.maximum(c * KTt[x] - KTt[y], 0.0) @ P[:, y]
            col = np.maximum(c * gains.K[y] - gains.K[x], 0.0) @ Q[x]
            out[k] += min(row, col)
    return out


def box_bound_oracle(gains, KTt):
    """The box bound with K_ix read from KTt[x, i], an (N, |T|) array: per
    chunk of 64 candidates, one masked pass per route direction."""
    out = np.zeros(len(gains.a))
    for s in range(0, len(out), 64):
        a, b = gains.a[s : s + 64], gains.b[s : s + 64]
        c = gains.c[s : s + 64, None]
        ta, tb, ka, kb = KTt[a], KTt[b], gains.K[a], gains.K[b]
        for tx, ty, kx, ky in ((ta, tb, ka, kb), (tb, ta, kb, ka)):
            in_r, in_c = c * tx > ty, c * ky > kx                 # the block R x C
            row = (((c * tx - ty) * in_r) @ gains.workers) * ((ky * in_c) @ gains.jobs)
            col = ((tx * in_r) @ gains.workers) * (((c * ky - kx) * in_c) @ gains.jobs)
            out[s : s + 64] += np.minimum(row.sum(axis=1), col.sum(axis=1))
    return out


def ceiling_oracle(gains):
    """The ceiling from its definition, pair by pair per route direction x -> y:
    the sum over i in T and every cell j of W_ij K_ix max(c - K_xy, 0) K_yj,
    reading the true transpose K[i, x]."""
    weights = gains.workers @ gains.jobs.T                 # (|T|, N)
    out = np.zeros(len(gains.a))
    for k, (a, b, c) in enumerate(zip(gains.a, gains.b, gains.c)):
        for x, y in ((a, b), (b, a)):
            out[k] += max(c - gains.K[x, y], 0.0) * (gains.K[gains.cells, x] @ weights @ gains.K[y])
    return out


def whole_pass_search(link_gains, before_ff, margin, exact):
    """The bound-pruned search that box-bounds every candidate, with the
    signature and results of governance._bound_search: visit all candidates
    in descending box-bound order, tightening to gain(k) once one is scored."""
    bounds = link_gains.bounds(np.arange(len(link_gains.a)))
    best = ceiling = -np.inf
    scores: dict[int, float] = {}
    for k in np.argsort(-bounds, kind="stable").tolist():
        if before_ff + bounds[k] < best - margin:
            ceiling = max(ceiling, before_ff + bounds[k])
            break
        if best > -np.inf:
            tight = before_ff + link_gains.gain(k)
            if tight < best - margin:
                ceiling = max(ceiling, tight)
                continue
        scores[k] = exact(k)
        best = max(best, scores[k])
    return scores, ceiling, len(bounds)
