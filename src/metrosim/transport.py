"""Four-stage travel demand core.

Trip ends are the land use itself: each socio-professional category's
workers are its origins and its jobs its destinations. Every category is
balanced by a doubly-constrained gravity model and the category flows are
summed into one all-category OD matrix, which is assigned with congestion
over the regional link network with an uncongested as-the-crow-flies (AFC)
local-road fallback.

All travel times are hours, distances km, speeds km/h. The road graph is the
complete AFC graph (every cell pair connected at the local-road speed) with
regional links layered on top; AFC legs obey the triangle inequality, so any
shortest path alternates AFC legs with regional links and its intermediate
stops can only be link endpoints. Shortest times are therefore computed
exactly by closing the small endpoint subgraph and joining AFC access legs.
The AFC times are the metropolis's fixed cell-centre distances over the
local-road speed.

Both callers share only the endpoint graph (_terminal_graph). shortest_times
closes it with plain min-plus reductions and keeps times only; the
all-or-nothing loader inside assign_traffic closes it again with successor
tracking and keeps each route's entry and exit terminals, which it needs to
walk paths, and no times matrix. Both join the access and egress legs one
terminal at a time into a running minimum, so no temporary is larger than
(N, N) however many terminals there are; on ties the loader keeps the first
terminal.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .world import Metropolis

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Network


@dataclass(frozen=True, eq=False)
class Network:
    """Regional road graph over cell centroids as parallel per-link arrays in build order.

    Link i runs between cells a[i] and b[i]; each link is stored once and
    traversed both ways. Length, speed and capacity are scenario constants
    (the cell-centre distance, config.v_link and config.capacity), so a link
    keeps only its endpoints and its flow state: the free-flow time it was
    built with, the current flow and the congested time.

    A network is a value: with_link and assign_traffic return a new one and
    never rebind the fields of the one they were given. `Network(n)` is the
    empty network over n cells.
    """

    n_cells: int
    a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    free_flow_time: np.ndarray = field(default_factory=lambda: np.empty(0))
    flow: np.ndarray = field(default_factory=lambda: np.empty(0))
    congested_time: np.ndarray = field(default_factory=lambda: np.empty(0))

    def has_link(self, a: int, b: int) -> bool:
        return bool(((self.a == a) & (self.b == b) | (self.a == b) & (self.b == a)).any())

    def with_link(self, a: int, b: int, free_flow_time: float) -> "Network":
        """This network plus link a-b at free-flow time with no flow, appended last."""
        if a == b:
            raise ValueError(f"link endpoints must differ, got ({a}, {b})")
        if not (0 <= a < self.n_cells and 0 <= b < self.n_cells):
            raise ValueError(f"link endpoint outside the grid: ({a}, {b})")
        if free_flow_time <= 0.0:
            raise ValueError("link free-flow time must be positive")
        if self.has_link(a, b):
            raise ValueError(f"duplicate link {(min(a, b), max(a, b))}")
        return Network(
            self.n_cells,
            a=np.append(self.a, a),
            b=np.append(self.b, b),
            free_flow_time=np.append(self.free_flow_time, free_flow_time),
            flow=np.append(self.flow, 0.0),
            congested_time=np.append(self.congested_time, free_flow_time),
        )

    def endpoints(self) -> np.ndarray:
        """Sorted cells touched by at least one link."""
        return np.flatnonzero(np.bincount(np.concatenate((self.a, self.b)), minlength=self.n_cells))

    def __len__(self) -> int:
        return len(self.a)


def link_time(metropolis: Metropolis, a, b):
    """Free-flow time of link a-b, hours: the cell-centre distance at config.v_link.

    a and b may be cell indices or index arrays.
    """
    return metropolis.distance_km[a, b] / metropolis.config.v_link


def build_network(metropolis: Metropolis, pairs: tuple[tuple[int, int], ...]) -> Network:
    """Network from (a, b) cell pairs, each link at its link_time."""
    net = Network(metropolis.n_cells)
    for a, b in pairs:
        net = net.with_link(a, b, link_time(metropolis, a, b))
    return net


# ---------------------------------------------------------------------------
# Travel times


def intra_cell_time(metropolis: Metropolis) -> float:
    """Within-cell travel time floor: half a cell at the local speed."""
    cfg = metropolis.config
    return (cfg.cell_size_km / 2.0) / cfg.v_local


def _terminal_graph(afc: np.ndarray, network: Network, link_times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The link-endpoint graph: sorted terminals, edge times and the link riding each edge.

    Edge times start as a copy of the AFC times between terminals (fancy
    indexing copies) and take a link's time where the link is faster. Links
    are unique per endpoint pair, so each edge is written at most once;
    edge_link holds that link's index, or -1 where the edge is the AFC leg.
    """
    terminals = network.endpoints()
    t = len(terminals)
    dist = afc[terminals[:, None], terminals]
    edge_link = np.full((t, t), -1, dtype=int)
    ia = np.searchsorted(terminals, network.a)
    ib = np.searchsorted(terminals, network.b)
    li = np.nonzero(link_times < dist[ia, ib])[0]
    ia, ib = ia[li], ib[li]
    dist[ia, ib] = dist[ib, ia] = link_times[li]
    edge_link[ia, ib] = edge_link[ib, ia] = li
    return terminals, dist, edge_link


def shortest_times(network: Network, metropolis: Metropolis, *, free_flow: bool = False) -> np.ndarray:
    """All-pairs least travel times: min(direct AFC, best route via regional links).

    Link edges are taken at their congested times unless free_flow is set;
    access and egress to the link network ride local roads at v_local. The
    diagonal carries the intra-cell time floor. Times only: a min-plus
    closure of the terminal graph joined with the AFC access and egress legs,
    with no routing kept (the loader, _load_all_or_nothing, does its own).
    The join runs one terminal at a time, so no temporary is larger than
    (N, N).
    """
    afc = metropolis.distance_km / metropolis.config.v_local
    d = afc
    if len(network):
        times = network.free_flow_time if free_flow else network.congested_time
        terminals, dist, _ = _terminal_graph(afc, network, times)
        t = len(terminals)
        for k in range(t):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        # d[i, j] = min(afc[i, j], min over terminals (a, b) of afc[i, a] + dist[a, b] + afc[b, j]).
        access = afc[:, terminals]                                   # (N, t)
        best_via = access[:, :1] + dist[:1]                          # (N, t_b)
        for a in range(1, t):
            np.minimum(best_via, access[:, a : a + 1] + dist[a : a + 1], out=best_via)
        leg = np.empty_like(d)
        for b in range(t):
            np.add(best_via[:, b : b + 1], access[:, b], out=leg)
            np.minimum(d, leg, out=d)
    np.fill_diagonal(d, intra_cell_time(metropolis))
    return d


# ---------------------------------------------------------------------------
# Gravity distribution


@dataclass
class FurnessResult:
    """Doubly-constrained gravity matrix with its balancing state."""

    flows: np.ndarray               # (N, N)
    destinations_scaled: np.ndarray  # (N,) destination marginals after rescaling
    residual: float                 # max marginal relative error at exit
    iterations: int
    converged: bool


def _marginal_error(flows: np.ndarray, origins: np.ndarray, destinations: np.ndarray) -> float:
    row = np.abs(flows.sum(axis=1) - origins) / np.maximum(origins, 1e-12)
    col = np.abs(flows.sum(axis=0) - destinations) / np.maximum(destinations, 1e-12)
    return float(max(row.max(initial=0.0), col.max(initial=0.0)))


def furness_distribution(
    origins: np.ndarray,
    destinations: np.ndarray,
    d: np.ndarray,
    lam: float,
    tol: float,
    max_iter: int,
) -> FurnessResult:
    """Stage 2: balance flows[i, j] = p_i q_j A_i E_j exp(-lam d_ij) to both marginals.

    Destination totals are rescaled to the origin total first (the
    doubly-constrained system is infeasible otherwise). Alternates the p and q
    fixed-point updates until the worst marginal relative error drops below
    tol; a non-converged matrix is still returned, flagged, with its residual.
    """
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
    log.warning("gravity balancing stopped at max_iter=%d with residual %.3e", max_iter, residual)
    return FurnessResult(flows, e, residual, iterations, False)


@dataclass
class ODMatrix:
    """All-category commuting flows with each category's balancing state."""

    flows: np.ndarray       # (N, N) summed over categories
    residuals: np.ndarray   # (S,)
    converged: np.ndarray   # (S,) bool
    iterations: np.ndarray  # (S,) int


def distribute(metropolis: Metropolis, d: np.ndarray) -> ODMatrix:
    """Stages 1-2: balance each category's workers against its jobs on times d, then sum.

    Category s sends its workers[:, s] to its jobs[:, s] under the gravity
    model of furness_distribution, with lam, the tolerance and the iteration
    cap taken from the config; the category matrices are added in category
    order. A category with workers but no jobs, or jobs but no workers,
    contributes no trips (engine.initial_state logs it once per run).
    """
    cfg = metropolis.config
    n, s = metropolis.workers.shape
    flows = np.zeros((n, n))
    residuals = np.zeros(s)
    converged = np.ones(s, dtype=bool)
    iterations = np.zeros(s, dtype=int)
    for cat in range(s):
        result = furness_distribution(metropolis.workers[:, cat], metropolis.jobs[:, cat], d,
                                      cfg.lam, cfg.furness_tolerance, cfg.furness_max_iter)
        flows += result.flows
        residuals[cat] = result.residual
        converged[cat] = result.converged
        iterations[cat] = result.iterations
    return ODMatrix(flows, residuals, converged, iterations)


# ---------------------------------------------------------------------------
# Congestion and assignment


def bpr_time(t0, flow, capacity, alpha: float, beta: float):
    """Volume-delay function: t0 * (1 + alpha * (flow / capacity) ** beta).

    float_power calls the C library's pow element by element, as scalar
    powers do; np.power's SIMD loop can round differently in the last bit,
    so times would then depend on whether links are updated one at a time.
    """
    ratio = np.asarray(flow, dtype=float) / capacity
    out = np.asarray(t0, dtype=float) * (1.0 + alpha * np.float_power(ratio, beta))
    return float(out) if out.ndim == 0 else out


def _load_all_or_nothing(od: np.ndarray, afc: np.ndarray, network: Network) -> np.ndarray:
    """Route every OD flow on its current least-time path; return per-link loads.

    Closes the terminal graph at the congested link times, tracking each
    endpoint path's successor, and joins the AFC access and egress legs one
    terminal at a time, keeping each route's entry and exit terminal. Ties
    keep the first (smallest) terminal. Flows whose best route is the direct
    AFC leg stay off the network. Network routes are grouped by their
    (entry, exit) terminal pair so each endpoint path is walked once.
    """
    loads = np.zeros(len(network))
    if not len(network):
        return loads
    terminals, dist, edge_link = _terminal_graph(afc, network, network.congested_time)
    t = len(terminals)

    # Floyd-Warshall with successor tracking on the small endpoint graph.
    succ = np.tile(np.arange(t), (t, 1))
    for k in range(t):
        cand = dist[:, k : k + 1] + dist[k : k + 1, :]
        better = cand < dist
        if better.any():
            dist = np.where(better, cand, dist)
            succ = np.where(better, np.broadcast_to(succ[:, k : k + 1], succ.shape), succ)

    # The same join as shortest_times, keeping the entry and exit terminals;
    # a strict < keeps the first terminal on ties.
    access = afc[:, terminals]                                   # (N, t)
    best_via = access[:, :1] + dist[:1]                          # (N, t_b)
    entry_for_exit = np.zeros(best_via.shape, dtype=np.intp)
    for a in range(1, t):
        via = access[:, a : a + 1] + dist[a : a + 1]
        better = via < best_via
        np.copyto(best_via, via, where=better)
        np.copyto(entry_for_exit, a, where=better)
    d_net = best_via[:, :1] + access[:, 0]                       # (N, N)
    exit_term = np.zeros(d_net.shape, dtype=np.intp)
    leg = np.empty_like(d_net)
    better = np.empty(d_net.shape, dtype=bool)
    for b in range(1, t):
        np.add(best_via[:, b : b + 1], access[:, b], out=leg)
        np.less(leg, d_net, out=better)
        np.copyto(d_net, leg, where=better)
        np.copyto(exit_term, b, where=better)

    rows, cols = np.nonzero((d_net < afc) & (od > 0.0))
    if not rows.size:
        return loads
    exits = exit_term[rows, cols]
    pair = entry_for_exit[rows, exits] * t + exits
    grouped = np.bincount(pair, weights=od[rows, cols], minlength=t * t).reshape(t, t)
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


def assign_traffic(od: np.ndarray, network: Network, metropolis: Metropolis, iterations: int) -> tuple[Network, np.ndarray]:
    """Stage 4: capacity-restrained assignment by the method of successive averages.

    Each iteration routes the whole OD matrix all-or-nothing on current
    congested times, averages the loads into the link flows with weight 1/k,
    and refreshes the volume-delay times. Local-road (AFC) traffic never
    congests anything. Returns a new network with the resulting flows and
    congested times, leaving the input as it was, and the final travel-time
    matrix at those congested times.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = metropolis.config
    net = network
    afc = metropolis.distance_km / cfg.v_local
    for k in range(1, iterations + 1):
        loads = _load_all_or_nothing(od, afc, net)
        w = 1.0 / k
        flow = (1.0 - w) * net.flow + w * loads
        net = replace(net, flow=flow,
                      congested_time=bpr_time(net.free_flow_time, flow, cfg.capacity, cfg.bpr_alpha, cfg.bpr_beta))
    return net, shortest_times(net, metropolis)


def total_travel_time(flows: np.ndarray, d: np.ndarray) -> float:
    """Hours travelled: sum over zone pairs of the (N, N) flow * time."""
    return float((flows * d).sum())

