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

shortest_times and the all-or-nothing loader inside assign_traffic fold
routes one way. Each takes d, the AFC times, builds the endpoint graph
(_terminal_graph) and the access legs from d, and closes the graph with
min-plus reductions. It then folds the access legs into a running minimum
over entry terminals and the egress legs into d itself, one terminal at a
time, so no temporary is larger than (N, N) however many terminals there
are. shortest_times keeps the times only. The loader returns no times but
keeps the routing: each endpoint path's successor and each route's entry
and exit terminal, the first on ties, and no exit terminal where the
direct AFC leg is no slower. They stay two functions because that bookkeeping costs:
run for shortest_times it made a call 1.1-1.8x slower on a 10x10 grid with
1-16 links, and at 28 terminals the tracked closure took 419 us against
99 us and the tracked entry fold 565 us against 214 us (best of 5 x 200
calls, 2 vCPU, one BLAS thread, numpy 2.4).
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
    diagonal carries the intra-cell time floor. Times only: the module's
    fold with no routing kept (the loader, _load_all_or_nothing, keeps it),
    so the closure and the entry fold are plain minima.
    """
    d = metropolis.distance_km / metropolis.config.v_local
    if len(network):
        times = network.free_flow_time if free_flow else network.congested_time
        terminals, dist, _ = _terminal_graph(d, network, times)
        t = len(terminals)
        for k in range(t):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        # With w the AFC times d starts as, d ends as
        # min(w[i, j], min over terminals (a, b) of w[i, a] + dist[a, b] + w[b, j]).
        access = d[:, terminals]                                     # (N, t)
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


@dataclass(frozen=True)
class FurnessResult:
    """Doubly-constrained gravity matrix with its balancing state."""

    flows: np.ndarray               # (N, N)
    destinations_scaled: np.ndarray  # (N,) destination marginals after rescaling
    residual: float                 # max marginal relative error at exit
    iterations: int
    converged: bool


def _marginal_error(rows: np.ndarray, cols: np.ndarray, origins: np.ndarray, destinations: np.ndarray) -> float:
    """Worst relative error of row and column sums against their marginals."""
    row = np.abs(rows - origins) / np.maximum(origins, 1e-12)
    col = np.abs(cols - destinations) / np.maximum(destinations, 1e-12)
    return float(max(row.max(initial=0.0), col.max(initial=0.0)))


def furness_balance(a: np.ndarray, e: np.ndarray, kernel: np.ndarray, tol: float, max_iter: int) -> FurnessResult:
    """Stage 2: balance flows[i, j] = p_i q_j a_i e_j kernel_ij to both marginals.

    The gravity model takes kernel = exp(-lam d) on travel times d.
    Destination totals are rescaled to the origin total first (the
    doubly-constrained system is infeasible otherwise). Alternates the p and q
    fixed-point updates until the worst marginal relative error drops below
    tol; a non-converged matrix is still returned, flagged, with its residual.

    With pa = p a and qe = q e the flows are pa_i qe_j K_ij, so their row
    sums are pa (K qe) and their column sums qe (K^T pa), and both products
    are ones the updates compute anyway (K qe is the next denom_p). Each
    iteration tests this cheap residual and forms the (N, N) flows, to take
    the exact residual from their sums, only when the cheap one is within
    `guard` of tol, or at max_iter; the exact one decides. The flows are
    formed in place, as the outer product pa qe times K, in the one (N, N)
    buffer a call allocates, which it returns; so a call holds K and that
    buffer, and no other (N, N) array.

    The guard: a row sum sums the N nonnegative terms t_j = pa qe_j K_j. The
    flows form rounds each term twice and sums them, the vector form rounds
    K_j qe_j, sums N terms (in any BLAS order, with or without FMA) and
    multiplies by pa. Either is within gamma_(N+1) ~ (N+1)u of the true sum
    R (u = eps/2), so they differ by at most 2(N+1)u R. Subtracting the
    marginal a and dividing by it rounds each residual twice more, to within
    2u of itself. If the exact residual is below tol then R <= a (1 + tol),
    and the cheap residual is below tol + 2(N+1)u (1 + tol) + 4u tol <
    tol + (N+3) eps (1 + tol). guard = 4 (N+4) eps (1 + tol) exceeds that
    fourfold, so no iteration at which the exact residual is below tol is
    skipped, and the stopping iteration, flows and residual are exactly
    those of testing the exact residual every iteration. Zero marginals give
    zero sums both ways; underflow adds an absolute error under N 2^-1074
    per sum, negligible against guard times the 1e-12 floor of the
    denominators. A NaN cheap residual falls through to the exact test.
    """
    n = a.shape[0]
    total_a, total_e = a.sum(), e.sum()
    if total_a <= 0.0 or total_e <= 0.0:
        zeros = np.zeros((n, n))
        return FurnessResult(zeros, e * 0.0, 0.0, 0, True)
    e = e * (total_a / total_e)

    guard = 4.0 * (n + 4) * np.finfo(float).eps * (1.0 + tol)
    flows = np.empty((n, n))
    residual = np.inf
    iterations = 0
    denom_p = kernel @ e  # q starts at ones
    for iterations in range(1, max_iter + 1):
        p = np.divide(1.0, denom_p, out=np.zeros(n), where=denom_p > 0.0)
        pa = p * a
        denom_q = kernel.T @ pa
        q = np.divide(1.0, denom_q, out=np.zeros(n), where=denom_q > 0.0)
        qe = q * e
        denom_p = kernel @ qe
        if _marginal_error(pa * denom_p, qe * denom_q, a, e) >= tol + guard and iterations < max_iter:
            continue
        np.multiply.outer(pa, qe, out=flows)
        flows *= kernel
        residual = _marginal_error(flows.sum(axis=1), flows.sum(axis=0), a, e)
        if residual < tol:
            return FurnessResult(flows, e, residual, iterations, True)
    log.warning("gravity balancing stopped at max_iter=%d with residual %.3e", max_iter, residual)
    return FurnessResult(flows, e, residual, iterations, False)


@dataclass(frozen=True)
class ODMatrix:
    """All-category commuting flows with each category's balancing state."""

    flows: np.ndarray       # (N, N) summed over categories
    residuals: np.ndarray   # (S,)
    converged: np.ndarray   # (S,) bool
    iterations: np.ndarray  # (S,) int


def distribute(metropolis: Metropolis, d: np.ndarray) -> ODMatrix:
    """Stages 1-2: balance each category's workers against its jobs on times d, then sum.

    Category s sends its workers[:, s] to its jobs[:, s] under the gravity
    model of furness_balance, with lam, the tolerance and the iteration
    cap taken from the config; the category matrices are added in category
    order. A category with workers but no jobs, or jobs but no workers,
    contributes no trips (engine.initial_state logs it once per run). The
    kernel exp(-lam d) is computed once for all categories, in place, and
    the categories are added into the first one's matrix.
    """
    cfg = metropolis.config
    n, s = metropolis.workers.shape
    kernel = np.multiply(d, -cfg.lam)
    np.exp(kernel, out=kernel)
    flows = None
    residuals = np.zeros(s)
    converged = np.ones(s, dtype=bool)
    iterations = np.zeros(s, dtype=int)
    for cat in range(s):
        result = furness_balance(metropolis.workers[:, cat], metropolis.jobs[:, cat], kernel,
                                 cfg.furness_tolerance, cfg.furness_max_iter)
        if flows is None:
            flows = result.flows
        else:
            flows += result.flows
        residuals[cat] = result.residual
        converged[cat] = result.converged
        iterations[cat] = result.iterations
    return ODMatrix(flows, residuals, converged, iterations)


# ---------------------------------------------------------------------------
# Congestion and assignment


def bpr_time(t0: np.ndarray, flow: np.ndarray, capacity: float, alpha: float, beta: float) -> np.ndarray:
    """Volume-delay function per link: t0 * (1 + alpha * (flow / capacity) ** beta).

    float_power calls the C library's pow element by element, as scalar
    powers do; np.power's SIMD loop can round differently in the last bit,
    so times would then depend on whether links are updated one at a time.
    """
    return t0 * (1.0 + alpha * np.float_power(flow / capacity, beta))


def _load_all_or_nothing(od: np.ndarray, network: Network, metropolis: Metropolis) -> np.ndarray:
    """Route every OD flow on its current least-time path; return per-link loads.

    Folds the congested times as shortest_times does and keeps the routing:
    the closure tracks each endpoint path's successor, the entry fold keeps
    each route's entry terminal and the exit fold each pair's exit terminal.
    A strict < keeps the first (smallest) terminal on ties. The exit fold
    starts from the direct AFC leg with no exit terminal (-1), so a flow
    whose best network route is no faster than that leg stays on local
    roads. Network routes are grouped by their (entry, exit) terminal pair
    so each endpoint path is walked once.
    """
    loads = np.zeros(len(network))
    if not len(network):
        return loads
    d = metropolis.distance_km / metropolis.config.v_local
    terminals, dist, edge_link = _terminal_graph(d, network, network.congested_time)
    t = len(terminals)

    # Floyd-Warshall with successor tracking on the small endpoint graph.
    succ = np.tile(np.arange(t), (t, 1))
    for k in range(t):
        cand = dist[:, k : k + 1] + dist[k : k + 1, :]
        better = cand < dist
        if better.any():
            dist = np.where(better, cand, dist)
            succ = np.where(better, np.broadcast_to(succ[:, k : k + 1], succ.shape), succ)

    access = d[:, terminals]                                     # (N, t)
    best_via = access[:, :1] + dist[:1]                          # (N, t_b)
    entry_for_exit = np.zeros(best_via.shape, dtype=np.intp)
    for a in range(1, t):
        via = access[:, a : a + 1] + dist[a : a + 1]
        better = via < best_via
        np.copyto(best_via, via, where=better)
        np.copyto(entry_for_exit, a, where=better)
    exit_term = np.full(d.shape, -1, dtype=np.intp)
    leg = np.empty_like(d)
    better = np.empty(d.shape, dtype=bool)
    for b in range(t):
        np.add(best_via[:, b : b + 1], access[:, b], out=leg)
        np.less(leg, d, out=better)
        np.copyto(d, leg, where=better)
        np.copyto(exit_term, b, where=better)

    rows, cols = np.nonzero((exit_term >= 0) & (od > 0.0))
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
    cfg = metropolis.config
    net = network
    for k in range(1, iterations + 1):
        loads = _load_all_or_nothing(od, net, metropolis)
        w = 1.0 / k
        flow = (1.0 - w) * net.flow + w * loads
        net = replace(net, flow=flow,
                      congested_time=bpr_time(net.free_flow_time, flow, cfg.capacity, cfg.bpr_alpha, cfg.bpr_beta))
    return net, shortest_times(net, metropolis)


def total_travel_time(flows: np.ndarray, d: np.ndarray) -> float:
    """Hours travelled: sum over zone pairs of the (N, N) flow * time."""
    return float((flows * d).sum())

