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
local-road speed. A link's time is congested_times, the BPR time of its
flow from t0 = link_time; free-flow times are the times at zero flow.

shortest_times and the all-or-nothing loader inside assign_traffic fold
routes one way, from one setup (_Routing) built once per call: the sorted
link endpoints (terminals), each link's endpoint indices among them, the
AFC block between terminals, the AFC legs from each terminal to every cell
and the (N, N) work arrays. Only link flows change within a call, so an
assign_traffic call holds one set of work arrays for all its MSA passes and
its final times fold. Each fold refills the time buffer d with the AFC
times, so no second AFC matrix is held. A fold builds the endpoint graph at
the current link times and closes it with min-plus reductions, then folds
the access legs into a running minimum over entry terminals and the egress
legs into d itself, one terminal at a time, so no temporary is larger than
(N, N) however many terminals there are. Every such minimum is np.minimum
in place: min is exact, so it keeps the same bits as copying the smaller
value under a mask. shortest_times keeps the times only. The loader returns
no times but keeps the routing: each endpoint path's successor and each
route's entry and exit terminal, from strict < masks taken before each
minimum, so ties go to the first terminal and no exit is kept where the
direct AFC leg is no slower. It then walks every (entry, exit) route group
at once, one hop per pass. The folds stay two because that bookkeeping
costs: run for shortest_times it made a call 1.1-1.8x slower on a 10x10
grid with 1-16 links, and at 28 terminals the tracked closure took 419 us
against 99 us and the tracked entry fold 565 us against 214 us (best of 5 x
200 calls, 2 vCPU, one BLAS thread, numpy 2.4).
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
    keeps only its endpoints and its flow, from which congested_times
    derives its time.

    Links are checked where they enter the program: the ScenarioConfig
    constructor checks initial_links, and governance.enumerate_candidates
    returns only new in-grid pairs. with_link appends without a check.

    A network is a value: with_link and assign_traffic return a new one and
    never rebind the fields of the one they were given. `Network()` is the
    empty network.
    """

    a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    flow: np.ndarray = field(default_factory=lambda: np.empty(0))

    def with_link(self, a: int, b: int) -> "Network":
        """This network plus link a-b with no flow, appended last."""
        return Network(a=np.append(self.a, a), b=np.append(self.b, b), flow=np.append(self.flow, 0.0))

    def endpoints(self) -> np.ndarray:
        """Sorted cells touched by at least one link."""
        return np.flatnonzero(np.bincount(np.concatenate((self.a, self.b))))

    def __len__(self) -> int:
        return len(self.a)


def link_time(metropolis: Metropolis, a, b):
    """The BPR curve's t0 for link a-b, hours (not its time, which congested_times gives).

    t0 is the cell-centre distance at config.v_link; a and b may be cell indices or index arrays.
    """
    return metropolis.distance_km[a, b] / metropolis.config.v_link


def congested_times(network: Network, metropolis: Metropolis) -> np.ndarray:
    """Each link's time at its flow, hours: bpr_time of its link_time and flow.

    The one rule for a link's time. At bpr_beta = 0 the curve is flat: a
    link with no flow runs at link_time * (1 + bpr_alpha).
    """
    cfg = metropolis.config
    return bpr_time(link_time(metropolis, network.a, network.b), network.flow,
                    cfg.capacity, cfg.bpr_alpha, cfg.bpr_beta)


def build_network(pairs: tuple[tuple[int, int], ...]) -> Network:
    """Network from (a, b) cell pairs, each link with no flow."""
    net = Network()
    for a, b in pairs:
        net = net.with_link(a, b)
    return net


# ---------------------------------------------------------------------------
# Travel times


def intra_cell_time(metropolis: Metropolis) -> float:
    """Within-cell travel time floor: half a cell at the local speed."""
    cfg = metropolis.config
    return (cfg.cell_size_km / 2.0) / cfg.v_local


class _Routing:
    """The routing setup of one network's links, built once and shared by every fold of a call.

    Links do not change within shortest_times or assign_traffic, only their
    flows do, so the sorted terminals, each link's endpoint indices among
    them, the AFC block between terminals and the AFC legs between each
    terminal and every cell, a (t, N) array with one contiguous row per
    terminal, are built once. So are the entry fold's (t, N) sums buffer
    via, the (N, N) time buffer d, which each fold refills with the AFC
    times, and the leg buffer. The loader's route group and mask buffers
    are allocated by its first pass and reused by the next ones.
    """

    def __init__(self, network: Network, metropolis: Metropolis):
        self.metropolis = metropolis
        self.n_links = len(network)
        self.terminals = terminals = network.endpoints()
        self.ia = np.searchsorted(terminals, network.a)
        self.ib = np.searchsorted(terminals, network.b)
        # Fancy indexing copies, so the AFC block and legs divide in place.
        v_local = metropolis.config.v_local
        self.afc = metropolis.distance_km[terminals[:, None], terminals]            # (t, t)
        self.afc /= v_local
        self.legs = np.ascontiguousarray(metropolis.distance_km[:, terminals].T)   # (t, N)
        self.legs /= v_local
        self.via = np.empty_like(self.legs)
        n = metropolis.n_cells
        self.d = np.empty((n, n))
        self.leg = np.empty((n, n)) if len(terminals) else None
        self.group = self.mask = None

    def _afc_times(self) -> np.ndarray:
        """The time buffer refilled with the AFC times."""
        return np.divide(self.metropolis.distance_km, self.metropolis.config.v_local, out=self.d)

    def _graph(self, link_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The link-endpoint graph at link_times: edge times and the link riding each edge.

        Edge times start as a copy of the AFC block and take a link's time
        where the link is faster. Links are unique per endpoint pair, so
        each edge is written at most once; edge_link holds that link's
        index, or -1 where the edge is the AFC leg.
        """
        t = len(self.terminals)
        dist = self.afc.copy()
        edge_link = np.full((t, t), -1, dtype=int)
        li = np.nonzero(link_times < dist[self.ia, self.ib])[0]
        ia, ib = self.ia[li], self.ib[li]
        dist[ia, ib] = dist[ib, ia] = link_times[li]
        edge_link[ia, ib] = edge_link[ib, ia] = li
        return dist, edge_link

    def times(self, link_times: np.ndarray) -> np.ndarray:
        """All-pairs least times at link_times, in the time buffer, which is returned.

        With w the AFC times d starts as, d ends as
        min(w[i, j], min over terminals (a, b) of w[i, a] + dist[a, b] + w[b, j]),
        then takes the intra-cell floor on its diagonal. best_via[b, i] is
        the best time from cell i to terminal b through the endpoint graph.
        """
        d = self._afc_times()
        t = len(self.terminals)
        if t:
            dist, _ = self._graph(link_times)
            for k in range(t):
                np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
            legs, leg, via = self.legs, self.leg, self.via
            best_via = dist[0][:, None] + legs[0]                    # (t_b, N)
            for a in range(1, t):
                np.add(dist[a][:, None], legs[a], out=via)
                np.minimum(best_via, via, out=best_via)
            for b in range(t):
                np.add(best_via[b][:, None], legs[b], out=leg)
                np.minimum(d, leg, out=d)
        np.fill_diagonal(d, intra_cell_time(self.metropolis))
        return d

    def loads(self, od: np.ndarray, link_times: np.ndarray) -> np.ndarray:
        """Route every OD flow on its least-time path at link_times; return per-link loads.

        Folds the times as times() does and keeps the routing: the closure
        tracks each endpoint path's successor, the entry fold each route's
        entry terminal and the exit fold each pair's route group, entry * t
        + exit + 1. A strict < keeps the first (smallest) terminal on ties;
        min is exact, so np.minimum then keeps the times that copying under
        that mask would. The exit fold starts from the direct AFC leg with
        group 0, so a flow whose best network route is no faster than that
        leg stays on local roads. Each pair's flow is summed into its group,
        and every group's endpoint path is walked at once, one hop per pass.
        """
        if not self.n_links:
            return np.zeros(0)
        n, t = self.metropolis.n_cells, len(self.terminals)
        if self.group is None:
            self.group = np.empty((n, n), dtype=np.intp)
            self.mask = np.empty((n, n), dtype=bool)
        dist, edge_link = self._graph(link_times)

        # Floyd-Warshall with successor tracking on the small endpoint graph.
        succ = np.tile(np.arange(t), (t, 1))
        for k in range(t):
            cand = dist[:, k : k + 1] + dist[k : k + 1, :]
            better = cand < dist
            np.copyto(succ, succ[:, k : k + 1], where=better)
            np.minimum(dist, cand, out=dist)

        legs = self.legs
        best_via = dist[0][:, None] + legs[0]                        # (t_b, N)
        entry_for_exit = np.zeros(best_via.shape, dtype=np.intp)
        via, better = self.via, np.empty(best_via.shape, dtype=bool)
        for a in range(1, t):
            np.add(dist[a][:, None], legs[a], out=via)
            np.less(via, best_via, out=better)
            np.copyto(entry_for_exit, a, where=better)
            np.minimum(best_via, via, out=best_via)
        group_of_exit = entry_for_exit * t + np.arange(1, t + 1)[:, None]  # (t_b, N)

        d, leg, group, mask = self._afc_times(), self.leg, self.group, self.mask
        group.fill(0)
        for b in range(t):
            np.add(best_via[b][:, None], legs[b], out=leg)
            np.less(leg, d, out=mask)
            np.copyto(group, group_of_exit[b][:, None], where=mask)
            np.minimum(d, leg, out=d)

        # Most pairs stay on local roads, and summing their flows into one
        # bin is a chain of dependent additions: gather the routed ones.
        np.greater(group, 0, out=mask)
        flow = np.bincount(group[mask], weights=od[mask], minlength=t * t + 1)[1:]
        return _walk_groups(flow, succ, edge_link, self.n_links)


def _walk_groups(flow: np.ndarray, succ: np.ndarray, edge_link: np.ndarray, n_links: int) -> np.ndarray:
    """Per-link loads of every route group's flow, walked along its endpoint path.

    flow[entry * t + exit] is the group's flow, and succ[u, exit] the
    terminal after u on the path to exit. Every group with flow is walked at
    once, one hop per pass, until all have reached their exit; a group that
    has stays there, as succ[x, x] = x, on the diagonal edge that no link
    rides (-1). Laid out group by group, each group's hops in path order,
    the hops' links are summed by bincount, which adds in input order
    starting from zero: every link's float additions are those of walking
    the groups one by one.

    A path on t endpoints has at most t - 1 hops, so a group still short of
    its exit after t passes rides a cycle of succ: that raises RuntimeError
    naming the unfinished (entry, exit) groups.
    """
    t = len(succ)
    groups = np.flatnonzero(flow)
    u, x = np.divmod(groups, t)
    hops = []
    while (u != x).any():
        if len(hops) == t:
            stuck = groups[u != x]
            pairs = list(zip((stuck // t).tolist(), (stuck % t).tolist()))
            raise RuntimeError(f"route groups (entry, exit) {pairs} did not reach their exit "
                               f"in {t} hops: the successor matrix has a cycle")
        v = succ[u, x]
        hops.append(edge_link[u, v])
        u = v
    links = np.stack(hops, axis=1).ravel() if hops else np.empty(0, dtype=int)
    weights = np.repeat(flow[groups], len(hops))
    ridden = links >= 0
    return np.bincount(links[ridden], weights=weights[ridden], minlength=n_links)


def shortest_times(network: Network, metropolis: Metropolis) -> np.ndarray:
    """All-pairs least travel times: min(direct AFC, best route via regional links).

    Link edges are taken at congested_times (a network at zero flow gives
    free-flow times); access and egress ride local roads at v_local. The
    diagonal carries the intra-cell time floor.
    """
    return _Routing(network, metropolis).times(congested_times(network, metropolis))


# ---------------------------------------------------------------------------
# Gravity distribution


@dataclass(frozen=True)
class FurnessResult:
    """Doubly-constrained gravity matrix with its balancing state.

    Column sums match the destinations rescaled to the origin total, e * (a.sum() / e.sum()).
    """

    flows: np.ndarray  # (N, N)
    residual: float    # max marginal relative error at exit
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
        return FurnessResult(zeros, 0.0, 0, True)
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
            return FurnessResult(flows, residual, iterations, True)
    log.warning("gravity balancing stopped at max_iter=%d with residual %.3e", max_iter, residual)
    return FurnessResult(flows, residual, iterations, False)


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
    contributes no trips: engine.initial_state warns once per initial state,
    and a balance stopped at furness_max_iter warns on every call. The kernel
    exp(-lam d) is computed once, in place, and the categories are added into
    the first one's matrix.
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


def assign_traffic(od: np.ndarray, network: Network, metropolis: Metropolis, iterations: int) -> tuple[Network, np.ndarray]:
    """Stage 4: capacity-restrained assignment by the method of successive averages.

    Each iteration routes the whole OD matrix all-or-nothing on the
    congested times of the current flows (congested_times) and averages the
    loads into the link flows with weight 1/k. Local-road (AFC) traffic
    never congests anything. Returns a new network with the resulting flows,
    leaving the input as it was, and the final travel-time matrix at their
    congested times.
    """
    routing = _Routing(network, metropolis)
    for k in range(1, iterations + 1):
        loads = routing.loads(od, congested_times(network, metropolis))
        w = 1.0 / k
        network = replace(network, flow=(1.0 - w) * network.flow + w * loads)
    return network, routing.times(congested_times(network, metropolis))


def total_travel_time(flows: np.ndarray, d: np.ndarray) -> float:
    """Hours travelled: sum over zone pairs of the (N, N) flow * time."""
    return float((flows * d).sum())

