"""Endogenous network growth by accessibility-maximising stakeholders.

Each step one stakeholder is drawn (a mayor with probability xi, the governor
otherwise), every admissible new link is scored by the stakeholder's
territory accessibility, and the argmax link is built.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from .transport import Network, assign_traffic, distribute, generate_demand, intra_cell_time, shortest_times
from .world import Metropolis

log = logging.getLogger(__name__)

LOCAL = "local"
METROPOLITAN = "metropolitan"

# Slack of the free-flow search, relative to the objective before the build.
# Bounds and block gains differ from the exhaustive per-candidate objective
# only by rounding (measured below 1e-15 of the objective on 10x10 and 20x20
# runs), so with this slack every candidate that could tie the exact maximum
# is scored and then re-scored exactly.
PRUNE_MARGIN = 1e-9
_BOUND_CHUNK = 64  # candidates per bound pass; keeps the temporaries small


@dataclass(frozen=True)
class Stakeholder:
    """A mayor (one territory) or the governor (the whole metropolis)."""

    kind: str                # "mayor" | "governor"
    mayor: int | None = None

    def territory_cells(self, metropolis: Metropolis) -> np.ndarray:
        if self.kind == "governor":
            return np.arange(metropolis.n_cells)
        return np.nonzero(metropolis.territory == self.mayor)[0]

    @property
    def level(self) -> str:
        return METROPOLITAN if self.kind == "governor" else LOCAL


@dataclass
class DecisionRecord:
    """One governance step: who decided, what was evaluated, what was built.

    `evaluations` holds (a, b, objective) for the scored candidates only, in
    enumeration order. Under free-flow evaluation the bound-pruned search
    omits candidates whose gain bound rules them out; `n_candidates` still
    counts every candidate, and decisions.csv is unchanged.
    """

    step: int
    level: str
    mayor: int | None
    n_candidates: int
    chosen: tuple[int, int] | None
    objective_before: float
    objective_after: float
    draws: tuple[float, ...]
    evaluations: list[tuple[int, int, float]]


def select_stakeholder(xi: float, weights: np.ndarray, rng: random.Random) -> tuple[Stakeholder, tuple[float, ...]]:
    """Draw the deciding stakeholder and report the uniform draws consumed.

    The level draw comes first; a mayor draw follows only on a local outcome,
    using win probabilities proportional to the territory job weights. An
    all-zero weight vector degrades to a uniform mayor draw.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    level_draw = rng.random()
    if level_draw >= xi:
        return Stakeholder(kind="governor"), (level_draw,)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        log.warning("all mayor weights are zero; drawing uniformly")
        probs = np.full(len(weights), 1.0 / len(weights))
    else:
        probs = weights / total
    mayor_draw = rng.random()
    cumulative = np.cumsum(probs)
    mayor = int(min(np.searchsorted(cumulative, mayor_draw, side="right"), len(weights) - 1))
    return Stakeholder(kind="mayor", mayor=mayor), (level_draw, mayor_draw)


def enumerate_candidates(network: Network, metropolis: Metropolis) -> tuple[np.ndarray, np.ndarray]:
    """All buildable links as endpoint arrays (a, b), a < b, in ascending (a, b) order.

    A pair qualifies when the cells are grid-adjacent (8-neighbourhood), or
    when both already touch the network and lie within the configured
    extension radius of each other. Existing links are excluded.
    """
    cfg = metropolis.config
    n = metropolis.n_cells
    # int16 keeps the (N, N) temporaries small. It holds any row or column
    # index of a grid whose (N, N) distance matrix fits in memory.
    cells = np.arange(n)
    row = (cells // cfg.grid_cols).astype(np.int16)
    col = (cells % cfg.grid_cols).astype(np.int16)
    chebyshev = np.maximum(np.abs(row[:, None] - row[None, :]), np.abs(col[:, None] - col[None, :]))
    touched = np.zeros(n, dtype=bool)
    touched[network.a] = touched[network.b] = True
    ok = (chebyshev == 1) | (touched[:, None] & touched[None, :] & (chebyshev <= cfg.network_extension_radius))
    ok[network.a, network.b] = ok[network.b, network.a] = False
    return np.nonzero(np.triu(ok, 1))


def _territory_accessibility(metropolis: Metropolis, d: np.ndarray, cells: np.ndarray) -> float:
    """Sum of worker-weighted accessibility over a territory on the given times."""
    kernel = np.exp(-metropolis.config.nu * d[cells])
    reachable_jobs = kernel @ metropolis.jobs            # (|T|, S)
    return float((metropolis.workers[cells] * reachable_jobs).sum())


def objective(metropolis: Metropolis, d: np.ndarray, stakeholder: Stakeholder) -> float:
    """Stakeholder payoff: territory workers' accessibility to all metropolitan jobs."""
    return _territory_accessibility(metropolis, d, stakeholder.territory_cells(metropolis))


def _candidate_times(d: np.ndarray, a: int, b: int, link_time: float, floor: float) -> np.ndarray:
    """Travel times after adding one link, from the base all-pairs times.

    Exact single-edge update: any new route crosses the link once, so the new
    time is min(old, via a-b, via b-a). The intra-cell floor is stripped
    before the relaxation and reapplied after.
    """
    base = d.copy()
    np.fill_diagonal(base, 0.0)
    via = base[:, a][:, None] + (link_time + base[b, :])[None, :]
    out = np.minimum(base, np.minimum(via, via.T))
    np.fill_diagonal(out, floor)
    return out


def _with_link(metropolis: Metropolis, network: Network, a: int, b: int) -> Network:
    """A copy of the network plus link a-b: centre distance, configured speed and capacity."""
    cfg = metropolis.config
    net = network.copy()
    net.add_link(a, b, float(metropolis.distance_km[a, b]), cfg.v_link, cfg.capacity)
    return net


def evaluate_candidate(metropolis: Metropolis, network: Network, a: int, b: int, stakeholder: Stakeholder) -> float:
    """Objective after hypothetically building the link a-b; the inputs stay untouched.

    Free-flow times by default; with congestion_in_evaluation set, the current
    travel demand is redistributed and assigned on the extended network first.
    """
    cfg = metropolis.config
    trial = _with_link(metropolis, network, a, b)
    if cfg.congestion_in_evaluation:
        od = _current_od(metropolis, network)
        _, d = assign_traffic(od, trial, metropolis, cfg.assignment_iterations)
    else:
        d = shortest_times(trial, metropolis, free_flow=True)
    return objective(metropolis, d, stakeholder)


def _current_od(metropolis: Metropolis, network: Network) -> np.ndarray:
    cfg = metropolis.config
    demand = generate_demand(metropolis)
    d = shortest_times(network, metropolis)
    od = distribute(demand, d, cfg.lam, cfg.furness_tolerance, cfg.furness_max_iter)
    return od.total()


def _first_max(scores: dict[int, float]) -> int:
    """Index of the largest score; ties go to the first in enumeration order."""
    order = sorted(scores)
    best = order[0]
    for k in order[1:]:
        if scores[k] > scores[best]:
            best = k
    return best


class _LinkGains:
    """One-link accessibility gains on fixed free-flow times: exact values and upper bounds.

    With K = exp(-nu * d) (d with a zero diagonal), c = exp(-nu * t_ab) and
    pair weights W = workers_T jobs^T, building a-b raises K_ij to
    max(K_ij, c K_ia K_bj, c K_ib K_aj). Shortest times obey the triangle
    inequality, so K_ij >= K_ib K_bj and K_ij >= K_ia K_aj: the a -> b route
    can only win on rows with c K_ia > K_ib and columns with c K_bj > K_aj,
    the b -> a route only on the mirrored block, and the two blocks never
    share a pair.
    """

    def __init__(self, metropolis: Metropolis, d_base: np.ndarray, cells: np.ndarray,
                 a: np.ndarray, b: np.ndarray):
        cfg = metropolis.config
        K = d_base.copy()
        np.fill_diagonal(K, 0.0)
        K *= -cfg.nu
        self.K = np.exp(K, out=K)
        self.KTt = np.ascontiguousarray(K.T[:, cells])               # (N, |T|): KTt[x, i] = K_ix
        self.cells = cells
        self.workers = metropolis.workers[cells]                     # (|T|, S)
        self.jobs = metropolis.jobs                                  # (N, S)
        self.a, self.b = a, b
        self.c = np.exp(-cfg.nu * (metropolis.distance_km[a, b] / cfg.v_link))

    def _block(self, x: int, y: int, c: float) -> float:
        """Exact gain of the pairs whose new best route runs x -> y over the link."""
        K, KTt = self.K, self.KTt
        rows = np.nonzero(c * KTt[x] > KTt[y])[0]
        cols = np.nonzero(c * K[y] > K[x])[0]
        if rows.size == 0 or cols.size == 0:
            return 0.0
        via = (c * KTt[x, rows])[:, None] * K[y, cols][None, :]
        base = K[np.ix_(self.cells[rows], cols)]
        weights = self.workers[rows] @ self.jobs[cols].T
        return float((weights * np.maximum(via - base, 0.0)).sum())

    def gain(self, k: int) -> float:
        """Exact objective gain of candidate k, up to rounding."""
        a, b, c = self.a[k], self.b[k], self.c[k]
        return self._block(a, b, c) + self._block(b, a, c)

    def _excess(self, M: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per candidate, sum((c M[x] - M[y])+ * S[y]) for (x, y) = (a, b) and (b, a).

        Runs _BOUND_CHUNK candidates at a time.
        """
        ab, ba = np.empty(len(self.a)), np.empty(len(self.a))
        for s in range(0, len(ab), _BOUND_CHUNK):
            a, b = self.a[s : s + _BOUND_CHUNK], self.b[s : s + _BOUND_CHUNK]
            c = self.c[s : s + _BOUND_CHUNK, None]
            ma, mb = M[a], M[b]
            ab[s : s + _BOUND_CHUNK] = (np.maximum(c * ma - mb, 0.0) * S[b]).sum(axis=1)
            ba[s : s + _BOUND_CHUNK] = (np.maximum(c * mb - ma, 0.0) * S[a]).sum(axis=1)
        return ab, ba

    def bounds(self) -> np.ndarray:
        """Upper bound on every candidate's gain.

        Per direction a -> b, c K_ia K_bj - K_ij is at most (c K_ia - K_ib) K_bj
        and at most K_ia (c K_bj - K_aj). Summed with the weights W, the first
        gives a row bound against P = W K^T, the second a column bound against
        Q = K_T^T W; the smaller of the two holds. W has rank S, so P and Q are
        built as products through the S categories, one after the other.
        """
        Pt = (self.K @ self.jobs) @ self.workers.T                  # (N, |T|): Pt[b, i] = P_ib
        row_ab, row_ba = self._excess(self.KTt, Pt)
        del Pt
        Q = (self.KTt @ self.workers) @ self.jobs.T                 # (N, N)
        col_ba, col_ab = self._excess(self.K, Q)
        return np.minimum(row_ab, col_ab) + np.minimum(row_ba, col_ba)


def _free_flow_search(
    metropolis: Metropolis,
    d_base: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    cells: np.ndarray,
    before: float,
    step: int,
) -> tuple[int, dict[int, float]]:
    """Exact argmax over the candidates on free-flow times, by bound-pruned best-first search.

    Candidates are scored (_LinkGains.gain) in descending bound order until a
    bound falls below the best gain minus PRUNE_MARGIN * |before|. Every
    scored candidate within that margin of the best is re-scored on the full
    one-link relaxation, as an exhaustive pass would score it, and the first
    maximum in enumeration order wins. Returns the winner's index and the
    objective of every scored candidate by index.
    """
    link_gains = _LinkGains(metropolis, d_base, cells, a, b)
    bounds = link_gains.bounds()
    margin = PRUNE_MARGIN * abs(before)
    best = -np.inf
    gains: dict[int, float] = {}
    for k in np.argsort(-bounds, kind="stable").tolist():
        if bounds[k] < best - margin:
            break
        gains[k] = link_gains.gain(k)
        best = max(best, gains[k])
    del link_gains  # frees its (N, N) arrays before the exact re-scoring

    cfg = metropolis.config
    floor = intra_cell_time(metropolis)
    values = {k: before + g for k, g in gains.items()}
    shortlist = [k for k in sorted(gains) if gains[k] >= best - margin]
    for k in shortlist:
        d_trial = _candidate_times(d_base, a[k], b[k], metropolis.distance_km[a[k], b[k]] / cfg.v_link, floor)
        values[k] = _territory_accessibility(metropolis, d_trial, cells)
    best_idx = _first_max({k: values[k] for k in shortlist})

    top = sorted(gains.values(), reverse=True)[:2]
    log.debug("step %d: n_candidates %d, scored %d, shortlist %d, best - runner-up gain %s",
              step, len(a), len(gains), len(shortlist),
              f"{top[0] - top[1]:.6g}" if len(top) == 2 else "n/a")
    return best_idx, values


def decide_and_build(
    metropolis: Metropolis,
    network: Network,
    stakeholder: Stakeholder,
    *,
    step: int = 0,
    draws: tuple[float, ...] = (),
) -> tuple[Network, DecisionRecord]:
    """Score the candidates for the stakeholder and build the best one.

    Ties go to the smallest (a, b) pair in enumeration order. An empty
    candidate set records a no-build. Free-flow evaluation runs the exact
    bound-pruned search of _free_flow_search on the base all-pairs times;
    congested evaluation re-assigns traffic for every candidate.
    """
    cfg = metropolis.config
    a, b = enumerate_candidates(network, metropolis)
    cells = stakeholder.territory_cells(metropolis)

    if cfg.congestion_in_evaluation:
        od = _current_od(metropolis, network)
        _, d_base = assign_traffic(od, network, metropolis, cfg.assignment_iterations)
    else:
        d_base = shortest_times(network, metropolis, free_flow=True)
    before = _territory_accessibility(metropolis, d_base, cells)

    if not len(a):
        log.info("step %d: network saturated, no candidate links", step)
        record = DecisionRecord(
            step=step, level=stakeholder.level, mayor=stakeholder.mayor,
            n_candidates=0, chosen=None,
            objective_before=before, objective_after=before,
            draws=draws, evaluations=[],
        )
        return network.copy(), record

    if cfg.congestion_in_evaluation:
        scores = {}
        for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            trial = _with_link(metropolis, network, x, y)
            _, d_trial = assign_traffic(od, trial, metropolis, cfg.assignment_iterations)
            scores[k] = _territory_accessibility(metropolis, d_trial, cells)
        best_idx = _first_max(scores)
    else:
        best_idx, scores = _free_flow_search(metropolis, d_base, a, b, cells, before, step)

    chosen = (int(a[best_idx]), int(b[best_idx]))
    record = DecisionRecord(
        step=step, level=stakeholder.level, mayor=stakeholder.mayor,
        n_candidates=len(a), chosen=chosen,
        objective_before=before, objective_after=scores[best_idx],
        draws=draws, evaluations=[(int(a[k]), int(b[k]), scores[k]) for k in sorted(scores)],
    )
    return _with_link(metropolis, network, *chosen), record
