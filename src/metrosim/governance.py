"""Endogenous network growth by accessibility-maximising stakeholders.

Each step one stakeholder is drawn (a mayor with probability xi, the governor
otherwise), every admissible new link is scored by the stakeholder's
territory accessibility, and the argmax link is built.
"""
from __future__ import annotations

import logging
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .transport import Network, assign_traffic, distribute, intra_cell_time, link_time, shortest_times
from .world import Metropolis

log = logging.getLogger(__name__)

LOCAL = "local"
METROPOLITAN = "metropolitan"

# Slack of the bound-pruned search, relative to the larger of the objectives
# before the build on the evaluation mode's and on free-flow times. Bounds
# and block gains differ from the exhaustive per-candidate objective only by
# rounding (measured below 1e-15 of the objective on 10x10 and 20x20 runs),
# so with this slack every candidate that could tie the exact maximum is
# scored exactly.
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


@dataclass(frozen=True)
class DecisionRecord:
    """One governance step: who decided, what was evaluated, what was built.

    `evaluations` holds (a, b, objective) for the exactly scored candidates
    only, in enumeration order; `n_candidates` still counts every candidate.
    Both evaluation modes pick those candidates by the same bound-pruned
    search, and each lists its own exact objective: on the one-link
    relaxation of the free-flow times, or after a congested assignment.
    """

    step: int
    level: str
    mayor: int | None
    n_candidates: int
    chosen: tuple[int, int] | None
    objective_before: float
    objective_after: float
    evaluations: tuple[tuple[int, int, float], ...]


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
    # int16 keeps the (N, N) temporaries small. config.validate caps
    # grid_rows and grid_cols at the int16 maximum, so every index fits.
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


def _candidate_times(d: np.ndarray, a: int, b: int, t_link: float, floor: float) -> np.ndarray:
    """Travel times after adding one link, from the base all-pairs times.

    Exact single-edge update: any new route crosses the link once, so the new
    time is min(old, via a-b, via b-a). The intra-cell floor is stripped
    before the relaxation and reapplied after.
    """
    base = d.copy()
    np.fill_diagonal(base, 0.0)
    via = base[:, a][:, None] + (t_link + base[b, :])[None, :]
    out = np.minimum(base, np.minimum(via, via.T))
    np.fill_diagonal(out, floor)
    return out


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
        self.c = np.exp(-cfg.nu * link_time(metropolis, a, b))

    def _block(self, x: int, y: int, c: float) -> float:
        """Exact gain of the pairs whose new best route runs x -> y over the link."""
        K, KTt = self.K, self.KTt
        rows = np.nonzero(c * KTt[x] > KTt[y])[0]
        cols = np.nonzero(c * K[y] > K[x])[0]
        if rows.size == 0 or cols.size == 0:
            return 0.0
        via = (c * KTt[x, rows])[:, None] * K[y, cols][None, :]
        base = K[self.cells[rows][:, None], cols]
        weights = self.workers[rows] @ self.jobs[cols].T
        return float((weights * np.maximum(via - base, 0.0)).sum())

    def gain(self, k: int) -> float:
        """Exact objective gain of candidate k, up to rounding."""
        a, b, c = self.a[k], self.b[k], self.c[k]
        return self._block(a, b, c) + self._block(b, a, c)

    def bounds(self) -> np.ndarray:
        """Upper bound on every candidate's gain: one box bound per route direction.

        The x -> y route can only win on the block R x C of _block. There
        c K_ix K_yj - K_ij is at most (c K_ix - K_iy) K_yj and at most
        K_ix (c K_yj - K_xj). W_ij = sum_s w_is u_js (w = workers_T, u = jobs),
        so each form summed over R x C factors through the S categories:
        sum_s [sum_R w_is (c K_ix - K_iy)] [sum_C u_js K_yj] for the row form,
        sum_s [sum_R w_is K_ix] [sum_C u_js (c K_yj - K_xj)] for the column
        form. A direction's bound is the smaller form, a candidate's the sum
        over its two directions.
        """
        out = np.zeros(len(self.a))
        for s in range(0, len(out), _BOUND_CHUNK):
            a, b = self.a[s : s + _BOUND_CHUNK], self.b[s : s + _BOUND_CHUNK]
            c = self.c[s : s + _BOUND_CHUNK, None]
            ta, tb, ka, kb = self.KTt[a], self.KTt[b], self.K[a], self.K[b]
            for tx, ty, kx, ky in ((ta, tb, ka, kb), (tb, ta, kb, ka)):
                in_r, in_c = c * tx > ty, c * ky > kx                 # the block R x C
                row = (((c * tx - ty) * in_r) @ self.workers) * ((ky * in_c) @ self.jobs)
                col = ((tx * in_r) @ self.workers) * (((c * ky - kx) * in_c) @ self.jobs)
                out[s : s + _BOUND_CHUNK] += np.minimum(row.sum(axis=1), col.sum(axis=1))
        return out


def _bound_search(
    link_gains: _LinkGains,
    before_ff: float,
    margin: float,
    exact: Callable[[int], float],
) -> dict[int, float]:
    """Best-first search for the candidates that may hold the maximum of exact(k).

    Requires exact(k) <= before_ff + link_gains.gain(k) for every candidate,
    up to rounding, so that before_ff + bounds()[k] bounds it too.
    Candidates are visited in descending bound order until before_ff +
    bounds()[k] falls below the best exact score minus margin. A visited
    candidate is scored with exact(k) only if before_ff + gain(k) can still
    reach the best minus margin. Returns the exact scores by candidate index;
    every candidate that ties the maximum within the margin is among them.
    """
    bounds = link_gains.bounds()
    best = -np.inf
    scores: dict[int, float] = {}
    for k in np.argsort(-bounds, kind="stable").tolist():
        if before_ff + bounds[k] < best - margin:
            break
        if before_ff + link_gains.gain(k) < best - margin:
            continue
        scores[k] = exact(k)
        best = max(best, scores[k])
    return scores


def decide_and_build(
    metropolis: Metropolis,
    network: Network,
    stakeholder: Stakeholder,
    *,
    travel_times: np.ndarray,
    step: int = 0,
) -> tuple[Network, DecisionRecord]:
    """Score the candidates for the stakeholder and build the best one.

    Both evaluation modes run one bound-pruned best-first search
    (_bound_search). A candidate's objective under either mode is at most
    the free-flow objective of the network plus that link, before_ff +
    _LinkGains.gain(k), because congested times are never below free-flow
    times and accessibility is monotone in them. Every candidate whose
    free-flow value can still reach the best score is scored exactly: under
    free-flow evaluation on the one-link relaxation of the base all-pairs
    times, under congested evaluation by assigning the demand distributed
    once on travel_times (the step's times on `network` as assigned) onto
    the network plus that link. Under heavy congestion the bound prunes
    little. The first maximum in enumeration order (the smallest (a, b)
    pair) is built. An empty candidate set records a no-build.

    Returns a new network with the chosen link appended, or the input
    network itself when nothing is built, and the decision record. The
    input network is never altered.
    """
    cfg = metropolis.config
    a, b = enumerate_candidates(network, metropolis)
    cells = stakeholder.territory_cells(metropolis)
    d_ff = shortest_times(network, metropolis, free_flow=True)
    before_ff = _territory_accessibility(metropolis, d_ff, cells)

    if cfg.congestion_in_evaluation:
        od = distribute(metropolis, travel_times).flows
        _, d_base = assign_traffic(od, network, metropolis, cfg.assignment_iterations)
        before = _territory_accessibility(metropolis, d_base, cells)

        def exact(k: int) -> float:
            trial = network.with_link(a[k], b[k], link_time(metropolis, a[k], b[k]))
            d = assign_traffic(od, trial, metropolis, cfg.assignment_iterations)[1]
            return _territory_accessibility(metropolis, d, cells)
    else:
        before = before_ff
        floor = intra_cell_time(metropolis)

        def exact(k: int) -> float:
            d = _candidate_times(d_ff, a[k], b[k], link_time(metropolis, a[k], b[k]), floor)
            return _territory_accessibility(metropolis, d, cells)

    margin = PRUNE_MARGIN * max(abs(before), abs(before_ff))
    scores = _bound_search(_LinkGains(metropolis, d_ff, cells, a, b), before_ff, margin, exact)
    ordered = sorted(scores)
    best = max(ordered, key=scores.__getitem__, default=None)

    top = sorted(scores.values(), reverse=True)[:2]
    log.debug("step %d: n_candidates %d, scored %d, best - runner-up %s",
              step, len(a), len(scores), f"{top[0] - top[1]:.6g}" if len(top) == 2 else "n/a")
    chosen = None if best is None else (int(a[best]), int(b[best]))
    record = DecisionRecord(
        step=step, level=stakeholder.level, mayor=stakeholder.mayor,
        n_candidates=len(a), chosen=chosen,
        objective_before=before, objective_after=before if best is None else scores[best],
        evaluations=tuple((int(a[k]), int(b[k]), scores[k]) for k in ordered),
    )
    if chosen is None:
        log.info("step %d: network saturated, no candidate links", step)
        return network, record
    return network.with_link(*chosen, link_time(metropolis, *chosen)), record
