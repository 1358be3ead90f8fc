"""Endogenous network growth by accessibility-maximising stakeholders.

Each step one stakeholder is drawn (a mayor with probability xi, the governor
otherwise), every admissible new link is scored by the stakeholder's
territory accessibility, and the argmax link is built.
"""
from __future__ import annotations

import logging
import random
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .transport import Network, assign_traffic, congested_times, distribute, intra_cell_time, shortest_times
from .world import Metropolis

log = logging.getLogger(__name__)

# Slack of the bound-pruned search, relative to the larger of the objectives
# before the build on the evaluation mode's and on free-flow times. Bounds
# and block gains differ from the exhaustive per-candidate objective only by
# rounding: the worst slack, bound minus exact gain, measured -5.2e-16 of the
# best objective after the build over 300 decisions (every stakeholder at
# every step of 6-step 20x20 and 15x15 runs, the four sweep presets at 8
# steps and a congested 10x10 run, seeds 0 and 1). So with this slack every
# candidate that could tie the exact maximum is scored exactly.
PRUNE_MARGIN = 1e-9
# Kernel entries per gathered (slab, N) row block of bounds(), one slab
# being also the highest-ceiling candidates _bound_search box-bounds before
# its first exact score: 1 << 13 keeps each block at 64 KiB. 1 << 14 was
# slower at 10x10 (about 1.2 against 0.7 ms per call, one BLAS thread).
_BOUND_ENTRIES = 1 << 13


@dataclass(frozen=True)
class Stakeholder:
    """Mayor `mayor` (one territory), or the governor (the whole metropolis) when mayor is None."""

    mayor: int | None = None

    @property
    def kind(self) -> str:
        return "governor" if self.mayor is None else "mayor"

    def territory_cells(self, metropolis: Metropolis) -> np.ndarray:
        if self.mayor is None:
            return np.arange(metropolis.n_cells)
        return np.nonzero(metropolis.territory == self.mayor)[0]


@dataclass(frozen=True)
class DecisionRecord:
    """One governance step: who decided, what was evaluated, what was built.

    `evaluations` holds (a, b, objective) for the exactly scored candidates
    only, in enumeration order; `n_candidates` still counts every candidate.
    Both evaluation modes pick those candidates by the same bound-pruned
    search, and each lists its own exact objective: on the one-link
    relaxation of the zero-flow times, or after a congested assignment.

    `mayor` is None for the governor, whose `level` is "metropolitan"; a mayor's is "local".
    """

    step: int
    mayor: int | None
    n_candidates: int
    chosen: tuple[int, int] | None
    objective_before: float
    objective_after: float
    evaluations: tuple[tuple[int, int, float], ...]

    @property
    def level(self) -> str:
        return "metropolitan" if self.mayor is None else "local"


def select_stakeholder(xi: float, weights: np.ndarray, rng: random.Random) -> tuple[Stakeholder, tuple[float, ...]]:
    """Draw the deciding stakeholder and report the uniform draws consumed.

    The level draw comes first; a mayor draw follows only on a local outcome,
    using win probabilities proportional to the territory job weights. An
    all-zero weight vector degrades to a uniform mayor draw.
    """
    level_draw = rng.random()
    if level_draw >= xi:
        return Stakeholder(), (level_draw,)
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
    return Stakeholder(mayor), (level_draw, mayor_draw)


def enumerate_candidates(network: Network, metropolis: Metropolis) -> tuple[np.ndarray, np.ndarray]:
    """All buildable links as endpoint arrays (a, b), a < b, in ascending (a, b) order.

    A pair qualifies when the cells are grid-adjacent (8-neighbourhood), or
    when both already touch the network and lie within the configured
    extension radius of each other. Existing links are excluded. The
    neighbour pairs come from grid offsets and the extension pairs from a
    (t, t) check over the t touched cells, so no (N, N) array is formed.
    """
    cfg = metropolis.config
    n, cols = metropolis.n_cells, cfg.grid_cols
    # Pairs are keyed a * n + b: ascending keys are ascending (a, b) pairs.
    # ScenarioConfig caps grid_rows and grid_cols at the int16 maximum, so
    # every key fits in int64.
    grid = np.arange(n, dtype=np.int64).reshape(cfg.grid_rows, cols)
    # Each cell's 8-neighbours after it: right, down-left, down, down-right.
    keys = [a.ravel() * n + b.ravel() for a, b in (
        (grid[:, :-1], grid[:, 1:]), (grid[:-1, 1:], grid[1:, :-1]),
        (grid[:-1], grid[1:]), (grid[:-1, :-1], grid[1:, 1:]),
    )]
    # Touched pairs farther apart than the neighbours, from a (t, t) check.
    touched = network.endpoints()
    tr, tc = touched // cols, touched % cols
    chebyshev = np.maximum(np.abs(tr[:, None] - tr[None, :]), np.abs(tc[:, None] - tc[None, :]))
    i, j = np.nonzero(np.triu((chebyshev > 1) & (chebyshev <= cfg.network_extension_radius), 1))
    keys.append(touched[i] * n + touched[j])
    keys = np.sort(np.concatenate(keys))
    built = np.minimum(network.a, network.b) * n + np.maximum(network.a, network.b)
    at = np.searchsorted(keys, built)
    found = at < len(keys)
    found[found] = keys[at[found]] == built[found]
    keys = np.delete(keys, at[found])
    return keys // n, keys % n


def _territory_accessibility(metropolis: Metropolis, d: np.ndarray, cells: np.ndarray) -> float:
    """Sum of worker-weighted accessibility over a territory on the given times."""
    kernel = d[cells]  # a copy: cells is an index array
    kernel *= -metropolis.config.nu
    np.exp(kernel, out=kernel)
    reachable_jobs = kernel @ metropolis.jobs            # (|T|, S)
    return float((metropolis.workers[cells] * reachable_jobs).sum())


def _candidate_times(d: np.ndarray, a: int, b: int, t_link: float, floor: float) -> np.ndarray:
    """Travel times after adding one link, from the base all-pairs times.

    Exact single-edge update: any new route crosses the link once, so the new
    time is min(old, via a-b, via b-a). The intra-cell floor is stripped
    before the relaxation and reapplied after. Two (N, N) buffers: the copy
    of d, relaxed in place, and the via a-b times, whose transpose gives via
    b-a; min is exact, so the grouping changes no bit.
    """
    out = d.copy()
    np.fill_diagonal(out, 0.0)
    via = np.add.outer(out[:, a], t_link + out[b, :])
    np.minimum(out, via, out=out)
    np.minimum(out, via.T, out=out)
    np.fill_diagonal(out, floor)
    return out


class _LinkGains:
    """One-link accessibility gains on fixed zero-flow times: exact values and upper bounds.

    With K = exp(-nu * d) (d with a zero diagonal), c = exp(-nu * t_ab) and
    pair weights W = workers_T jobs^T, building a-b raises K_ij to
    max(K_ij, c K_ia K_bj, c K_ib K_aj). Shortest times obey the triangle
    inequality, so K_ij >= K_ib K_bj and K_ij >= K_ia K_aj: the a -> b route
    can only win on rows with c K_ia > K_ib and columns with c K_bj > K_aj,
    the b -> a route only on the mirrored block, and the two blocks never
    share a pair.

    Free-flow times are symmetric, since AFC legs run on Euclidean distance
    and links are undirected, and shortest_times gives them to within
    rounding (a few ulp). So K_ix is read from row x of K as K_xi: the row
    block of one direction and the column block of the other come from the
    same comparison of two kernel rows, and no transposed copy of K is kept.
    Reading K_xi for K_ix moves a gain or a bound only by rounding.
    """

    def __init__(self, metropolis: Metropolis, d_base: np.ndarray, cells: np.ndarray,
                 a: np.ndarray, b: np.ndarray, t: np.ndarray):
        # d_base: the all-pairs times at zero flow; t: each candidate a-b's time at zero flow.
        cfg = metropolis.config
        K = d_base.copy()
        np.fill_diagonal(K, 0.0)
        K *= -cfg.nu
        self.K = np.exp(K, out=K)
        self.cells = cells
        self.workers = metropolis.workers[cells]                     # (|T|, S)
        self.jobs = metropolis.jobs                                  # (N, S)
        # V = [workers scattered into T, zero elsewhere | jobs]: one product
        # against V sums a masked kernel row over R (workers) and over C (jobs).
        n, s = self.jobs.shape
        self.V = np.zeros((n, 2 * s))
        self.V[cells, :s] = self.workers
        self.V[:, s:] = self.jobs
        self.a, self.b = a, b
        self.c = np.exp(-cfg.nu * t)
        self.slab = max(1, _BOUND_ENTRIES // n)                      # candidates per bounds() block

    def _block(self, kx: np.ndarray, ky: np.ndarray, m_xy: np.ndarray, m_yx: np.ndarray, c: float) -> float:
        """Exact gain of the pairs whose new best route runs x -> y over the link.

        kx and ky are rows x and y of K; by symmetry the block is R = T
        within m_xy = (c K_x > K_y) and C = m_yx = (c K_y > K_x).
        """
        rows = np.nonzero(m_xy[self.cells])[0]
        cols = np.nonzero(m_yx)[0]
        if rows.size == 0 or cols.size == 0:
            return 0.0
        r = self.cells[rows]
        via = (c * kx[r])[:, None] * ky[cols][None, :]
        base = self.K[r[:, None], cols]
        weights = self.workers[rows] @ self.jobs[cols].T
        return float((weights * np.maximum(via - base, 0.0)).sum())

    def gain(self, k: int) -> float:
        """Exact objective gain of candidate k, up to rounding."""
        a, b, c = self.a[k], self.b[k], self.c[k]
        ka, kb = self.K[a], self.K[b]
        m_ab, m_ba = c * ka > kb, c * kb > ka
        return self._block(ka, kb, m_ab, m_ba, c) + self._block(kb, ka, m_ba, m_ab, c)

    def ceiling(self) -> np.ndarray:
        """Upper bound on every candidate's box bound, at O(S) per candidate.

        On the rows R of the x -> y route, c K_ix - K_iy <= K_ix (c - K_xy),
        as K_iy >= K_ix K_xy by the triangle inequality, and the terms are
        positive there; widening R to T and C to every cell then bounds the
        row form of bounds() by max(c - K_xy, 0) sum_s [sum_T w_is K_ix]
        [sum_j u_js K_yj]. With K_ix read as K_xi, both sums are entries of
        KV = K @ V, so one (N, N) x (N, 2S) product serves every candidate.
        K_ab stands in for K_ba on the b -> a route, which moves the ceiling
        only by rounding.
        """
        s = self.V.shape[1] // 2
        KV = self.K @ self.V
        ka, kb = KV[self.a], KV[self.b]
        spread = np.einsum("ks,ks->k", ka[:, :s], kb[:, s:]) + np.einsum("ks,ks->k", kb[:, :s], ka[:, s:])
        return np.maximum(self.c - self.K[self.a, self.b], 0.0) * spread

    def bounds(self, idx: np.ndarray) -> np.ndarray:
        """Upper bound on the gain of each candidate in idx: one box bound per route direction.

        The x -> y route can only win on the block R x C of _block. There
        c K_ix K_yj - K_ij is at most (c K_ix - K_iy) K_yj and at most
        K_ix (c K_yj - K_xj). W_ij = sum_s w_is u_js (w = workers_T, u = jobs),
        so each form summed over R x C factors through the S categories:
        sum_s [sum_R w_is (c K_ix - K_iy)] [sum_C u_js K_yj] for the row form,
        sum_s [sum_R w_is K_ix] [sum_C u_js (c K_yj - K_xj)] for the column
        form. A direction's bound is the smaller form, a candidate's the sum
        over its two directions.

        By symmetry R of a -> b is T within m_ab = (c K_a > K_b), which is
        also C of b -> a, and m_ba = (c K_b > K_a) mirrors it. One product of
        the rows K_a m_ab, K_b m_ab, K_b m_ba and K_a m_ba against V gives all
        eight factor sums. The differences are taken after summing, which
        errs by at most about N eps of the objective after the build, as
        c sum_R w K_x times sum_C u K_y is at most that objective; this is
        far inside PRUNE_MARGIN.
        """
        n, s2 = self.V.shape
        s, k, slab = s2 // 2, len(idx), self.slab
        masked = np.empty((4, min(slab, k), n))
        # sums[d, 0] and sums[d, 1]: K_x and K_y masked by m_xy, times V, for
        # direction d = 0 (a -> b) and d = 1 (b -> a).
        sums = np.empty((2, 2, k, s2))
        for lo in range(0, k, slab):
            part = idx[lo : lo + slab]
            a, b, c = self.a[part], self.b[part], self.c[part, None]
            m = len(a)
            rows = masked[:, :m]
            # No (m, N) temporary: rows K_a and K_b are gathered into the
            # blocks that end as K_a m_ba and K_b m_ba, and the other two
            # blocks hold c K_a and c K_b for the comparisons first. take()
            # writes into out unbuffered only outside mode="raise"; every
            # index is in range, so "clip" clips nothing.
            ka = self.K.take(a, axis=0, out=rows[3], mode="clip")
            kb = self.K.take(b, axis=0, out=rows[2], mode="clip")
            m_ab = np.multiply(ka, c, out=rows[0]) > kb
            m_ba = np.multiply(kb, c, out=rows[1]) > ka
            np.multiply(ka, m_ab, out=rows[0])
            np.multiply(kb, m_ab, out=rows[1])
            kb *= m_ba
            ka *= m_ba
            sums[:, :, lo : lo + m] = (rows.reshape(4 * m, n) @ self.V).reshape(2, 2, m, s2)
        c = self.c[idx, None]
        rx, ry = sums[:, 0, :, :s], sums[:, 1, :, :s]                # sum_R w K_x, sum_R w K_y
        cy, cx = sums[::-1, 0, :, s:], sums[::-1, 1, :, s:]          # sum_C u K_y, sum_C u K_x
        row = ((c * rx - ry) * cy).sum(axis=2)
        col = (rx * (c * cy - cx)).sum(axis=2)
        return np.minimum(row, col).sum(axis=0)


def _bound_search(
    link_gains: _LinkGains,
    before_ff: float,
    margin: float,
    exact: Callable[[int], float],
) -> tuple[dict[int, float], float, int]:
    """Best-first search for the candidates that may hold the maximum of exact(k).

    Requires exact(k) <= before_ff + link_gains.gain(k) for every candidate,
    up to rounding, so that before_ff plus the box bound, or plus the
    ceiling above it, bounds it too. Four tiers, each tighter and dearer
    than the last: ceiling() for every candidate, bounds() for those the
    ceiling cannot rule out, gain(k), then exact(k).
    1. The slab of highest ceilings (one _BOUND_ENTRIES block) is
       box-bounded, and its highest box bound is scored exactly.
    2. The other candidates are box-bounded only where before_ff +
       ceiling can still reach the best score minus margin.
    3. The box-bounded candidates are visited in descending bound order
       until before_ff + bound falls below the best minus margin. A visited
       candidate is scored only if before_ff + gain(k) can still reach it.
    Returns the exact scores by candidate index, among which is every
    candidate that ties the maximum within the margin; the ceiling of the
    unscored candidates that decide_and_build logs (-inf if none was left),
    the highest of before_ff + gain(k) over the visited ones, before_ff +
    bound over the other box-bounded ones and before_ff + ceiling over the
    unrefined ones, which up to rounding no unscored candidate's exact score
    exceeds; and the number of candidates box-bounded.
    """
    ceilings = link_gains.ceiling()
    if not len(ceilings):
        return {}, -np.inf, 0
    order = np.argsort(-ceilings, kind="stable")
    bounds = np.empty(len(order))
    top = order[: link_gains.slab]
    bounds[top] = link_gains.bounds(top)
    first = int(top[np.argmax(bounds[top])])
    best = exact(first)
    scores = {first: best}
    # The candidates whose ceiling can reach the best score lead the
    # descending ceiling order; those past the slab are box-bounded too.
    reach = max(len(top), np.count_nonzero(before_ff + ceilings >= best - margin))
    ceiling = before_ff + ceilings[order[reach]] if reach < len(order) else -np.inf
    refined = order[len(top) : reach]
    bounds[refined] = link_gains.bounds(refined)
    boxed = order[:reach]
    for k in boxed[np.argsort(-bounds[boxed], kind="stable")].tolist():
        if before_ff + bounds[k] < best - margin:
            ceiling = max(ceiling, before_ff + bounds[k])
            break
        if k in scores:
            continue
        tight = before_ff + link_gains.gain(k)
        if tight < best - margin:
            ceiling = max(ceiling, tight)
            continue
        scores[k] = exact(k)
        best = max(best, scores[k])
    return scores, ceiling, len(boxed)


def decide_and_build(
    metropolis: Metropolis,
    network: Network,
    stakeholder: Stakeholder,
    *,
    step: int = 0,
) -> tuple[Network, DecisionRecord]:
    """Score the candidates for the stakeholder and build the best one.

    Both evaluation modes run one bound-pruned best-first search
    (_bound_search) on zero-flow times, each candidate priced once; it rules
    candidates out by an O(S) ceiling, then a box bound, then the exact
    free-flow gain, before any is scored exactly. A
    candidate's objective under either mode is at most the free-flow
    objective of the network plus that link, before_ff + _LinkGains.gain(k),
    because BPR times never decrease with flow. Every candidate whose
    free-flow value can still reach the best score is scored exactly: under
    free-flow evaluation on the one-link relaxation of the base all-pairs
    times, under congested evaluation by assigning the demand distributed
    once on the times of `network` as assigned onto the network plus that
    link. Under heavy congestion the bound prunes little. The first maximum
    in enumeration order (the smallest (a, b) pair) is built. An empty
    candidate set records a no-build.

    Returns a new network with the chosen link appended, or the input
    network itself when nothing is built, and the decision record. The
    input network is never altered.
    """
    cfg = metropolis.config
    a, b = enumerate_candidates(network, metropolis)
    cells = stakeholder.territory_cells(metropolis)
    d_ff = shortest_times(replace(network, flow=np.zeros(len(network))), metropolis)
    before_ff = _territory_accessibility(metropolis, d_ff, cells)
    t_link = congested_times(Network(a, b, np.zeros(len(a))), metropolis)

    if cfg.congestion_in_evaluation:
        od = distribute(metropolis, shortest_times(network, metropolis)).flows
        _, d_base = assign_traffic(od, network, metropolis, cfg.assignment_iterations)
        before = _territory_accessibility(metropolis, d_base, cells)

        def exact(k: int) -> float:
            trial = network.with_link(a[k], b[k])
            d = assign_traffic(od, trial, metropolis, cfg.assignment_iterations)[1]
            return _territory_accessibility(metropolis, d, cells)
    else:
        before = before_ff
        floor = intra_cell_time(metropolis)

        def exact(k: int) -> float:
            d = _candidate_times(d_ff, a[k], b[k], t_link[k], floor)
            return _territory_accessibility(metropolis, d, cells)

    margin = PRUNE_MARGIN * max(abs(before), abs(before_ff))
    scores, ceiling, boxed = _bound_search(
        _LinkGains(metropolis, d_ff, cells, a, b, t_link), before_ff, margin, exact)
    ordered = sorted(scores)
    best = max(ordered, key=scores.__getitem__, default=None)

    # With one candidate scored the runner-up is unscored, and the margin is
    # at least the best score minus the ceiling of the unscored candidates.
    top = sorted(scores.values(), reverse=True)[:2]
    if len(top) == 2:
        gap = f"best - runner-up {top[0] - top[1]:.6g}"
    elif top and ceiling > -np.inf:
        gap = f"best - highest unscored bound {top[0] - ceiling:.6g} (a lower bound on best - runner-up)"
    else:
        gap = "best - runner-up n/a"
    log.debug("step %d: n_candidates %d, box-bounded %d, scored %d, %s", step, len(a), boxed, len(scores), gap)
    chosen = None if best is None else (int(a[best]), int(b[best]))
    record = DecisionRecord(
        step=step, mayor=stakeholder.mayor,
        n_candidates=len(a), chosen=chosen,
        objective_before=before, objective_after=before if best is None else scores[best],
        evaluations=tuple((int(a[k]), int(b[k]), scores[k]) for k in ordered),
    )
    if chosen is None:
        log.info("step %d: network saturated, no candidate links", step)
        return network, record
    return network.with_link(*chosen), record
