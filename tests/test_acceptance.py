"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The two qualitative governance experiments use the shipped two-city presets:
the nu=8 default for the three-regime comparison and the unequal-weights
sweep, and a nu=6 override of the same base for the equal-weights sweep
(low decay puts the equal cities in a shared-trunk regime; see the README).
"""
from __future__ import annotations

import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from metrosim.cli import SweepSpec, cmd_sweep, sweep_configurations
from metrosim.config import two_city_config
from metrosim import engine
from metrosim.engine import replicate, run
from metrosim.governance import select_stakeholder
from metrosim.landuse import choice_probabilities
from metrosim.transport import Network, congested_times, furness_balance, shortest_times
from metrosim.world import init_metropolis, mayor_weights, natural_totals

from oracles import floyd_warshall_oracle


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _mahalanobis(point, mean, cov) -> float:
    diff = np.asarray(point) - np.asarray(mean)
    cov = np.asarray(cov) + np.eye(len(diff)) * 1e-12
    return float(np.sqrt(diff @ np.linalg.solve(cov, diff)))


# ---------------------------------------------------------------------------
# 1. Gravity balancing


def test_criterion_1_furness_correctness():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst_marginal = 0.0
    worst_closed_form = 0.0
    for _ in range(50):
        origins = rng.uniform(0.5, 50.0, size=10)
        destinations = rng.uniform(0.5, 50.0, size=10)
        d = rng.uniform(0.01, 1.0, size=(10, 10))
        for lam in (0.0, 0.1, 0.5):
            flows, _, _, _ = furness_balance(origins, destinations, np.exp(-lam * d), tol=1e-9, max_iter=5000)
            scaled = destinations * (origins.sum() / destinations.sum())
            row_err = np.max(np.abs(flows.sum(1) - origins) / np.maximum(origins, 1e-12))
            col_err = np.max(np.abs(flows.sum(0) - scaled) / np.maximum(scaled, 1e-12))
            worst_marginal = max(worst_marginal, row_err, col_err)
            if lam == 0.0:
                expected = np.outer(origins, scaled) / scaled.sum()
                worst_closed_form = max(worst_closed_form, float(np.max(np.abs(flows - expected))))
    elapsed = time.perf_counter() - start
    ok = worst_marginal < 1e-6 and worst_closed_form < 1e-9 and elapsed < 5.0
    _report("criterion-1", ok,
            f"50 instances x 3 lambdas: marginal err {worst_marginal:.2e} (<1e-6), "
            f"lambda=0 closed form {worst_closed_form:.2e} (<1e-9), {elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 2. Shortest-path oracle equivalence


def test_criterion_2_shortest_path_oracle():
    rng = random.Random(777)
    worst = 0.0
    for _ in range(100):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        cfg = two_city_config(grid_rows=rows, grid_cols=cols, v_link=130.0,
                              minor_position=(rows - 1, cols - 1), dominant_position=(0, 0))
        metropolis = init_metropolis(cfg, 100.0, 100.0)
        n = metropolis.n_cells
        net, seen = Network(), set()
        for _ in range(rng.randint(0, 40)):
            a, b = rng.sample(range(n), 2)
            if (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            net = net.with_link(a, b)
        # Random flows put each link at 1 to 39 times its free-flow time,
        # some slower than local roads.
        net = replace(net, flow=np.array([rng.uniform(0.0, 4.0) * cfg.capacity for _ in range(len(net))]))

        d = shortest_times(net, metropolis)
        oracle = floyd_warshall_oracle(metropolis, zip(net.a.tolist(), net.b.tolist()),
                                       congested_times(net, metropolis).tolist())
        worst = max(worst, float(np.max(np.abs(d - oracle))))
    _report("criterion-2", worst < 1e-9,
            f"100 random networks (<=25 cells, <=40 links): max deviation {worst:.2e} (<1e-9)")


# ---------------------------------------------------------------------------
# 3. Logit / softmax suite


def test_criterion_3_logit_suite():
    rng = np.random.default_rng(99)
    worst_norm = 0.0
    worst_shift = 0.0
    for _ in range(50):
        utilities = rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 60)))
        mu = float(rng.uniform(0.0, 20.0))
        probs = choice_probabilities(utilities, mu)
        worst_norm = max(worst_norm, abs(float(probs.sum()) - 1.0))
        shifted = choice_probabilities(utilities + 77.7, mu)
        worst_shift = max(worst_shift, float(np.max(np.abs(probs - shifted))))
    uniform = choice_probabilities(rng.uniform(0.0, 5.0, size=25), 0.0)
    uniform_exact = np.array_equal(uniform, np.full(25, 1.0 / 25.0))
    unit_scale = rng.uniform(0.0, 1.0, size=40)
    concentration = float(choice_probabilities(unit_scale, 1e3)[np.argmax(unit_scale)])
    ok = worst_norm < 1e-12 and worst_shift < 1e-12 and uniform_exact and concentration > 0.999
    _report("criterion-3", ok,
            f"normalisation {worst_norm:.1e} (<1e-12), shift invariance {worst_shift:.1e} (<1e-12), "
            f"mu=0 uniform exact={uniform_exact}, argmax mass {concentration:.4f} (>0.999)")


# ---------------------------------------------------------------------------
# 4. Governance draw frequencies


def test_criterion_4_draw_frequencies():
    rng = random.Random(20240810)
    weights = np.array([75.0, 25.0])
    n = 10_000
    local = 0
    mayor0 = 0
    for _ in range(n):
        stakeholder, _ = select_stakeholder(0.6, weights, rng)
        if stakeholder.kind == "mayor":
            local += 1
            if stakeholder.mayor == 0:
                mayor0 += 1
    local_share = local / n
    mayor0_share = mayor0 / local
    ok = abs(local_share - 0.6) <= 0.015 and abs(mayor0_share - 0.75) <= 0.015
    _report("criterion-4", ok,
            f"local share {local_share:.4f} (0.6 +- 0.015), "
            f"conditional mayor-0 share {mayor0_share:.4f} (0.75 +- 0.015)")


# ---------------------------------------------------------------------------
# 5. Argmax dominance and uncongested monotonicity


def test_criterion_5_argmax_dominance():
    cfg = two_city_config(xi=0.6)
    violations = 0
    records = 0
    for seed in range(100, 130):
        state = run(cfg, seed)
        for rec in state.decisions:
            records += 1
            if rec.objective_after < rec.objective_before:
                violations += 1
            for _, _, value in rec.evaluations:
                if rec.objective_after < value:
                    violations += 1
    _report("criterion-5", violations == 0 and records == 180,
            f"30 replications x 6 steps: {records} decisions, {violations} dominance violations (0 allowed)")


# ---------------------------------------------------------------------------
# 6. Three-regime comparison (replications x governance level)


def test_criterion_6_regime_ordering(monkeypatch):
    cfg = two_city_config()  # land use frozen by default, 6 steps
    governor = replicate(replace(cfg, xi=0.0), 30, 100)
    dominant = replicate(replace(cfg, xi=1.0), 30, 100)
    # The minor-mayor regime: stakeholders drawn on the mayor weights
    # reversed, which turns local power toward the minor mayor and leaves
    # land use as it is.
    monkeypatch.setattr(engine, "mayor_weights", lambda metropolis: mayor_weights(metropolis)[::-1])
    minor = replicate(replace(cfg, xi=1.0), 30, 100)

    # Containment: the xi=0 regime is deterministic (point ellipse), so check
    # each mean inside the other's 1-sigma ellipse wherever that ellipse is
    # non-degenerate.
    m_contain = _mahalanobis(governor.mean, dominant.mean, dominant.covariance)
    sd = max(minor.finals[:, 0].std(ddof=1), dominant.finals[:, 0].std(ddof=1))
    gap = min(governor.mean[0], dominant.mean[0]) - minor.mean[0]
    ok = m_contain <= 1.0 and gap > sd
    _report("criterion-6", ok,
            f"governor within dominant-mayor 1-sigma ellipse (Mahalanobis {m_contain:.2f} <= 1); "
            f"minor-mayor mean {gap / sd:.1f} sigma below (>1 required)")


# ---------------------------------------------------------------------------
# 7. Sensitivity sweep trends


def _sweep_trend(base, name: str, out_dir: Path) -> float:
    spec = SweepSpec(
        configurations={name: sweep_configurations(base)[name]},
        xi_values=(0.0, 0.25, 0.5, 0.75, 1.0),
        replications=30,
        base_seed=100,
        out_dir=out_dir,
    )
    assert cmd_sweep(spec) == 0
    trends = {}
    for line in (out_dir / "trend.csv").read_text().splitlines()[1:]:
        key, value = line.split(",")
        trends[key] = float(value)
    return trends[name]


def test_criterion_7_sweep_trends(tmp_path):
    base = two_city_config()
    rho_unequal = _sweep_trend(base, "unequal_far", tmp_path / "unequal")
    rho_equal = _sweep_trend(replace(base, nu=6.0), "equal_near", tmp_path / "equal")
    ok = rho_unequal <= -0.8 and abs(rho_equal) <= 0.4
    _report("criterion-7", ok,
            f"unequal-weights Spearman {rho_unequal:+.2f} (<= -0.8), "
            f"equal-weights Spearman {rho_equal:+.2f} (|rho| <= 0.4)")


# ---------------------------------------------------------------------------
# 8. Determinism and conservation


def test_criterion_8_determinism_and_conservation(tmp_path):
    from metrosim.cli import main
    from metrosim.config import save_config

    cfg = two_city_config(steps=4, landuse_enabled=True, xi=0.7)
    cfg_path = tmp_path / "scenario.json"
    save_config(cfg, cfg_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--seed", "11", "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--seed", "11", "--out", str(out_b)]) == 0
    identical = all(
        (out_a / f).read_bytes() == (out_b / f).read_bytes()
        for f in ("history.csv", "decisions.csv", "final_state.json")
    )

    state0 = run(cfg, seed=11)
    start = init_metropolis(cfg, *natural_totals(cfg))
    conserved = bool(
        np.allclose(state0.metropolis.workers.sum(0), start.workers.sum(0), rtol=1e-6)
        and np.allclose(state0.metropolis.jobs.sum(0), start.jobs.sum(0), rtol=1e-6)
    )

    frozen = replace(cfg, xi=0.0)
    stats = replicate(frozen, 5, 123)
    zero_variance = bool(np.allclose(stats.covariance, 0.0, atol=1e-18))

    ok = identical and conserved and zero_variance
    _report("criterion-8", ok,
            f"byte-identical reruns={identical}, totals conserved within 1e-6={conserved}, "
            f"xi=0 cross-seed variance zero={zero_variance}")
