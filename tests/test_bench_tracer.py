"""The benchmark's tracer still finds and counts the engine's layer calls."""
from __future__ import annotations

from pathlib import Path

from metrosim import engine
from metrosim.config import two_city_config

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_counts_a_congested_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    step = engine.step
    tracer = Tracer()
    tracer.install()
    try:
        engine.run(two_city_config(steps=2, congestion_in_evaluation=True), seed=0)
    finally:
        tracer.uninstall()
    assert engine.step is step
    summary = tracer.summary()
    assert summary["layers"]["engine.step"]["calls"] == 2
    assert summary["layers"]["governance.decide_and_build"]["calls"] == 2
    # One zero-flow all-pairs pass at step 0; per step one to derive the
    # state's travel times for the demand, and two per decision: its
    # zero-flow times and, under congested evaluation, the assigned times.
    assert summary["layers"]["transport.shortest_times"]["calls"] == 7
    assert summary["distinct_decider_prefixes"] == 2


def test_tracer_counts_a_replicate_sharing_its_steps(monkeypatch):
    # At xi = 0 every seed draws the governor: each run still goes through
    # engine.run, step and select_stakeholder, but the steps are computed once.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        engine.replicate(two_city_config(steps=2, xi=0.0), 3, 0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    calls = {name: summary["layers"][name]["calls"] for name in (
        "engine.run", "engine.step", "governance.select_stakeholder", "governance.decide_and_build",
        "engine.initial_state")}
    assert calls == {"engine.run": 3, "engine.step": 6, "governance.select_stakeholder": 6,
                     "governance.decide_and_build": 2, "engine.initial_state": 1}
    assert summary["distinct_decider_prefixes"] == 2
