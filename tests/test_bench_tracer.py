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
    # One free-flow all-pairs pass at step 0 and one per decision.
    assert summary["layers"]["transport.shortest_times"]["calls"] == 3
    assert summary["distinct_decider_prefixes"] == 2
