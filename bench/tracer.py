"""Spans and counts around the calls into each metrosim layer, for the traced run.

metrosim modules bind the functions of other modules with `from ... import`
at import time, so a layer function is wrapped under the name each calling
module looks up: patching `transport.assign_traffic` alone would miss every
call. Spans (name, call site, start, end, parent, run id) stay in memory and
are reduced to per-layer metrics when the job ends; self time is computed from
the span tree. Nothing under `src/` changes.
"""
from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np


def _targets():
    """(module, attribute looked up there, layer metric name)."""
    from metrosim import engine, governance, output

    targets = [
        (engine, "run", "engine.run"),
        (engine, "initial_state", "engine.initial_state"),
        (engine, "step", "engine.step"),
        (engine, "distribute", "transport.distribute"),
        (engine, "assign_traffic", "transport.assign_traffic"),
        (engine, "shortest_times", "transport.shortest_times"),
        (engine, "accessibility", "landuse.accessibility"),
        (engine, "cell_scores", "landuse.cell_scores"),
        (engine, "relocate", "landuse.relocate"),
        (engine, "select_stakeholder", "governance.select_stakeholder"),
        (engine, "decide_and_build", "governance.decide_and_build"),
        (governance, "assign_traffic", "transport.assign_traffic"),
        (governance, "distribute", "transport.distribute"),
        (governance, "shortest_times", "transport.shortest_times"),
        (governance, "enumerate_candidates", "governance.enumerate_candidates"),
    ]
    for attr in sorted(vars(output)):
        if attr.startswith(("write_", "render_")) and callable(getattr(output, attr)):
            targets.append((output, attr, f"output.{attr}"))
    return targets


class Tracer:
    """Wraps the layer functions while installed; one instance per traced job."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, site, start, end, parent, run_id]
        self.stack: list[int] = []
        self.runs: list[dict] = []      # per engine.run: scenario key and deciders
        self.counts: dict[str, float] = {}
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module.__name__.rsplit(".", 1)[-1]))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, site: str):
        def traced(*args, **kwargs):
            if name == "engine.run":
                self._begin_run(args[0])
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, site, time.perf_counter(), None, parent, len(self.runs) - 1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][3] = time.perf_counter()
            self._count(name, args, result)
            return result

        return traced

    def _begin_run(self, config) -> None:
        from metrosim.config import config_to_dict

        # The state after k steps depends on the scenario and on the deciders
        # drawn so far, not on xi, so xi is left out of the key.
        key = json.dumps(config_to_dict(replace(config, xi=0.0)), sort_keys=True)
        self.runs.append({"scenario": key, "deciders": []})

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "governance.select_stakeholder":
            stakeholder = result[0]
            self.runs[-1]["deciders"].append((stakeholder.kind, stakeholder.mayor))
        elif name == "governance.decide_and_build":
            metropolis, _, stakeholder = args[:3]
            record = result[1]
            territory = len(stakeholder.territory_cells(metropolis))
            self._add("governance.candidates", record.n_candidates)
            self._add("governance.evaluations", len(record.evaluations))
            self._add("governance.kernel_entries_computed",
                      len(record.evaluations) * territory * metropolis.n_cells)
        elif name == "transport.assign_traffic":
            _, network, metropolis, iterations = args[:4]
            n, t = metropolis.n_cells, len(network.endpoints())
            # _close_network runs once per MSA iteration and once for the final
            # times; each builds float64 (N, t, t) and (N, N, t) temporaries.
            self._add("transport.join_bytes_computed", (iterations + 1) * 8 * (n * t * t + n * n * t))
        elif name == "transport.distribute":
            self._add("transport.distribute.furness_iterations", float(np.sum(result.iterations)))
            self._add("transport.distribute.not_converged", float(np.sum(~result.converged)))
            residual = float(np.max(result.residuals, initial=0.0))
            self.counts["transport.distribute.max_residual"] = max(
                self.counts.get("transport.distribute.max_residual", 0.0), residual)
        elif name.startswith("output."):
            self._add("output.bytes", Path(args[0]).stat().st_size)

    def summary(self) -> dict:
        """Per-layer totals of this job: seconds, calls, self seconds, counts."""
        child_s = [0.0] * len(self.spans)
        for name, site, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers: dict[str, dict] = {}
        by_site: dict[str, float] = {}
        step_s = []
        for i, (name, site, start, end, _, _) in enumerate(self.spans):
            layer = "output" if name.startswith("output.") else name
            entry = layers.setdefault(layer, {"s": 0.0, "calls": 0, "self_s": 0.0})
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self_s"] += end - start - child_s[i]
            if name.startswith("transport."):
                key = f"{name}.from_{site}"
                by_site[key] = by_site.get(key, 0.0) + end - start
            if name == "engine.step":
                step_s.append(end - start)
        prefixes = set()
        for run in self.runs:
            deciders = run["deciders"]
            prefixes.update((run["scenario"], tuple(deciders[: k + 1])) for k in range(len(deciders)))
        return {
            "layers": layers,
            "by_site_s": by_site,
            "counts": dict(self.counts),
            "step_s": step_s,
            "distinct_decider_prefixes": len(prefixes),
        }
