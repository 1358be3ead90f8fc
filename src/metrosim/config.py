"""Scenario configuration: grid geometry, density centres, behavioural parameters.

A scenario is a flat JSON document with a fixed key set; unknown keys are
rejected so typos in sweep scripts fail loudly instead of silently running
defaults.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Malformed scenario document; the message names the offending field."""


@dataclass(frozen=True)
class CenterSpec:
    """One density centre of the stylised metropolis."""

    position: tuple[int, int]  # (row, col), inside the grid
    amplitude: float           # peak workers per cell at the centre
    gradient: float            # exponential density decay, 1/km
    job_share: float           # relative share of metropolitan jobs
    mix: tuple[float, ...]     # workforce composition over categories, sums to 1


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """All exogenous parameters of one simulation scenario."""

    grid_rows: int
    grid_cols: int
    cell_size_km: float
    categories: int
    centers: tuple[CenterSpec, ...]
    lam: float                 # trip-distribution distance aversion ("lambda" in JSON)
    nu: float                  # accessibility decay with travel time
    gamma: float               # utility weight on accessibility vs. urban form
    mu: float                  # relocation choice sensitivity
    xi: float                  # share of infrastructure decisions taken locally
    m: np.ndarray              # category-to-category proximity preferences, S x S
    m_prime: np.ndarray        # cross-side (workers vs. jobs) proximity, S x S
    relocation_fraction: float
    landuse_enabled: bool
    steps: int                 # infrastructures to build over the run
    v_local: float             # local-road speed, km/h (as-the-crow-flies travel)
    v_link: float              # regional-link speed, km/h
    capacity: float            # regional-link capacity, vehicles per step
    bpr_alpha: float
    bpr_beta: float
    furness_tolerance: float
    furness_max_iter: int
    assignment_iterations: int
    network_extension_radius: int = 3
    congestion_in_evaluation: bool = False
    initial_links: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        validate(self)

    @property
    def n_cells(self) -> int:
        return self.grid_rows * self.grid_cols


# JSON key -> attribute name, in field order. "lambda" is a Python keyword,
# hence the rename.
_KEY_TO_ATTR = {("lambda" if f.name == "lam" else f.name): f.name for f in fields(ScenarioConfig)}
_OPTIONAL_KEYS = {"network_extension_radius", "congestion_in_evaluation", "initial_links"}
_CENTER_KEYS = {"position", "amplitude", "gradient", "job_share", "mix"}


def _require_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _require_real(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    return float(value)


def _require_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: expected a boolean, got {value!r}")
    return value


def _center_from_dict(doc: dict, index: int) -> CenterSpec:
    name = f"centers[{index}]"
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(doc) - _CENTER_KEYS
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    missing = _CENTER_KEYS - set(doc)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")
    pos = doc["position"]
    if not isinstance(pos, (list, tuple)) or len(pos) != 2:
        raise ConfigError(f"{name}.position: expected [row, col]")
    if not isinstance(doc["mix"], (list, tuple)):
        raise ConfigError(f"{name}.mix: expected a list of numbers, got {doc['mix']!r}")
    return CenterSpec(
        position=(_require_int(pos[0], f"{name}.position[0]"), _require_int(pos[1], f"{name}.position[1]")),
        amplitude=_require_real(doc["amplitude"], f"{name}.amplitude"),
        gradient=_require_real(doc["gradient"], f"{name}.gradient"),
        job_share=_require_real(doc["job_share"], f"{name}.job_share"),
        mix=tuple(_require_real(x, f"{name}.mix") for x in doc["mix"]),
    )


def _matrix(value: Any, name: str, size: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: not a numeric matrix ({exc})") from None
    if arr.shape != (size, size):
        raise ConfigError(f"{name}: expected a {size}x{size} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name}: entries must be finite")
    return arr


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document: expected a JSON object")
    unknown = set(doc) - set(_KEY_TO_ATTR)
    if unknown:
        raise ConfigError(f"unknown configuration keys {sorted(unknown)}")
    missing = (set(_KEY_TO_ATTR) - _OPTIONAL_KEYS) - set(doc)
    if missing:
        raise ConfigError(f"missing configuration keys {sorted(missing)}")

    s = _require_int(doc["categories"], "categories")
    if s < 1:
        raise ConfigError("categories: must be >= 1")
    centers_doc = doc["centers"]
    if not isinstance(centers_doc, list) or not centers_doc:
        raise ConfigError("centers: expected a nonempty list")
    centers = tuple(_center_from_dict(c, i) for i, c in enumerate(centers_doc))

    raw_links = doc.get("initial_links", [])
    if not isinstance(raw_links, (list, tuple)):
        raise ConfigError("initial_links: expected a list of [a, b] pairs")
    links = []
    for i, pair in enumerate(raw_links):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"initial_links[{i}]: expected [a, b]")
        links.append((_require_int(pair[0], f"initial_links[{i}][0]"), _require_int(pair[1], f"initial_links[{i}][1]")))

    return ScenarioConfig(
        grid_rows=_require_int(doc["grid_rows"], "grid_rows"),
        grid_cols=_require_int(doc["grid_cols"], "grid_cols"),
        cell_size_km=_require_real(doc["cell_size_km"], "cell_size_km"),
        categories=s,
        centers=centers,
        lam=_require_real(doc["lambda"], "lambda"),
        nu=_require_real(doc["nu"], "nu"),
        gamma=_require_real(doc["gamma"], "gamma"),
        mu=_require_real(doc["mu"], "mu"),
        xi=_require_real(doc["xi"], "xi"),
        m=_matrix(doc["m"], "m", s),
        m_prime=_matrix(doc["m_prime"], "m_prime", s),
        relocation_fraction=_require_real(doc["relocation_fraction"], "relocation_fraction"),
        landuse_enabled=_require_bool(doc["landuse_enabled"], "landuse_enabled"),
        steps=_require_int(doc["steps"], "steps"),
        v_local=_require_real(doc["v_local"], "v_local"),
        v_link=_require_real(doc["v_link"], "v_link"),
        capacity=_require_real(doc["capacity"], "capacity"),
        bpr_alpha=_require_real(doc["bpr_alpha"], "bpr_alpha"),
        bpr_beta=_require_real(doc["bpr_beta"], "bpr_beta"),
        furness_tolerance=_require_real(doc["furness_tolerance"], "furness_tolerance"),
        furness_max_iter=_require_int(doc["furness_max_iter"], "furness_max_iter"),
        assignment_iterations=_require_int(doc["assignment_iterations"], "assignment_iterations"),
        network_extension_radius=_require_int(doc.get("network_extension_radius", 3), "network_extension_radius"),
        congestion_in_evaluation=_require_bool(doc.get("congestion_in_evaluation", False), "congestion_in_evaluation"),
        initial_links=tuple(links),
    )


def validate(config: ScenarioConfig) -> None:
    """Check every invariant; raise ConfigError naming the first violated field."""
    if config.grid_rows < 1:
        raise ConfigError("grid_rows: must be >= 1")
    if config.grid_cols < 1:
        raise ConfigError("grid_cols: must be >= 1")
    if config.cell_size_km <= 0:
        raise ConfigError("cell_size_km: must be > 0")
    if config.categories < 1:
        raise ConfigError("categories: must be >= 1")
    if not config.centers:
        raise ConfigError("centers: must be nonempty")
    for i, c in enumerate(config.centers):
        r, col = c.position
        if not (0 <= r < config.grid_rows and 0 <= col < config.grid_cols):
            raise ConfigError(f"centers[{i}].position: {c.position} outside the grid")
        if c.amplitude <= 0:
            raise ConfigError(f"centers[{i}].amplitude: must be > 0")
        if c.gradient <= 0:
            raise ConfigError(f"centers[{i}].gradient: must be > 0")
        if c.job_share < 0:
            raise ConfigError(f"centers[{i}].job_share: must be >= 0")
        if len(c.mix) != config.categories:
            raise ConfigError(f"centers[{i}].mix: expected {config.categories} entries")
        if any(x < 0 for x in c.mix):
            raise ConfigError(f"centers[{i}].mix: entries must be >= 0")
        if abs(sum(c.mix) - 1.0) > 1e-9:
            raise ConfigError(f"centers[{i}].mix: must sum to 1, got {sum(c.mix)}")
    if config.lam < 0:
        raise ConfigError("lambda: must be >= 0")
    if config.nu < 0:
        raise ConfigError("nu: must be >= 0")
    if not (0.0 <= config.gamma <= 1.0):
        raise ConfigError("gamma: must lie in [0, 1]")
    if config.mu < 0:
        raise ConfigError("mu: must be >= 0")
    if not (0.0 <= config.xi <= 1.0):
        raise ConfigError("xi: must lie in [0, 1]")
    s = config.categories
    if config.m.shape != (s, s):
        raise ConfigError(f"m: expected a {s}x{s} matrix")
    if config.m_prime.shape != (s, s):
        raise ConfigError(f"m_prime: expected a {s}x{s} matrix")
    if not (0.0 <= config.relocation_fraction <= 1.0):
        raise ConfigError("relocation_fraction: must lie in [0, 1]")
    # steps == 0 is the degenerate "initial snapshot only" run and is allowed.
    if config.steps < 0:
        raise ConfigError("steps: must be >= 0")
    if config.v_local <= 0:
        raise ConfigError("v_local: must be > 0")
    if config.v_link <= 0:
        raise ConfigError("v_link: must be > 0")
    if config.capacity <= 0:
        raise ConfigError("capacity: must be > 0")
    if config.bpr_alpha < 0:
        raise ConfigError("bpr_alpha: must be >= 0")
    if config.bpr_beta < 0:
        raise ConfigError("bpr_beta: must be >= 0")
    if config.furness_tolerance <= 0:
        raise ConfigError("furness_tolerance: must be > 0")
    if config.furness_max_iter < 1:
        raise ConfigError("furness_max_iter: must be >= 1")
    if config.assignment_iterations < 1:
        raise ConfigError("assignment_iterations: must be >= 1")
    if config.network_extension_radius < 1:
        raise ConfigError("network_extension_radius: must be >= 1")
    n = config.n_cells
    seen = set()
    for i, (a, b) in enumerate(config.initial_links):
        if a == b:
            raise ConfigError(f"initial_links[{i}]: endpoints must differ")
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"initial_links[{i}]: cell index outside the grid")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ConfigError(f"initial_links[{i}]: duplicate pair {key}")
        seen.add(key)


def config_to_dict(config: ScenarioConfig) -> dict:
    """Inverse of config_from_dict; the result round-trips through JSON."""
    doc: dict[str, Any] = {}
    for key, attr in _KEY_TO_ATTR.items():
        value = getattr(config, attr)
        if key == "centers":
            value = [
                {
                    "position": list(c.position),
                    "amplitude": c.amplitude,
                    "gradient": c.gradient,
                    "job_share": c.job_share,
                    "mix": list(c.mix),
                }
                for c in value
            ]
        elif key in ("m", "m_prime"):
            value = [list(row) for row in np.asarray(value)]
        elif key == "initial_links":
            value = [list(pair) for pair in value]
        doc[key] = value
    return doc


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario document: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"scenario document: not UTF-8 text ({exc})") from None
    return config_from_dict(doc)


def save_config(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n", encoding="utf-8")


def two_city_config(
    *,
    grid_rows: int = 10,
    grid_cols: int = 10,
    minor_position: tuple[int, int] = (8, 8),
    dominant_position: tuple[int, int] = (1, 1),
    minor_amplitude: float = 100.0,
    dominant_amplitude: float = 400.0,
    minor_job_share: float = 0.1,
    dominant_job_share: float = 0.9,
    gradient: float = 0.8,
    xi: float = 0.5,
    steps: int = 6,
    landuse_enabled: bool = False,
    **overrides: Any,
) -> ScenarioConfig:
    """Desk-scale two-city scenario: mayor 0 minor city, mayor 1 dominant city.

    The defaults give a mildly congested 10x10 metropolis with two
    socio-professional categories, the dominant city holding most workers
    and jobs; keyword overrides set any other ScenarioConfig field and
    replace the defaults below.
    """
    centers = (
        CenterSpec(position=minor_position, amplitude=minor_amplitude, gradient=gradient,
                   job_share=minor_job_share, mix=(0.5, 0.5)),
        CenterSpec(position=dominant_position, amplitude=dominant_amplitude, gradient=gradient,
                   job_share=dominant_job_share, mix=(0.5, 0.5)),
    )
    defaults = dict(
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        cell_size_km=1.0,
        categories=2,
        centers=centers,
        lam=3.0,
        nu=8.0,
        gamma=0.8,
        mu=0.005,
        xi=xi,
        m=np.array([[0.05, 0.0], [0.0, 0.05]]),
        m_prime=np.array([[0.05, 0.0], [0.0, 0.05]]),
        relocation_fraction=0.1,
        landuse_enabled=landuse_enabled,
        steps=steps,
        v_local=25.0,
        v_link=75.0,
        capacity=1500.0,
        bpr_alpha=0.15,
        bpr_beta=4.0,
        furness_tolerance=1e-8,
        furness_max_iter=500,
        assignment_iterations=4,
    )
    return ScenarioConfig(**(defaults | overrides))
