"""Scenario configuration: grid geometry, density centres, behavioural parameters.

A scenario is a flat JSON document with a fixed key set; unknown keys are
rejected so typos in sweep scripts fail loudly instead of silently running
defaults.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
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
        for name in ("m", "m_prime"):  # read-only copies, out of the caller's reach
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        validate(self)

    @property
    def n_cells(self) -> int:
        return self.grid_rows * self.grid_cols


# Attribute name -> JSON key, in field order. "lambda" is a Python keyword,
# hence the rename.
_ATTR_TO_KEY = {f.name: ("lambda" if f.name == "lam" else f.name) for f in fields(ScenarioConfig)}
_OPTIONAL_KEYS = {_ATTR_TO_KEY[f.name] for f in fields(ScenarioConfig) if f.default is not MISSING}
_CENTER_KEYS = {"position", "amplitude", "gradient", "job_share", "mix"}


def _require_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _require_real(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name}: must be finite, got an integer too large for a float") from None


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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: not a numeric matrix ({exc})") from None
    if arr.shape != (size, size):
        raise ConfigError(f"{name}: expected a {size}x{size} matrix, got shape {arr.shape}")
    return arr


_FIELD_CHECKS = {"int": _require_int, "float": _require_real, "bool": _require_bool}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed JSON document.

    Fields are checked in field order by their annotated type; an absent
    optional key takes the dataclass default.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario document: expected a JSON object")
    unknown = set(doc) - set(_ATTR_TO_KEY.values())
    if unknown:
        raise ConfigError(f"unknown configuration keys {sorted(unknown)}")
    missing = (set(_ATTR_TO_KEY.values()) - _OPTIONAL_KEYS) - set(doc)
    if missing:
        raise ConfigError(f"missing configuration keys {sorted(missing)}")

    s = _require_int(doc["categories"], "categories")
    if s < 1:
        raise ConfigError("categories: must be >= 1")
    centers_doc = doc["centers"]
    if not isinstance(centers_doc, list) or not centers_doc:
        raise ConfigError("centers: expected a nonempty list")
    values: dict[str, Any] = {
        "categories": s,
        "centers": tuple(_center_from_dict(c, i) for i, c in enumerate(centers_doc)),
    }
    if "initial_links" in doc:
        raw_links = doc["initial_links"]
        if not isinstance(raw_links, (list, tuple)):
            raise ConfigError("initial_links: expected a list of [a, b] pairs")
        links = []
        for i, pair in enumerate(raw_links):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"initial_links[{i}]: expected [a, b]")
            links.append((_require_int(pair[0], f"initial_links[{i}][0]"), _require_int(pair[1], f"initial_links[{i}][1]")))
        values["initial_links"] = tuple(links)
    for f in fields(ScenarioConfig):
        key = _ATTR_TO_KEY[f.name]
        if f.name in values or key not in doc:
            continue
        if f.name in ("m", "m_prime"):
            values[f.name] = _matrix(doc[key], key, s)
        else:
            values[f.name] = _FIELD_CHECKS[f.type](doc[key], key)
    return ScenarioConfig(**values)


def validate(config: ScenarioConfig) -> None:
    """Check every invariant; raise ConfigError naming the first violated field."""
    real = [(_ATTR_TO_KEY[f.name], getattr(config, f.name)) for f in fields(config) if f.type in ("float", "np.ndarray")]
    real += [(f"centers[{i}].{name}", getattr(c, name)) for i, c in enumerate(config.centers)
             for name in ("amplitude", "gradient", "job_share", "mix")]
    for name, value in real:
        if not np.isfinite(value).all():
            raise ConfigError(f"{name}: must be finite, got {value!r}")
    # Candidate enumeration holds row and column indices as int16.
    max_side = int(np.iinfo(np.int16).max)
    for name in ("grid_rows", "grid_cols"):
        if not (1 <= getattr(config, name) <= max_side):
            raise ConfigError(f"{name}: must lie in [1, {max_side}]")
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
    for attr, key in _ATTR_TO_KEY.items():
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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"scenario document: not UTF-8 text ({exc})") from None
        except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
            raise ConfigError(f"scenario document: invalid JSON ({exc})") from None
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
