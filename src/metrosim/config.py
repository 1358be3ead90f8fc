"""Scenario configuration: grid geometry, density centres, behavioural parameters.

A scenario is a flat JSON document with a fixed key set; unknown keys are
rejected so typos in sweep scripts fail loudly instead of silently running
defaults. Whether built from JSON or in Python, a ScenarioConfig checks each
field by its type and then its range when constructed.
"""
from __future__ import annotations

import json
import math
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
    """All exogenous parameters of one simulation scenario.

    The constructor checks each field by its annotation, stores it as a Python
    int or float, a tuple or a read-only float matrix, then applies `validate`.
    """

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
        for attr, key, check in _FIELD_TYPES:
            object.__setattr__(self, attr, check(getattr(self, attr), key))
        validate(self)

    @property
    def n_cells(self) -> int:
        return self.grid_rows * self.grid_cols


def _require_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _require_real(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{name}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    return value


def _require_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: expected a boolean, got {value!r}")
    return value


def _require_pair(value: Any, name: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name}: expected a pair of integers, got {value!r}")
    return (_require_int(value[0], f"{name}[0]"), _require_int(value[1], f"{name}[1]"))


def _matrix(value: Any, name: str) -> np.ndarray:
    """A read-only float copy; validate checks its shape and finiteness."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: not a numeric matrix ({exc})") from None
    arr.flags.writeable = False
    return arr


def _centers(value: Any, name: str) -> tuple[CenterSpec, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name}: expected a nonempty sequence of centres, got {value!r}")
    centers = []
    for i, c in enumerate(value):
        at = f"{name}[{i}]"
        if not isinstance(c, CenterSpec):
            raise ConfigError(f"{at}: expected a CenterSpec, got {c!r}")
        if not isinstance(c.mix, (list, tuple)):
            raise ConfigError(f"{at}.mix: expected a list of numbers, got {c.mix!r}")
        centers.append(CenterSpec(
            position=_require_pair(c.position, f"{at}.position"),
            amplitude=_require_real(c.amplitude, f"{at}.amplitude"),
            gradient=_require_real(c.gradient, f"{at}.gradient"),
            job_share=_require_real(c.job_share, f"{at}.job_share"),
            mix=tuple(_require_real(x, f"{at}.mix") for x in c.mix),
        ))
    return tuple(centers)


def _links(value: Any, name: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name}: expected a list of [a, b] pairs, got {value!r}")
    return tuple(_require_pair(pair, f"{name}[{i}]") for i, pair in enumerate(value))


# Attribute name -> JSON key, in field order. "lambda" is a Python keyword,
# hence the rename.
_ATTR_TO_KEY = {f.name: ("lambda" if f.name == "lam" else f.name) for f in fields(ScenarioConfig)}
_KEY_TO_ATTR = {key: attr for attr, key in _ATTR_TO_KEY.items()}
_OPTIONAL_KEYS = {_ATTR_TO_KEY[f.name] for f in fields(ScenarioConfig) if f.default is not MISSING}
_CENTER_KEYS = {f.name for f in fields(CenterSpec)}
_CHECK_BY_ANNOTATION = {
    "int": _require_int,
    "float": _require_real,
    "bool": _require_bool,
    "np.ndarray": _matrix,
    "tuple[CenterSpec, ...]": _centers,
    "tuple[tuple[int, int], ...]": _links,
}
# (attribute, JSON key, check), in field order: categories precedes m and m_prime.
_FIELD_TYPES = tuple((f.name, _ATTR_TO_KEY[f.name], _CHECK_BY_ANNOTATION[f.type]) for f in fields(ScenarioConfig))


def _require_keys(doc: Any, keys: set[str], optional: set[str], name: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected a JSON object")
    unknown = set(doc) - keys
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    missing = keys - optional - set(doc)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document.

    Checks only the document's shape: an object with exactly the scenario
    keys, whose `centers` is a list of objects with exactly the centre keys.
    An absent optional key takes the dataclass default. Every value goes to
    the constructor as it is, which checks its type and range.
    """
    _require_keys(doc, set(_KEY_TO_ATTR), _OPTIONAL_KEYS, "scenario document")
    centers = doc["centers"]
    if not isinstance(centers, list):
        raise ConfigError(f"centers: expected a list, got {centers!r}")
    for i, center in enumerate(centers):
        _require_keys(center, _CENTER_KEYS, set(), f"centers[{i}]")
    values = {_KEY_TO_ATTR[key]: value for key, value in doc.items()}
    return ScenarioConfig(**values | {"centers": [CenterSpec(**center) for center in centers]})


def validate(config: ScenarioConfig) -> None:
    """Range rules on type-checked fields; raise ConfigError naming the first violated one."""
    # Candidate enumeration keys a cell pair (a, b) as a * N + b in int64;
    # sides up to the int16 maximum keep N**2 below 2**63.
    max_side = int(np.iinfo(np.int16).max)
    for name in ("grid_rows", "grid_cols"):
        if not (1 <= getattr(config, name) <= max_side):
            raise ConfigError(f"{name}: must lie in [1, {max_side}]")
    if config.cell_size_km <= 0:
        raise ConfigError("cell_size_km: must be > 0")
    if config.categories < 1:
        raise ConfigError("categories: must be >= 1")
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
    for name in ("m", "m_prime"):
        value = getattr(config, name)
        if value.shape != (s, s):
            raise ConfigError(f"{name}: expected a {s}x{s} matrix, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise ConfigError(f"{name}: must be finite, got {value!r}")
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


def _plain(value: Any) -> Any:
    """A field value as JSON holds it, by type: a CenterSpec becomes an object
    in field order, a tuple a list, an array nested lists."""
    if isinstance(value, CenterSpec):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(CenterSpec)}
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def config_to_dict(config: ScenarioConfig) -> dict:
    """Inverse of config_from_dict; the result round-trips through JSON."""
    return {key: _plain(getattr(config, attr)) for attr, key in _ATTR_TO_KEY.items()}


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
