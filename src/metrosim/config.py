"""Scenario configuration: grid geometry, density centres, behavioural parameters.

A scenario is a flat JSON document with a fixed key set; unknown keys are
rejected so typos in sweep scripts fail loudly instead of silently running
defaults. Whether built from JSON or in Python, a ScenarioConfig checks each
field by its declared type and range, then the rules that relate fields.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Malformed scenario document; the message names the offending field."""


def _ranged(op: str, lo: float, hi: float = math.inf, **kwargs: Any) -> Any:
    """A field whose value, or each entry of it, is > lo, >= lo or "in" [lo, hi]."""
    return field(metadata={"range": (op, lo, hi)}, **kwargs)


# Candidate enumeration keys a cell pair (a, b) as a * N + b in int64; sides
# up to the int16 maximum keep N**2 below 2**63.
_MAX_SIDE = int(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class CenterSpec:
    """One density centre of the stylised metropolis."""

    position: tuple[int, int]                  # (row, col), inside the grid
    amplitude: float = _ranged(">", 0)         # peak workers per cell at the centre
    gradient: float = _ranged(">", 0)          # exponential density decay, 1/km
    job_share: float = _ranged(">=", 0)        # relative share of metropolitan jobs
    mix: tuple[float, ...] = _ranged(">=", 0)  # workforce composition over categories, sums to 1


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """All exogenous parameters of one simulation scenario.

    The constructor checks each field by its annotation and then its range
    (`_ranged`), stores it as a Python int or float, a tuple or a read-only
    float matrix, and then checks the rules that relate fields.
    """

    grid_rows: int = _ranged("in", 1, _MAX_SIDE)
    grid_cols: int = _ranged("in", 1, _MAX_SIDE)
    cell_size_km: float = _ranged(">", 0)
    categories: int = _ranged(">=", 1)
    centers: tuple[CenterSpec, ...]
    lam: float = _ranged(">=", 0)        # trip-distribution distance aversion ("lambda" in JSON)
    nu: float = _ranged(">=", 0)         # accessibility decay with travel time
    gamma: float = _ranged("in", 0, 1)   # utility weight on accessibility vs. urban form
    mu: float = _ranged(">=", 0)         # relocation choice sensitivity
    xi: float = _ranged("in", 0, 1)      # share of infrastructure decisions taken locally
    m: np.ndarray                        # category-to-category proximity preferences, S x S
    m_prime: np.ndarray                  # cross-side (workers vs. jobs) proximity, S x S
    relocation_fraction: float = _ranged("in", 0, 1)
    landuse_enabled: bool
    steps: int = _ranged(">=", 0)        # infrastructures to build; 0 runs the initial snapshot alone
    v_local: float = _ranged(">", 0)     # local-road speed, km/h (as-the-crow-flies travel)
    v_link: float = _ranged(">", 0)      # regional-link speed, km/h
    capacity: float = _ranged(">", 0)    # regional-link capacity, vehicles per step
    bpr_alpha: float = _ranged(">=", 0)
    bpr_beta: float = _ranged(">=", 0)
    furness_tolerance: float = _ranged(">", 0)
    furness_max_iter: int = _ranged(">=", 1)
    assignment_iterations: int = _ranged(">=", 1)
    network_extension_radius: int = _ranged(">=", 1, default=3)
    congestion_in_evaluation: bool = False
    initial_links: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for attr, value in _checked(self, _SCENARIO_FIELDS).items():
            object.__setattr__(self, attr, value)
        s = self.categories
        for i, c in enumerate(self.centers):
            if not (0 <= c.position[0] < self.grid_rows and 0 <= c.position[1] < self.grid_cols):
                raise ConfigError(f"centers[{i}].position: {c.position} outside the grid")
            if len(c.mix) != s:
                raise ConfigError(f"centers[{i}].mix: expected {s} entries")
            if abs(sum(c.mix) - 1.0) > 1e-9:
                raise ConfigError(f"centers[{i}].mix: must sum to 1, got {sum(c.mix)}")
        for name in ("m", "m_prime"):
            value = getattr(self, name)
            if value.shape != (s, s):
                raise ConfigError(f"{name}: expected a {s}x{s} matrix, got shape {value.shape}")
            if not np.isfinite(value).all():
                raise ConfigError(f"{name}: must be finite, got {value!r}")
        n = self.n_cells
        seen = set()
        for i, (a, b) in enumerate(self.initial_links):
            if a == b:
                raise ConfigError(f"initial_links[{i}]: endpoints must differ")
            if not (0 <= a < n and 0 <= b < n):
                raise ConfigError(f"initial_links[{i}]: cell index outside the grid")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ConfigError(f"initial_links[{i}]: duplicate pair {key}")
            seen.add(key)

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


def _reals(value: Any, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name}: expected a list of numbers, got {value!r}")
    return tuple(_require_real(x, name) for x in value)


def _matrix(value: Any, name: str) -> np.ndarray:
    """A read-only float copy; the constructor then checks its shape and finiteness."""
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
        if not isinstance(c, CenterSpec):
            raise ConfigError(f"{name}[{i}]: expected a CenterSpec, got {c!r}")
        centers.append(CenterSpec(**_checked(c, _CENTER_FIELDS, f"{name}[{i}].")))
    return tuple(centers)


def _links(value: Any, name: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name}: expected a list of [a, b] pairs, got {value!r}")
    return tuple(_require_pair(pair, f"{name}[{i}]") for i, pair in enumerate(value))


def _checked(obj: Any, table: tuple, prefix: str = "") -> dict[str, Any]:
    """obj's fields by table, each checked by its type and then its range:
    {attribute: value as stored}. An error names prefix + the field's key."""
    values = {}
    for attr, key, check, rule in table:
        name = prefix + key
        value = values[attr] = check(getattr(obj, attr), name)
        if rule is None:
            continue
        op, lo, hi = rule
        entries = value if isinstance(value, tuple) else (value,)
        for x in entries:
            if not (lo < x if op == ">" else lo <= x <= hi):
                bound = f"lie in [{lo}, {hi}]" if op == "in" else f"be {op} {lo}"
                raise ConfigError(f"{name}: {'entries ' if entries is value else ''}must {bound}")
    return values


# "lambda" is a Python keyword, hence the one attribute whose JSON key differs.
_ATTR_TO_KEY = {"lam": "lambda"}
_CHECK_BY_ANNOTATION = {
    "int": _require_int,
    "float": _require_real,
    "bool": _require_bool,
    "tuple[int, int]": _require_pair,
    "tuple[float, ...]": _reals,
    "np.ndarray": _matrix,
    "tuple[CenterSpec, ...]": _centers,
    "tuple[tuple[int, int], ...]": _links,
}


def _field_table(cls: type) -> tuple:
    """(attribute, JSON key, type check, declared range or None) per field of cls, in field order."""
    return tuple((f.name, _ATTR_TO_KEY.get(f.name, f.name), _CHECK_BY_ANNOTATION[f.type], f.metadata.get("range"))
                 for f in fields(cls))


_CENTER_FIELDS = _field_table(CenterSpec)
# In field order, so grid_rows, grid_cols and categories are checked before the centres.
_SCENARIO_FIELDS = _field_table(ScenarioConfig)
_KEY_TO_ATTR = {key: attr for attr, key, _, _ in _SCENARIO_FIELDS}
_OPTIONAL_KEYS = {_ATTR_TO_KEY.get(f.name, f.name) for f in fields(ScenarioConfig) if f.default is not MISSING}
_CENTER_KEYS = {f.name for f in fields(CenterSpec)}


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
    return {key: _plain(getattr(config, attr)) for attr, key, _, _ in _SCENARIO_FIELDS}


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
