"""Batch front door: single runs, replication batches, and the xi sensitivity sweep.

Exit codes: 0 success, 2 invalid configuration (the message names the field),
3 I/O failure. Batch inputs are checked before any run: `engine.replicate`
checks the replication count, and a `SweepSpec` checks itself when built.
Sweep cells that crash are recorded as empty rows and make the command exit
nonzero without aborting the rest of the grid. A sweep runs each preset as one
task whose xi x seed lanes share one engine memo, a dict.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import engine, output
from .config import ConfigError, ScenarioConfig, load_config

DEFAULT_XI_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SweepSpec:
    """One sensitivity experiment: xi grid x named scenario configurations; checks itself when built."""

    configurations: dict[str, ScenarioConfig]
    xi_values: tuple[float, ...]
    replications: int
    base_seed: int
    out_dir: Path
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.configurations:
            raise ConfigError("configurations: must be nonempty")
        if not self.xi_values:
            raise ConfigError("xi: must be nonempty")
        seen = set()
        for x in self.xi_values:
            if not (0.0 <= x <= 1.0):
                raise ConfigError(f"xi: value {x} outside [0, 1]")
            if x in seen:
                raise ConfigError(f"xi: duplicate value {x}")
            seen.add(x)
        if self.replications < 1:
            raise ConfigError("replications: must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")


def _scaled_position(config: ScenarioConfig, row_frac: float, col_frac: float) -> tuple[int, int]:
    return (
        min(int(round(config.grid_rows * row_frac)), config.grid_rows - 1),
        min(int(round(config.grid_cols * col_frac)), config.grid_cols - 1),
    )


def sweep_configurations(base: ScenarioConfig) -> dict[str, ScenarioConfig]:
    """Four initial configurations: equal vs. unequal city weights x two spacings.

    The unequal variants keep the base amplitudes and job shares; the equal
    variants average them. Positions are placed on the grid diagonal, the
    second (dominant) centre toward the top-left.
    """
    if len(base.centers) != 2:
        raise ConfigError("centers: the built-in sweep configurations need exactly 2 centers")
    far = (_scaled_position(base, 0.8, 0.8), _scaled_position(base, 0.1, 0.1))
    near = (_scaled_position(base, 0.7, 0.7), _scaled_position(base, 0.2, 0.2))
    mean_amplitude = sum(c.amplitude for c in base.centers) / 2.0
    mean_share = sum(c.job_share for c in base.centers) / 2.0

    def variant(positions: tuple[tuple[int, int], tuple[int, int]], equal: bool) -> ScenarioConfig:
        centers = []
        for center, position in zip(base.centers, positions):
            if equal:
                center = replace(center, amplitude=mean_amplitude, job_share=mean_share)
            centers.append(replace(center, position=position))
        return replace(base, centers=tuple(centers))

    return {
        "equal_near": variant(near, equal=True),
        "equal_far": variant(far, equal=True),
        "unequal_near": variant(near, equal=False),
        "unequal_far": variant(far, equal=False),
    }


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.steps is not None:
        config = replace(config, steps=args.steps)
    if args.disable_landuse:
        config = replace(config, landuse_enabled=False)
    if args.congested_eval:
        config = replace(config, congestion_in_evaluation=True)
    return config


def cmd_run(config: ScenarioConfig, seed: int, out_dir: Path) -> int:
    state = engine.run(config, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    output.write_history_csv(out_dir / "history.csv", state.history)
    output.write_decisions_csv(out_dir / "decisions.csv", state.decisions)
    output.write_final_state_json(out_dir / "final_state.json", state)
    # Links are stored in build order, so step k's network is the first link_count links.
    a, b = state.network.a.tolist(), state.network.b.tolist()
    for k, row in enumerate(state.history):
        output.render_map_svg(out_dir / f"map_step_{k}.svg", config, state.density_history[k],
                              state.metropolis.territory, list(zip(a[: row.link_count], b[: row.link_count])))
    return 0


def cmd_replicate(config: ScenarioConfig, n: int, base_seed: int, out_dir: Path) -> int:
    stats = engine.replicate(config, n, base_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    output.write_replicate_summary_csv(out_dir / "replicate_summary.csv", stats)
    output.write_replicate_finals_csv(out_dir / "replicate_finals.csv", stats)
    output.render_ellipse_svg(out_dir / "ellipse.svg", stats)
    return 0


def _sweep_preset(name: str, xis: tuple[float, ...], seeds: list[int], config: ScenarioConfig) -> list[dict]:
    """Rows of every xi x seed lane of one preset; the lanes share one engine memo."""
    memo = {}
    rows = []
    for xi in xis:
        lane = replace(config, xi=xi)
        for seed in seeds:
            row = {"configuration": name, "xi": xi, "seed": seed,
                   "total_accessibility": None, "total_travel_time": None, "error": None}
            try:
                state = engine.run(lane, seed, memo=memo)
                last = state.history[-1]
                row["total_accessibility"] = last.total_accessibility
                row["total_travel_time"] = last.total_travel_time
            except Exception as exc:  # recorded per row, the sweep continues
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return rows


def spearman_trend(xis: list[float], means: list[float]) -> float:
    """Rank correlation between xi and mean accessibility; 0 for a flat profile.

    Profiles whose means vary by less than one part per million are reported
    as flat: ranking differences at that scale would only order floating-point
    noise from path-dependent flow averaging, not a governance effect.
    """
    if len(set(xis)) < 2 or len(set(means)) < 2:
        return 0.0
    scale = max(abs(m) for m in means)
    if scale > 0 and (max(means) - min(means)) / scale < 1e-6:
        return 0.0
    ranked = np.column_stack((_average_ranks(xis), _average_ranks(means)))
    # The (n, 2) layout is the one scipy.stats.spearmanr correlates, so the
    # result agrees with it to the last bit; corrcoef(rx, ry) does not.
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _average_ranks(values: list[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    sorted_v = v[order]
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def cmd_sweep(spec: SweepSpec) -> int:
    seeds = [spec.base_seed + i for i in range(spec.replications)]
    names = sorted(spec.configurations)
    xi_values = tuple(sorted(spec.xi_values))
    tasks = [(name, xi_values, seeds, spec.configurations[name]) for name in names]
    workers = min(spec.workers, len(tasks))
    if workers > 1:
        # Imported here, so that no other command loads multiprocessing. The
        # pool starts all of its workers at the first submit.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_preset = list(pool.map(_sweep_preset, *zip(*tasks)))
    else:
        per_preset = [_sweep_preset(*task) for task in tasks]
    # Presets, xi values and seeds all run in ascending order, so the rows do too.
    rows = [row for preset_rows in per_preset for row in preset_rows]

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    output.write_sweep_csv(spec.out_dir / "sweep.csv", rows)

    curves: dict[str, tuple[list[float], list[float]]] = {}
    trends: dict[str, float] = {}
    for name, preset_rows in zip(names, per_preset):
        xis, means = [], []
        for xi, lane_rows in groupby(preset_rows, key=lambda r: r["xi"]):
            values = [r["total_accessibility"] for r in lane_rows if r["total_accessibility"] is not None]
            if values:
                xis.append(xi)
                means.append(float(np.mean(values)))
        curves[name] = (xis, means)
        trends[name] = spearman_trend(xis, means)
    output.write_trend_csv(spec.out_dir / "trend.csv", trends)
    output.render_sweep_svg(spec.out_dir / "sweep.svg", curves)

    failures = [r for r in rows if r["error"] is not None]
    for r in failures:
        print(f"sweep cell failed: {r['configuration']} xi={r['xi']} seed={r['seed']}: {r['error']}",
              file=sys.stderr)
    return 1 if failures else 0


def _parse_xi_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(f"xi: could not parse list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metrosim",
        description="Two-city metropolis simulator: transport network growth under multi-level governance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--steps", type=int, default=None, help="override the number of steps")
        p.add_argument("--disable-landuse", action="store_true", help="freeze land use for the whole run")
        p.add_argument("--congested-eval", action="store_true",
                       help="evaluate candidate links on congested instead of free-flow times")
        p.add_argument("-v", "--log-level", type=str.upper, default="WARNING",
                       choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       help="stderr log level (default WARNING); DEBUG logs each decision's search")

    p_run = sub.add_parser("run", help="one simulation run")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser("replicate", help="replication batch with variation ellipse")
    add_common(p_rep)
    p_rep.add_argument("--replications", type=int, default=30)
    p_rep.add_argument("--base-seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="xi grid x initial configurations")
    add_common(p_sweep)
    p_sweep.add_argument("--xi", default=",".join(str(x) for x in DEFAULT_XI_GRID),
                         help="comma-separated xi values in [0, 1]")
    p_sweep.add_argument("--replications", type=int, default=30)
    p_sweep.add_argument("--base-seed", type=int, default=0)
    p_sweep.add_argument("--configurations", default=None,
                         help="comma-separated subset of equal_near,equal_far,unequal_near,unequal_far")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel sweep workers, one process per preset; no more start than there "
                              "are presets")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            return cmd_run(config, args.seed, Path(args.out))
        if args.command == "replicate":
            return cmd_replicate(config, args.replications, args.base_seed, Path(args.out))
        configurations = sweep_configurations(config)
        if args.configurations:
            wanted = [name.strip() for name in args.configurations.split(",")]
            unknown = [name for name in wanted if name not in configurations]
            if unknown:
                raise ConfigError(f"configurations: unknown names {unknown}")
            configurations = {name: configurations[name] for name in wanted}
        spec = SweepSpec(
            configurations=configurations,
            xi_values=_parse_xi_list(args.xi),
            replications=args.replications,
            base_seed=args.base_seed,
            out_dir=Path(args.out),
            workers=args.workers,
        )
        return cmd_sweep(spec)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
