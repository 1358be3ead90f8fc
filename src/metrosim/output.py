"""File outputs: CSV tables, the final-state dump, and SVG renderings.

All CSVs are UTF-8, comma-separated, '.' decimal, LF line endings, with fixed
headers; floats are written with repr so reruns are byte-identical and values
round-trip. SVGs are plain SVG 1.1 documents, each drawn only from data that
is also persisted, so every plot can be regenerated offline: the maps from
final_state.json and history.csv, the ellipse plot from replicate_finals.csv
and replicate_summary.csv, the sweep plot from sweep.csv.
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import ScenarioConfig, config_to_dict
from .engine import IndicatorRow, ReplicationStats, SimState
from .governance import DecisionRecord
from .transport import congested_times


def _fmt(value) -> str:
    return repr(float(value))


def _save_csv(path: str | Path, header: list[str], records: Iterable[list]) -> None:
    """The one CSV dialect of every table: UTF-8, LF line endings, header first."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def write_history_csv(path: str | Path, history: tuple[IndicatorRow, ...]) -> None:
    header = ["step", "total_accessibility", "total_travel_time", "link_count"]
    header += [f"mayor_{i}_objective" for i in range(len(history[0].mayor_objectives))]
    _save_csv(path, header, (
        [row.step, _fmt(row.total_accessibility), _fmt(row.total_travel_time), row.link_count]
        + [_fmt(x) for x in row.mayor_objectives]
        for row in history
    ))


def write_decisions_csv(path: str | Path, decisions: tuple[DecisionRecord, ...]) -> None:
    header = ["step", "level", "mayor_id", "chosen_a", "chosen_b", "obj_before", "obj_after", "n_candidates"]
    _save_csv(path, header, (
        [rec.step, rec.level, "" if rec.mayor is None else rec.mayor,
         *(("", "") if rec.chosen is None else rec.chosen),
         _fmt(rec.objective_before), _fmt(rec.objective_after), rec.n_candidates]
        for rec in decisions
    ))


_JSON_BLOCK_ENTRIES = 8192  # matrix entries looked up, joined and written at a time


def _write_json_matrix(f: TextIO, m: np.ndarray) -> None:
    """Write json.dumps(m.tolist()) of a 2-D float array, a block of rows at a time.

    Each distinct value is formatted once, as json.dumps formats it: repr for
    finite values, NaN, Infinity or -Infinity otherwise. Values are told apart
    by bit pattern, so -0.0 and 0.0 each keep their text: the distinct
    patterns come from one sorted copy and an adjacent-difference mask, and
    each block of about _JSON_BLOCK_ENTRIES entries finds its texts by one
    np.searchsorted. np.unique is not used: with return_inverse it allocates
    several int64 arrays of m's size, and the plain call imports numpy.ma the
    first time it runs.
    """
    bits = np.sort(m.view(np.int64), axis=None)
    first = np.empty(bits.shape, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    bits = bits[first]
    values = bits.view(np.float64)
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = json.dumps(float(values[i]))
    rows = max(1, _JSON_BLOCK_ENTRIES // max(1, m.shape[1]))
    f.write("[")
    for start in range(0, m.shape[0], rows):
        block = texts[np.searchsorted(bits, m[start:start + rows].view(np.int64))].tolist()
        f.write((", [" if start else "[") + "], [".join(map(", ".join, block)) + "]")
    f.write("]")


def write_final_state_json(path: str | Path, state: SimState) -> None:
    """Full dump for offline verification: land use, network, times, densities.

    Each link record spells out its length (the cell-centre distance), speed
    and capacity, which the metropolis and the config hold once for all links.
    The text is what json.dumps writes for the whole document, followed by a
    newline. It is streamed into the file one field at a time, and the (N, N)
    travel times a block of rows at a time (_write_json_matrix), so the whole
    text is never held in memory.
    """
    net, metropolis = state.network, state.metropolis
    cfg = metropolis.config
    links = [
        {"from": a, "to": b, "length_km": length, "v_link": cfg.v_link, "capacity": cfg.capacity,
         "flow": flow, "congested_time": time}
        for a, b, length, flow, time in zip(
            net.a.tolist(), net.b.tolist(), metropolis.distance_km[net.a, net.b].tolist(),
            net.flow.tolist(), congested_times(net, metropolis).tolist())
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"config": ' + json.dumps(config_to_dict(cfg)))
        f.write(', "step": ' + json.dumps(len(state.decisions)))
        f.write(', "workers": ' + json.dumps(metropolis.workers.tolist()))
        f.write(', "jobs": ' + json.dumps(metropolis.jobs.tolist()))
        f.write(', "territory": ' + json.dumps(metropolis.territory.tolist()))
        f.write(', "links": ' + json.dumps(links))
        f.write(', "travel_times": ')
        _write_json_matrix(f, state.travel_times)
        f.write(', "worker_density_history": ' + json.dumps([dens.tolist() for dens in state.density_history]))
        f.write("}\n")


def write_replicate_summary_csv(path: str | Path, stats: ReplicationStats) -> None:
    header = [
        "n", "mean_accessibility", "mean_travel_time",
        "cov_acc_acc", "cov_acc_time", "cov_time_time",
        "axis_major", "axis_minor", "angle_rad",
    ]
    _save_csv(path, header, [[
        stats.n, _fmt(stats.mean[0]), _fmt(stats.mean[1]),
        _fmt(stats.covariance[0, 0]), _fmt(stats.covariance[0, 1]), _fmt(stats.covariance[1, 1]),
        _fmt(stats.axis_lengths[0]), _fmt(stats.axis_lengths[1]), _fmt(stats.angle_rad),
    ]])


def write_replicate_finals_csv(path: str | Path, stats: ReplicationStats) -> None:
    """One row per replication, in seed order: the points the ellipse plot draws."""
    _save_csv(path, ["seed", "total_accessibility", "total_travel_time"], (
        [seed, _fmt(acc), _fmt(time)] for seed, (acc, time) in zip(stats.seeds, stats.finals.tolist())
    ))


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    header = ["configuration", "xi", "seed", "total_accessibility", "total_travel_time"]
    _save_csv(path, header, (
        [row["configuration"], _fmt(row["xi"]), row["seed"],
         "" if row["total_accessibility"] is None else _fmt(row["total_accessibility"]),
         "" if row["total_travel_time"] is None else _fmt(row["total_travel_time"])]
        for row in rows
    ))


def write_trend_csv(path: str | Path, trends: dict[str, float]) -> None:
    _save_csv(path, ["configuration", "spearman_xi_accessibility"],
              ([name, _fmt(trends[name])] for name in sorted(trends)))


# ---------------------------------------------------------------------------
# SVG rendering


_TERRITORY_COLORS = ["#666666", "#c03030", "#3060c0", "#c08020", "#7030a0", "#208060"]


def _save_svg(path: str | Path, w: int, h: int, parts: list[str]) -> None:
    """The one SVG document of every plot: header, white background, the parts, end tag."""
    head = (
        f'<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>\n'
    )
    Path(path).write_text(head + "".join(parts) + "</svg>\n", encoding="utf-8")


def render_map_svg(
    path: str | Path,
    config: ScenarioConfig,
    density: np.ndarray,
    territory: np.ndarray,
    links: list[tuple[int, int]],
) -> None:
    """Worker-density map with territory borders and the regional links.

    Each cell is shaded by its share of the peak density, white to green,
    with its level rounded half to even; a border is drawn right of and below
    each cell whose neighbour there belongs to another mayor, in that cell's
    colour.
    """
    px = 36
    rows, cols = config.grid_rows, config.grid_cols
    w, h = cols * px + 20, rows * px + 20
    peak = float(np.max(density)) if density.size else 0.0
    share = np.minimum(density / peak, 1.0) if peak > 0 else np.zeros(density.shape)
    levels = np.rint(255 - 195 * share).astype(int).tolist()
    xs = [10 + c * px for c in range(cols)] * rows
    ys = [10 + r * px for r in range(rows) for _ in range(cols)]
    parts = [
        f'<rect x="{x}" y="{y}" width="{px}" height="{px}" '
        f'fill="rgb({level},255,{level})" stroke="#dddddd" stroke-width="0.5"/>\n'
        for x, y, level in zip(xs, ys, levels)
    ]
    # Borders between cells assigned to different mayors: the right border,
    # then the bottom one, of each cell in turn.
    grid = territory.reshape(rows, cols)
    borders = np.zeros((rows, cols, 2), dtype=bool)
    np.not_equal(grid[:, :-1], grid[:, 1:], out=borders[:, :-1, 0])
    np.not_equal(grid[:-1], grid[1:], out=borders[:-1, :, 1])
    for k in np.flatnonzero(borders).tolist():
        cell, below = divmod(k, 2)
        x, y = xs[cell], ys[cell]
        color = _TERRITORY_COLORS[int(grid.flat[cell]) % len(_TERRITORY_COLORS)]
        x1, y1 = (x, y + px) if below else (x + px, y)
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x + px}" y2="{y + px}" stroke="{color}" stroke-width="2"/>\n')
    for a, b in links:
        ra, ca = divmod(a, cols)
        rb, cb = divmod(b, cols)
        x1, y1 = 10 + (ca + 0.5) * px, 10 + (ra + 0.5) * px
        x2, y2 = 10 + (cb + 0.5) * px, 10 + (rb + 0.5) * px
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="#202020" stroke-width="3"/>\n')
    for i, center in enumerate(config.centers):
        r, c = center.position
        x, y = 10 + (c + 0.5) * px, 10 + (r + 0.5) * px
        color = _TERRITORY_COLORS[i % len(_TERRITORY_COLORS)]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="{color}" stroke="black"/>\n')
    _save_svg(path, w, h, parts)


def _padded(values: list[float]) -> tuple[float, float]:
    """An axis range over the values, padded by 8% of their span, or 5% of their size if they coincide."""
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.08 or max(abs(hi), 1.0) * 0.05
    return lo - pad, hi + pad


def _frame(parts: list[str], x0: float, y0: float, x1: float, y1: float,
           xlabel: str, ylabel: str, xrange: tuple[float, float], yrange: tuple[float, float]):
    """Draw the plot frame, axis labels and range ends; return the data-to-pixel maps (sx, sy)."""
    parts.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="none" stroke="black"/>\n')
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{y1 + 32:.1f}" font-size="12" text-anchor="middle">{xlabel}</text>\n')
    parts.append(
        f'<text x="{x0 - 48:.1f}" y="{(y0 + y1) / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 {x0 - 48:.1f} {(y0 + y1) / 2:.1f})">{ylabel}</text>\n'
    )
    parts.append(f'<text x="{x0}" y="{y1 + 16:.1f}" font-size="10" text-anchor="middle">{xrange[0]:.4g}</text>\n')
    parts.append(f'<text x="{x1}" y="{y1 + 16:.1f}" font-size="10" text-anchor="middle">{xrange[1]:.4g}</text>\n')
    parts.append(f'<text x="{x0 - 4:.1f}" y="{y1}" font-size="10" text-anchor="end">{yrange[0]:.4g}</text>\n')
    parts.append(f'<text x="{x0 - 4:.1f}" y="{y0 + 10:.1f}" font-size="10" text-anchor="end">{yrange[1]:.4g}</text>\n')

    def sx(x: float) -> float:
        return x0 + (x - xrange[0]) / (xrange[1] - xrange[0]) * (x1 - x0)

    def sy(y: float) -> float:
        return y1 - (y - yrange[0]) / (yrange[1] - yrange[0]) * (y1 - y0)

    return sx, sy


def render_ellipse_svg(path: str | Path, stats: ReplicationStats) -> None:
    """Replicates, their mean and the 1-sigma ellipse (a 64-gon in data coordinates), on axes padded over all."""
    w, h = 480, 360
    x0, y0, x1, y1 = 70, 20, w - 20, h - 50
    cx, cy = stats.mean.tolist()
    a, b = stats.axis_lengths.tolist()
    cos, sin = math.cos(stats.angle_rad), math.sin(stats.angle_rad)
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    u, v = a * np.cos(t), b * np.sin(t)
    ex, ey = cx + u * cos - v * sin, cy + u * sin + v * cos
    finals = stats.finals.tolist()
    xrange = _padded([x for x, _ in finals] + ex.tolist())
    yrange = _padded([y for _, y in finals] + ey.tolist())

    parts = []
    sx, sy = _frame(parts, x0, y0, x1, y1, "total accessibility", "total travel time (h)", xrange, yrange)
    for ax, ay in finals:
        parts.append(f'<circle cx="{sx(ax):.2f}" cy="{sy(ay):.2f}" r="2" fill="#9090d0"/>\n')
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(ex.tolist(), ey.tolist()))
    parts.append(f'<polygon points="{points}" fill="none" stroke="#c03030" stroke-width="1.5"/>\n')
    parts.append(f'<circle cx="{sx(cx):.2f}" cy="{sy(cy):.2f}" r="3.5" fill="#c03030"/>\n')
    _save_svg(path, w, h, parts)


def render_sweep_svg(path: str | Path, curves: dict[str, tuple[list[float], list[float]]]) -> None:
    """Mean final accessibility against the local-decision share, one curve per configuration."""
    w, h = 520, 380
    x0, y0, x1, y1 = 80, 20, w - 150, h - 50
    all_y = [y for _, ys in curves.values() for y in ys]
    parts = []
    sx, sy = _frame(parts, x0, y0, x1, y1, "share of local decisions", "mean total accessibility",
                    (0.0, 1.0), _padded(all_y or [0.0, 1.0]))
    for i, name in enumerate(sorted(curves)):
        xs, ys = curves[name]
        color = _TERRITORY_COLORS[i % len(_TERRITORY_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>\n')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>\n')
        ly = y0 + 16 + i * 16
        parts.append(f'<line x1="{x1 + 10}" y1="{ly - 4}" x2="{x1 + 30}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>\n')
        parts.append(f'<text x="{x1 + 34}" y="{ly}" font-size="11">{name}</text>\n')
    _save_svg(path, w, h, parts)
