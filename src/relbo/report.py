"""Aggregation of run traces into convergence summaries, with CSV tables and
self-contained SVG plots (log-scaled failure probability versus number of
evaluations, median line plus interquartile band per strategy).

The companion CSV is the source of truth: every number drawn in the SVG
appears in it, and re-aggregating the CSV reproduces the curves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harness import read_trace

LOG_FLOOR = 1e-12  # plotted floor for zero/negative values (flagged in CSV)

# Panel ordering for the full-suite figure: GP problems first, then the
# problems with potential for model mismatch, with the problems where the
# proposed strategies are not expected to have an advantage last.
PANEL_ORDER = (
    "gp-2d",
    "gp-8d",
    "gp-16d",
    "branin-2d",
    "six-hump-camel-2d",
    "styblinski-tang-2d",
    "ackley-2d",
    "quadratic-2d",
    "hartmann-6d",
    "hartmann-6d-high",
    "styblinski-tang-10d",
    "styblinski-tang-10d-cropped",
)

_COLORS = {
    "ts_mr": "#1f77b4",
    "kg_mr_discrete": "#ff7f0e",
    "kg_mr_oneshot": "#2ca02c",
    "hc": "#d62728",
    "egra": "#9467bd",
    "ei": "#8c564b",
    "sobol": "#7f7f7f",
}


@dataclass(frozen=True)
class AggregateCurve:
    problem: str
    algorithm: str
    n_grid: np.ndarray
    median: np.ndarray
    lower: np.ndarray  # lower quartile
    upper: np.ndarray  # upper quartile
    n_repeats: int

    def __post_init__(self):
        if not (
            np.all(self.lower <= self.median + 1e-15)
            and np.all(self.median <= self.upper + 1e-15)
        ):
            raise ValueError("quartiles out of order")


def checkpoint_series(trace_path):
    """(n, p_true) checkpoints of one trace, clamped to [0, 1] for display."""
    _, rows = read_trace(trace_path)
    ns, ps = [], []
    for row in rows:
        if row["phase"] == "iter" and row.get("p_true") is not None:
            ns.append(row["n"])
            ps.append(min(max(row["p_true"], 0.0), 1.0))
    return np.asarray(ns, int), np.asarray(ps, float)


def aggregate(series, problem="", algorithm="") -> AggregateCurve:
    """Per-n order statistics across repeats.

    ``series`` is a list of (n_grid, values) pairs sharing the same grid.
    Quartiles use the inclusive linear-interpolation convention.
    """
    if not series:
        raise ValueError("no series to aggregate")
    grid = np.asarray(series[0][0])
    for i, (n, _) in enumerate(series):
        if len(n) != len(grid) or np.any(np.asarray(n) != grid):
            raise ValueError(f"series {i} has a mismatched n grid")
    values = np.vstack([v for _, v in series])
    lower, median, upper = np.quantile(
        values, [0.25, 0.5, 0.75], axis=0, method="linear"
    )
    return AggregateCurve(problem, algorithm, grid, median, lower, upper, len(series))


def aggregate_traces(trace_paths, problem="", algorithm="") -> AggregateCurve:
    return aggregate([checkpoint_series(p) for p in trace_paths], problem, algorithm)


# -- CSV / SVG emission ----------------------------------------------------


def write_curves_csv(curves, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("problem,algorithm,n,median,lower,upper,n_repeats,clamped\n")
        for c in curves:
            for i, n in enumerate(c.n_grid):
                clamped = int(
                    min(c.median[i], c.lower[i], c.upper[i]) < LOG_FLOOR
                )
                fh.write(
                    f"{c.problem},{c.algorithm},{int(n)},"
                    f"{c.median[i]:.17g},{c.lower[i]:.17g},{c.upper[i]:.17g},"
                    f"{c.n_repeats},{clamped}\n"
                )


def _svg_panel(lines, curves, x0, y0, w, h, title):
    """One panel: log-y axes, an IQR band and a median path per curve."""
    all_n = np.concatenate([c.n_grid for c in curves])
    n_min, n_max = int(all_n.min()), int(all_n.max())
    if n_max == n_min:
        n_max = n_min + 1
    vals = np.concatenate([np.concatenate([c.lower, c.upper]) for c in curves])
    vals = np.clip(vals, LOG_FLOOR, 1.0)
    ly_min = np.floor(np.log10(vals.min()))
    ly_max = np.ceil(np.log10(vals.max()))
    if ly_max == ly_min:
        ly_max = ly_min + 1

    def sx(n):
        return x0 + (n - n_min) / (n_max - n_min) * w

    def sy(p):
        lp = np.log10(max(p, LOG_FLOOR))
        return y0 + h - (lp - ly_min) / (ly_max - ly_min) * h

    lines.append(
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" '
        f'stroke="#999" stroke-width="1"/>'
    )
    lines.append(
        f'<text x="{x0 + w / 2:.1f}" y="{y0 - 5}" text-anchor="middle" '
        f'font-size="11">{title}</text>'
    )
    for dec in range(int(ly_min), int(ly_max) + 1):
        y = sy(10.0**dec)
        lines.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x0 + w}" y2="{y:.2f}" '
            f'stroke="#eee" stroke-width="0.5"/>'
        )
        lines.append(
            f'<text x="{x0 - 3}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-size="8">1e{dec}</text>'
        )
    for n in (n_min, (n_min + n_max) // 2, n_max):
        lines.append(
            f'<text x="{sx(n):.1f}" y="{y0 + h + 11}" text-anchor="middle" '
            f'font-size="8">{n}</text>'
        )
    for c in curves:
        color = _COLORS.get(c.algorithm, "#000")
        band = (
            [(sx(n), sy(u)) for n, u in zip(c.n_grid, c.upper)]
            + [(sx(n), sy(l)) for n, l in zip(c.n_grid[::-1], c.lower[::-1])]
        )
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in band)
        lines.append(
            f'<polygon points="{pts}" fill="{color}" fill-opacity="0.2" '
            f'stroke="none"/>'
        )
        path = " ".join(
            f"{sx(n):.2f},{sy(m):.2f}" for n, m in zip(c.n_grid, c.median)
        )
        lines.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )


def emit_plot(curves, svg_path, csv_path=None):
    """Write the convergence figure as standalone SVG plus the companion CSV.

    Panels are one per problem, laid out on a grid of up to four columns in
    the fixed suite order (unknown problems follow, alphabetically)."""
    if not curves:
        raise ValueError("no curves to plot")
    svg_path = Path(svg_path)
    if csv_path is None:
        csv_path = svg_path.with_suffix(".csv")
    write_curves_csv(curves, csv_path)

    by_problem = {}
    for c in curves:
        by_problem.setdefault(c.problem, []).append(c)
    known = [p for p in PANEL_ORDER if p in by_problem]
    extra = sorted(p for p in by_problem if p not in PANEL_ORDER)
    problems = known + extra

    panel_w, panel_h, margin_x, margin_y = 180, 120, 50, 40
    cols = min(4, len(problems))
    rows = (len(problems) + cols - 1) // cols
    width = cols * (panel_w + margin_x) + 20
    height = rows * (panel_h + margin_y) + 40

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for i, prob in enumerate(problems):
        r, col = divmod(i, cols)
        x0 = 20 + margin_x + col * (panel_w + margin_x)
        y0 = 25 + r * (panel_h + margin_y)
        _svg_panel(
            lines,
            sorted(by_problem[prob], key=lambda c: c.algorithm),
            x0,
            y0,
            panel_w,
            panel_h,
            prob,
        )
    algorithms = sorted({c.algorithm for c in curves})
    lx = 25
    for alg in algorithms:
        color = _COLORS.get(alg, "#000")
        lines.append(
            f'<rect x="{lx}" y="{height - 16}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        lines.append(
            f'<text x="{lx + 13}" y="{height - 7}" font-size="9">{alg}</text>'
        )
        lx += 13 + 7 * len(alg) + 15
    lines.append("</svg>")
    svg_path.parent.mkdir(parents=True, exist_ok=True)
    svg_path.write_text("\n".join(lines) + "\n")
    return svg_path, Path(csv_path)


def write_summary(curves, path):
    """Markdown table of final-checkpoint medians per (problem, algorithm)."""
    path = Path(path)
    lines = [
        "# Final recommended-design failure probabilities",
        "",
        "Median (lower quartile, upper quartile) of the true failure",
        "probability of the recommended design at the final evaluation.",
        "",
        "| problem | algorithm | repeats | median | lower | upper |",
        "|---|---|---|---|---|---|",
    ]
    for c in sorted(curves, key=lambda c: (c.problem, c.algorithm)):
        lines.append(
            f"| {c.problem} | {c.algorithm} | {c.n_repeats} "
            f"| {c.median[-1]:.3e} | {c.lower[-1]:.3e} | {c.upper[-1]:.3e} |"
        )
    path.write_text("\n".join(lines) + "\n")
    return path
