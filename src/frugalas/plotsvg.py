"""Self-contained SVG plots of cost-vs-performance curves.

One line (`<polyline class="curve">`) plus one standard-error ribbon
(`<path class="ribbon">`) per configuration or aggregation group. Horizontal
axis: performance ratio against passive learning; vertical axis: minimum
fraction needed to reach it.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

from .harness import ResultsError, parse_config_id

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
]

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 60, 160, 20, 45

X_MIN, X_MAX = 1.0, 2.0
Y_MIN, Y_MAX = 0.0, 1.0


def _group_key(config: str, aggregate_by: str | None) -> str:
    """The group a summary row's configuration falls in; `harness` decides
    what its id means, and an id it does not know is a ResultsError."""
    if aggregate_by in (None, "none"):
        return config
    if aggregate_by not in ("selection", "to", "dt"):
        raise ValueError(f"unknown aggregation '{aggregate_by}'")
    try:
        flags = parse_config_id(config)
    except ValueError as exc:
        raise ResultsError(f"summary row: {exc}") from None
    if aggregate_by == "selection":
        return flags["selection"]
    label = aggregate_by.upper()
    return f"{label} on" if flags[aggregate_by] else f"{label} off"


def _aggregate(summary_rows: list[dict], aggregate_by: str | None, y_axis: str):
    """Per group and ratio: mean of config means and a combined stderr."""
    mean_field = f"mean_{y_axis}_frac"
    se_field = f"stderr_{y_axis}_frac"
    acc: dict[str, dict[float, list[tuple[float, float]]]] = {}
    for row in summary_rows:
        group = _group_key(row["config"], aggregate_by)
        ratio = float(row["ratio"])
        acc.setdefault(group, {}).setdefault(ratio, []).append(
            (float(row[mean_field]), float(row[se_field]))
        )
    curves = {}
    for group, by_ratio in acc.items():
        points = []
        for ratio in sorted(by_ratio):
            values = by_ratio[ratio]
            mean = sum(v for v, _ in values) / len(values)
            se = math.sqrt(sum(s * s for _, s in values)) / len(values)
            points.append((ratio, mean, se))
        curves[group] = points
    return curves


def _x(ratio: float) -> float:
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    return MARGIN_LEFT + (ratio - X_MIN) / (X_MAX - X_MIN) * span


def _y(frac: float) -> float:
    span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    frac = min(max(frac, Y_MIN), Y_MAX)
    return HEIGHT - MARGIN_BOTTOM - (frac - Y_MIN) / (Y_MAX - Y_MIN) * span


def emit_plot(summary_rows: list[dict], path, aggregate_by: str | None = None,
              y_axis: str = "cost") -> Path:
    """Write an SVG file; raises ValueError when nothing is plottable."""
    if y_axis not in ("cost", "data"):
        raise ValueError(f"unknown y_axis '{y_axis}'")
    curves = _aggregate(summary_rows, aggregate_by, y_axis)
    if not curves:
        raise ValueError("no summary rows to plot")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    # axes
    x0, x1 = _x(X_MIN), _x(X_MAX)
    y0, y1 = _y(Y_MIN), _y(Y_MAX)
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    for k in range(6):
        ratio = X_MIN + k * (X_MAX - X_MIN) / 5
        xx = _x(ratio)
        parts.append(f'<line x1="{xx}" y1="{y0}" x2="{xx}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{xx}" y="{y0 + 20}" font-size="11" text-anchor="middle">'
            f"{ratio:.1f}</text>"
        )
        frac = Y_MIN + k * (Y_MAX - Y_MIN) / 5
        yy = _y(frac)
        parts.append(f'<line x1="{x0 - 5}" y1="{yy}" x2="{x0}" y2="{yy}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 10}" y="{yy + 4}" font-size="11" text-anchor="end">'
            f"{frac:.1f}</text>"
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 8}" font-size="12" '
        'text-anchor="middle">performance ratio vs passive</text>'
    )
    y_label = "min cost fraction" if y_axis == "cost" else "min data fraction"
    parts.append(
        f'<text x="15" y="{(y0 + y1) / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 15 {(y0 + y1) / 2})">{y_label}</text>'
    )

    for k, group in enumerate(sorted(curves)):
        color = PALETTE[k % len(PALETTE)]
        points = curves[group]

        upper = [(r, m + s) for r, m, s in points]
        lower = [(r, m - s) for r, m, s in reversed(points)]
        d = "M " + " L ".join(
            f"{_x(r):.2f} {_y(v):.2f}" for r, v in upper + lower
        ) + " Z"
        parts.append(
            f'<path class="ribbon" d="{d}" fill="{color}" fill-opacity="0.15" '
            'stroke="none"/>'
        )
        poly = " ".join(f"{_x(r):.2f},{_y(m):.2f}" for r, m, _ in points)
        parts.append(
            f'<polyline class="curve" points="{poly}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 16 + 18 * k
        lx = WIDTH - MARGIN_RIGHT + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11">{escape(group)}</text>'
        )

    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path
