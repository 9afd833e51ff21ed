"""Hand-rolled SVG charts for the survey-site export.

The environment has no plotting stack, but the paper's public survey
site serves figures; this module writes small, dependency-free SVG
line and bar charts good enough for a static site: axes, ticks,
multiple series with a legend, and NaN-gap handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Categorical palette (colorblind-safe Okabe–Ito subset).
PALETTE = (
    "#0072B2", "#D55E00", "#009E73", "#CC79A7",
    "#E69F00", "#56B4E9", "#000000",
)


@dataclass
class ChartStyle:
    """Geometry and typography of a chart."""

    width: int = 640
    height: int = 360
    margin_left: int = 60
    margin_right: int = 20
    margin_top: int = 36
    margin_bottom: int = 48
    font_family: str = "sans-serif"
    font_size: int = 12
    grid_color: str = "#dddddd"
    axis_color: str = "#444444"
    ticks: int = 5

    @property
    def plot_width(self) -> int:
        """Width of the plotting area inside the margins."""
        return self.width - self.margin_left - self.margin_right

    @property
    def plot_height(self) -> int:
        """Height of the plotting area inside the margins."""
        return self.height - self.margin_top - self.margin_bottom


def _nice_ticks(low: float, high: float, count: int) -> List[float]:
    """Round tick positions covering [low, high]."""
    if high <= low:
        high = low + 1.0
    raw_step = (high - low) / max(count, 1)
    magnitude = 10 ** np.floor(np.log10(raw_step))
    for multiplier in (1, 2, 2.5, 5, 10):
        step = multiplier * magnitude
        if step >= raw_step:
            break
    start = np.floor(low / step) * step
    ticks = []
    value = start
    while value <= high + step * 0.5:
        ticks.append(float(value))
        value += step
    return ticks


class _SVGBuilder:
    def __init__(self, style: ChartStyle, title: str):
        self.style = style
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{style.width}" height="{style.height}" '
            f'viewBox="0 0 {style.width} {style.height}">',
            f'<rect width="{style.width}" height="{style.height}" '
            f'fill="white"/>',
        ]
        if title:
            self.text(
                style.width / 2, style.margin_top / 2 + 4, title,
                anchor="middle", size=style.font_size + 2, bold=True,
            )

    def text(self, x, y, content, anchor="start", size=None,
             bold=False, color="#222222"):
        size = size or self.style.font_size
        weight = ' font-weight="bold"' if bold else ""
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
            f'font-family="{self.style.font_family}" '
            f'font-size="{size}" fill="{color}"{weight}>'
            f"{escape(str(content), quote=False)}</text>"
        )

    def line(self, x1, y1, x2, y2, color, width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def polyline(self, points: Sequence[Tuple[float, float]],
                 color: str, width: float = 1.8):
        if len(points) < 2:
            return
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def rect(self, x, y, w, h, color):
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{h:.1f}" fill="{color}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _axes(builder: _SVGBuilder, style: ChartStyle,
          x_low, x_high, y_low, y_high,
          x_label: str, y_label: str):
    """Draw grid, ticks and labels; return coordinate mappers."""
    x0, y0 = style.margin_left, style.margin_top
    pw, ph = style.plot_width, style.plot_height

    def map_x(value):
        return x0 + (value - x_low) / (x_high - x_low) * pw

    def map_y(value):
        return y0 + ph - (value - y_low) / (y_high - y_low) * ph

    for tick in _nice_ticks(y_low, y_high, style.ticks):
        if not y_low <= tick <= y_high:
            continue
        y = map_y(tick)
        builder.line(x0, y, x0 + pw, y, style.grid_color)
        builder.text(x0 - 6, y + 4, f"{tick:g}", anchor="end")
    for tick in _nice_ticks(x_low, x_high, style.ticks):
        if not x_low <= tick <= x_high:
            continue
        x = map_x(tick)
        builder.line(x, y0 + ph, x, y0 + ph + 4, style.axis_color)
        builder.text(x, y0 + ph + 16, f"{tick:g}", anchor="middle")
    builder.line(x0, y0, x0, y0 + ph, style.axis_color, 1.2)
    builder.line(x0, y0 + ph, x0 + pw, y0 + ph, style.axis_color, 1.2)
    if x_label:
        builder.text(
            x0 + pw / 2, style.height - 10, x_label, anchor="middle"
        )
    if y_label:
        builder.parts.append(
            f'<text x="14" y="{y0 + ph / 2:.1f}" '
            f'text-anchor="middle" font-family="{style.font_family}" '
            f'font-size="{style.font_size}" fill="#222222" '
            f'transform="rotate(-90 14 {y0 + ph / 2:.1f})">'
            f"{escape(y_label, quote=False)}</text>"
        )
    return map_x, map_y


def _empty_chart_svg(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    style: ChartStyle,
) -> str:
    """Placeholder chart for series with no finite values."""
    builder = _SVGBuilder(style, title)
    _axes(builder, style, 0.0, 1.0, 0.0, 1.0, x_label, y_label)
    builder.text(
        style.margin_left + style.plot_width / 2,
        style.margin_top + style.plot_height / 2,
        "no valid data",
        anchor="middle",
        size=style.font_size + 2,
        color="#999999",
    )
    for index, label in enumerate(series):
        legend_y = style.margin_top + 14 * index + 6
        legend_x = style.width - style.margin_right - 130
        builder.text(legend_x + 24, legend_y, label)
    return builder.render()


def line_chart_svg(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    style: Optional[ChartStyle] = None,
) -> str:
    """Multi-series line chart; NaN y-values break the line.

    ``series`` maps label → (x values, y values).  Series whose
    values are entirely NaN (or empty) still render: the chart shows
    axes and a "no valid data" note instead of raising, so a survey
    page for a degraded AS is never un-renderable.  An empty series
    *dict* or an x/y length mismatch is still a caller bug and
    raises ``ValueError``.
    """
    if not series:
        raise ValueError("no series to plot")
    style = style or ChartStyle()

    xs_all, ys_all = [], []
    for x_values, y_values in series.values():
        x_arr = np.asarray(x_values, dtype=np.float64)
        y_arr = np.asarray(y_values, dtype=np.float64)
        if x_arr.shape != y_arr.shape:
            raise ValueError("x/y length mismatch")
        mask = ~np.isnan(y_arr)
        xs_all.append(x_arr[mask])
        ys_all.append(y_arr[mask])
    xs = np.concatenate(xs_all)
    ys = np.concatenate(ys_all)
    if xs.size == 0:
        return _empty_chart_svg(series, title, x_label, y_label, style)
    x_low, x_high = float(xs.min()), float(xs.max())
    y_low = min(0.0, float(ys.min()))
    y_high = float(ys.max()) * 1.05 or 1.0

    builder = _SVGBuilder(style, title)
    map_x, map_y = _axes(
        builder, style, x_low, x_high, y_low, y_high, x_label, y_label
    )

    for index, (label, (x_values, y_values)) in enumerate(series.items()):
        color = PALETTE[index % len(PALETTE)]
        segment: List[Tuple[float, float]] = []
        for x, y in zip(x_values, y_values):
            if y is None or (isinstance(y, float) and np.isnan(y)):
                builder.polyline(segment, color)
                segment = []
                continue
            segment.append((map_x(float(x)), map_y(float(y))))
        builder.polyline(segment, color)
        legend_y = style.margin_top + 14 * index + 6
        legend_x = style.width - style.margin_right - 130
        builder.line(legend_x, legend_y - 4, legend_x + 18,
                     legend_y - 4, color, 2.5)
        builder.text(legend_x + 24, legend_y, label)
    return builder.render()


def bar_chart_svg(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    y_label: str = "",
    style: Optional[ChartStyle] = None,
    color: str = PALETTE[0],
) -> str:
    """Vertical bar chart with value labels."""
    values = np.asarray(values, dtype=np.float64)
    if len(labels) != values.shape[0]:
        raise ValueError("labels and values length mismatch")
    if values.shape[0] == 0:
        raise ValueError("no bars to plot")
    style = style or ChartStyle()
    finite = values[~np.isnan(values)]
    y_high = float(finite.max()) * 1.15 or 1.0 if finite.size else 1.0

    builder = _SVGBuilder(style, title)
    _map_x, map_y = _axes(
        builder, style, 0.0, float(len(labels)), 0.0, y_high,
        "", y_label,
    )
    slot = style.plot_width / len(labels)
    bar_width = slot * 0.6
    base_y = style.margin_top + style.plot_height
    for index, (label, value) in enumerate(zip(labels, values)):
        x = style.margin_left + slot * index + (slot - bar_width) / 2
        if not np.isnan(value):
            top = map_y(float(value))
            builder.rect(x, top, bar_width, base_y - top, color)
            builder.text(
                x + bar_width / 2, top - 4, f"{value:g}",
                anchor="middle",
            )
        builder.text(
            x + bar_width / 2, base_y + 16, label, anchor="middle"
        )
    return builder.render()
