"""Standalone SVG bar chart of an outcome histogram, no plotting dependency.

Output bytes are a pure function of the histogram contents: fixed canvas,
fixed two-decimal coordinate formatting, '\\n' line endings.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .histogram import Histogram

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 40
_MARGIN_RIGHT = 20
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 40
_BAR_GAP_FRACTION = 0.2


def render_histogram_svg(hist: Histogram, path: str | Path) -> None:
    """Write a bar chart of the in-window bins; bars only for nonzero counts."""
    if hist.total_recorded < 1:
        raise ValueError("histogram is empty")
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_height = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    n_bins = hist.hi - hist.lo + 1
    slot = plot_width / n_bins
    bar_width = slot * (1.0 - _BAR_GAP_FRACTION)
    max_count = max(max(hist.counts), 1)
    baseline = _MARGIN_TOP + plot_height

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<line x1="{_MARGIN_LEFT}" y1="{baseline:.2f}" '
        f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{baseline:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i, count in enumerate(hist.counts):
        x_center = _MARGIN_LEFT + (i + 0.5) * slot
        label = hist.lo + i
        lines.append(
            f'<text x="{x_center:.2f}" y="{baseline + 16:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
        if count == 0:
            continue
        height = plot_height * count / max_count
        x = x_center - bar_width / 2.0
        y = baseline - height
        lines.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_width:.2f}" '
            f'height="{height:.2f}" fill="#4477aa"/>'
        )
        lines.append(
            f'<text x="{x_center:.2f}" y="{y - 4:.2f}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{count}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
