"""Minimal deterministic SVG line charts.

The experiment figures only need a line over turns, axis labels, and a
dashed vertical marker at each event turn, so the charts are emitted
directly as SVG text: same inputs, same bytes, no plotting backend.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 55

LINE_COLOR = "#1f77b4"


def _fmt(value: float) -> str:
    """Fixed-precision coordinate formatting so output bytes are stable."""
    return f"{value:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw_step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return ticks


def _tick_label(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def line_chart(
    name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    xlabel: str = "turn",
    ylabel: str = "bits",
    vlines: Sequence[float] = (),
) -> str:
    """Render one named (x, y) line as an SVG document string.

    The y-axis always includes 0.  ``vlines`` draws dashed vertical markers
    (event turns).
    """
    ys_finite = [y for y in ys if math.isfinite(y)]
    if not xs or not ys_finite:
        raise ValueError("line_chart needs at least one finite point")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys_finite), 0.0), max(ys_finite)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.05 * (y_hi - y_lo)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # gridlines and ticks
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_tick_label(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{_tick_label(t)}</text>'
        )
    # frame
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    # event markers
    for v in vlines:
        if x_lo <= v <= x_hi:
            x = px(v)
            out.append(
                f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP}" x2="{_fmt(x)}" '
                f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#555555" stroke-width="1.5" '
                f'stroke-dasharray="6,4"/>'
            )
    # data
    points = " ".join(
        f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys) if math.isfinite(y)
    )
    out.append(
        f'<polyline points="{points}" fill="none" stroke="{LINE_COLOR}" '
        f'stroke-width="1.5"/>'
    )
    y_leg = MARGIN_TOP + 16
    x_leg = MARGIN_LEFT + 10
    out.append(
        f'<line x1="{x_leg}" y1="{y_leg - 4}" x2="{x_leg + 24}" '
        f'y2="{y_leg - 4}" stroke="{LINE_COLOR}" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{x_leg + 30}" y="{y_leg}" font-size="12" '
        f'font-family="sans-serif">{name}</text>'
    )
    # labels
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" font-size="15" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    out.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.0f}" '
        f'y="{HEIGHT - 14}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.0f}" '
        f'font-size="13" text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 18 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.0f})">'
        f"{ylabel}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
