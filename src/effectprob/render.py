"""Standalone SVG renderers for curve and density figures.

Both figures have one fixed look: a 960x600 px canvas, a blue stroke
(red for a curve's negative branch), and generic font family names only.
The x-axis label is the one setting; one holding a character that XML 1.0
forbids raises :class:`InvalidArgument`. Output is deterministic text:
identical inputs produce byte-identical documents. Each polyline's
vertices are affine maps of (x, y) data; the maps are exposed through
:func:`ccdf_axis_maps` / :func:`density_axis_maps` so coordinates can be
inverted and checked.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateDraws, EmptyCurve, InvalidArgument
from .summary import CcdfCurve, DensityEstimate

_WIDTH = 960
_HEIGHT = 600
# The data rectangle: the canvas less margins of 78 (left), 24 (right),
# 24 (top) and 58 px (bottom).
_LEFT = 78.0
_RIGHT = _WIDTH - 24.0
_TOP = 24.0
_BOTTOM = _HEIGHT - 58.0
_POSITIVE_STYLE = "stroke:#2166ac;stroke-width:2"
_NEGATIVE_STYLE = "stroke:#b2182b;stroke-width:2"
# A draw-based curve cannot reach exactly 0% or 100% for an unbounded
# posterior, so the end ticks read "near".
_PERCENT_TICKS = ((0.0, "near 0%"), (0.25, "25%"), (0.5, "50%"), (0.75, "75%"), (1.0, "near 100%"))
# About this many x ticks, at steps of 1, 2, 2.5 or 5 times a power of ten.
_X_TICKS = 6
# What XML 1.0 forbids: C0 controls but tab, LF and CR; surrogates; U+FFFE/F.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class AxisMap:
    """Affine map between data values and pixel coordinates on one axis."""

    data_lo: float
    data_hi: float
    px_lo: float
    px_hi: float

    def to_px(self, value: float) -> float:
        t = (value - self.data_lo) / (self.data_hi - self.data_lo)
        px = self.px_lo + t * (self.px_hi - self.px_lo)
        lo, hi = min(self.px_lo, self.px_hi), max(self.px_lo, self.px_hi)
        return min(max(px, lo), hi)

    def to_data(self, px: float) -> float:
        t = (px - self.px_lo) / (self.px_hi - self.px_lo)
        return self.data_lo + t * (self.data_hi - self.data_lo)


def _x_map(x_lo: float, x_hi: float) -> AxisMap:
    """The x axis over [x_lo, x_hi], widened by 0.5 each way when empty.

    Raises :class:`DegenerateDraws` when the span is still empty after
    widening (at |x| >= 2^53 the 0.5 rounds away), where mapping a point
    would divide by zero, or when it overflows, where every point would
    map to the axis's left end.
    """
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if not 0.0 < x_hi - x_lo < math.inf:
        raise DegenerateDraws(f"x axis from {x_lo!r} to {x_hi!r} has no finite, nonzero width")
    return AxisMap(x_lo, x_hi, _LEFT, _RIGHT)


def ccdf_axis_maps(curve: CcdfCurve) -> tuple[AxisMap, AxisMap]:
    """Axis maps for a curve figure: signed x over both branches, y in [0, 1]."""
    has_pos = curve.positive_thresholds.size > 0
    has_neg = curve.negative_thresholds.size > 0
    if not (has_pos or has_neg):
        raise EmptyCurve("both branches are empty")
    x_lo = float(curve.negative_thresholds[0]) if has_neg else 0.0
    x_hi = float(curve.positive_thresholds[-1]) if has_pos else 0.0
    return _x_map(x_lo, x_hi), AxisMap(0.0, 1.0, _BOTTOM, _TOP)


def density_axis_maps(dens: DensityEstimate) -> tuple[AxisMap, AxisMap]:
    """Axis maps for a density figure: x over the grid, y from 0 to the peak."""
    y_hi = float(dens.density.max()) * 1.05
    if y_hi <= 0.0:
        y_hi = 1.0
    return _x_map(float(dens.grid[0]), float(dens.grid[-1])), AxisMap(0.0, y_hi, _BOTTOM, _TOP)


def _fmt_px(value: float) -> str:
    text = format(value, ".10f").rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / (_X_TICKS - 1)
    # A step below the normal doubles, whose power of ten can round to 0,
    # gets ticks at its ends only. (The axis maps keep the span finite.)
    if raw < sys.float_info.min:
        return [lo, hi]
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    ticks = []
    k = math.ceil(lo / step - 1e-9)
    while k * step - hi <= step * 1e-9:  # hi + step * 1e-9 can overflow
        value = k * step
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        k += 1
    return ticks


def _polyline(xs: np.ndarray, ys: np.ndarray, xmap: AxisMap, ymap: AxisMap, style: str) -> str:
    points = " ".join(
        f"{_fmt_px(xmap.to_px(float(x)))},{_fmt_px(ymap.to_px(float(y)))}"
        for x, y in zip(xs, ys)
    )
    return f'<polyline fill="none" style="{style}" points="{points}"/>'


def _document(
    xmap: AxisMap,
    ymap: AxisMap,
    y_ticks: Iterable[tuple[float, str]],
    x_label: str,
    y_label: str,
    lines: Iterable[tuple[np.ndarray, np.ndarray, str]],
) -> str:
    """The SVG document: canvas, gridlines at the labelled ``y_ticks``,
    x ticks, axes, labels, then one polyline per ``(xs, ys, style)``."""
    bad = _NOT_XML.search(x_label)
    if bad:
        raise InvalidArgument(f"x_label {x_label!r} holds {bad.group()!r}, which XML forbids")
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    left, right, top, bottom = map(_fmt_px, (_LEFT, _RIGHT, _TOP, _BOTTOM))

    for tick, label in y_ticks:
        py = ymap.to_px(tick)
        parts.append(
            f'<line x1="{left}" y1="{_fmt_px(py)}" x2="{right}" '
            f'y2="{_fmt_px(py)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt_px(_LEFT - 8)}" y="{_fmt_px(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13">{_escape(label)}</text>'
        )

    for tick in _nice_ticks(xmap.data_lo, xmap.data_hi):
        px = _fmt_px(xmap.to_px(tick))
        parts.append(
            f'<line x1="{px}" y1="{bottom}" x2="{px}" '
            f'y2="{_fmt_px(_BOTTOM + 6)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px}" y="{_fmt_px(_BOTTOM + 22)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(format(tick, "g"))}</text>'
        )

    if xmap.data_lo < 0.0 < xmap.data_hi:
        zero = _fmt_px(xmap.to_px(0.0))
        parts.append(
            f'<line x1="{zero}" y1="{top}" x2="{zero}" y2="{bottom}" '
            f'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    y_mid = _fmt_px((_TOP + _BOTTOM) / 2)
    parts += [
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="#333333" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        f'stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt_px((_LEFT + _RIGHT) / 2)}" y="{_fmt_px(_HEIGHT - 14)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="15">{_escape(x_label)}</text>',
        f'<text x="18" y="{y_mid}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15" transform="rotate(-90 18 {y_mid})">{_escape(y_label)}</text>',
    ]
    parts += [_polyline(xs, ys, xmap, ymap, style) for xs, ys, style in lines]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ccdf(curve: CcdfCurve, x_label: str = "Effect size") -> str:
    """Render both branches of a curve on one signed x-axis.

    The negative branch sits left of zero and the positive branch right
    of it, so the two one-sided probabilities at zero are read off where
    each polyline meets the zero line. Raises :class:`EmptyCurve` when
    both branches are empty.
    """
    xmap, ymap = ccdf_axis_maps(curve)
    branches = (
        (curve.negative_thresholds, curve.negative_probabilities, _NEGATIVE_STYLE),
        (curve.positive_thresholds, curve.positive_probabilities, _POSITIVE_STYLE),
    )
    return _document(
        xmap,
        ymap,
        _PERCENT_TICKS,
        x_label,
        "Probability of a larger effect",
        [branch for branch in branches if branch[0].size],
    )


def render_density(dens: DensityEstimate, x_label: str = "Effect size") -> str:
    """Render a density estimate as a single polyline over its grid."""
    xmap, ymap = density_axis_maps(dens)
    y_ticks = [(t, format(t, ".3g")) for t in np.linspace(0.0, ymap.data_hi, 5)]
    return _document(
        xmap, ymap, y_ticks, x_label, "Density", [(dens.grid, dens.density, _POSITIVE_STYLE)]
    )
