"""Standalone SVG renderers for curve and density figures.

Output is deterministic text: identical inputs produce byte-identical
documents. Each branch of a curve becomes one polyline whose vertices are
affine maps of (threshold, probability); the maps are exposed through
:func:`ccdf_axis_maps` / :func:`density_axis_maps` so coordinates can be
inverted and checked. Only generic font family names are used.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDraws, EmptyCurve, InvalidArgument
from .summary import CcdfCurve, DensityEstimate

_MARGIN_LEFT = 78.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 24.0
_MARGIN_BOTTOM = 58.0


@dataclass(frozen=True)
class PlotConfig:
    """Figure dimensions, axis labels, and branch stroke styles.

    Labels left as None are resolved per figure kind. Default y tick
    labels are percent ticks whose endpoints read "near 0%" and
    "near 100%" when ``unbounded_support`` is set (a draw-based curve
    cannot reach exact 0% or 100% for an unbounded posterior) and plain
    "0%"/"100%" otherwise.
    """

    width_px: int = 960
    height_px: int = 600
    x_label: str = "Effect size"
    y_label: str | None = None
    positive_stroke: str = "#2166ac"
    negative_stroke: str = "#b2182b"
    stroke_width: float = 2.0
    unbounded_support: bool = True
    y_tick_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.width_px < 100 or self.height_px < 100:
            raise InvalidArgument("figure must be at least 100x100 px")


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


def _data_rect(cfg: PlotConfig) -> tuple[float, float, float, float]:
    x0 = _MARGIN_LEFT
    y0 = _MARGIN_TOP
    return x0, y0, cfg.width_px - x0 - _MARGIN_RIGHT, cfg.height_px - y0 - _MARGIN_BOTTOM


def _x_map(x_lo: float, x_hi: float, cfg: PlotConfig) -> AxisMap:
    """The x axis over [x_lo, x_hi], widened by 0.5 each way when empty.

    Raises :class:`DegenerateDraws` when the span overflows: every point
    would then map to the axis's left end.
    """
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if not math.isfinite(x_hi - x_lo):
        raise DegenerateDraws(f"x axis from {x_lo!r} to {x_hi!r} spans more than a double holds")
    rx, _, rw, _ = _data_rect(cfg)
    return AxisMap(x_lo, x_hi, rx, rx + rw)


def ccdf_axis_maps(curve: CcdfCurve, cfg: PlotConfig) -> tuple[AxisMap, AxisMap]:
    """Axis maps for a curve figure: signed x over both branches, y in [0, 1]."""
    has_pos = curve.positive_thresholds.size > 0
    has_neg = curve.negative_thresholds.size > 0
    if not (has_pos or has_neg):
        raise EmptyCurve("both branches are empty")
    x_lo = float(curve.negative_thresholds[0]) if has_neg else 0.0
    x_hi = float(curve.positive_thresholds[-1]) if has_pos else 0.0
    _, ry, _, rh = _data_rect(cfg)
    return _x_map(x_lo, x_hi, cfg), AxisMap(0.0, 1.0, ry + rh, ry)


def density_axis_maps(dens: DensityEstimate, cfg: PlotConfig) -> tuple[AxisMap, AxisMap]:
    """Axis maps for a density figure: x over the grid, y from 0 to the peak."""
    y_hi = float(dens.density.max()) * 1.05
    if y_hi <= 0.0:
        y_hi = 1.0
    _, ry, _, rh = _data_rect(cfg)
    return _x_map(float(dens.grid[0]), float(dens.grid[-1]), cfg), AxisMap(0.0, y_hi, ry + rh, ry)


def _fmt_px(value: float) -> str:
    text = format(value, ".10f").rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _fmt_tick(value: float) -> str:
    return format(value, "g")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(target - 1, 1)
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


def _percent_labels(cfg: PlotConfig) -> tuple[str, ...]:
    if cfg.y_tick_labels is not None:
        return cfg.y_tick_labels
    labels = [format(t * 100, "g") + "%" for t in np.linspace(0.0, 1.0, 5)]
    if cfg.unbounded_support:
        labels[0] = "near 0%"
        labels[-1] = "near 100%"
    return tuple(labels)


def _polyline(xs: np.ndarray, ps: np.ndarray, xmap: AxisMap, ymap: AxisMap, style: str) -> str:
    points = " ".join(
        f"{_fmt_px(xmap.to_px(float(x)))},{_fmt_px(ymap.to_px(float(p)))}"
        for x, p in zip(xs, ps)
    )
    return f'<polyline fill="none" style="{style}" points="{points}"/>'


def _frame(
    cfg: PlotConfig,
    xmap: AxisMap,
    ymap: AxisMap,
    x_label: str,
    y_label: str,
    y_ticks: list[float],
    y_labels: tuple[str, ...],
) -> list[str]:
    """Axes, gridlines, ticks, and labels shared by both figure kinds."""
    rx, ry, rw, rh = _data_rect(cfg)
    bottom = ry + rh
    parts = [
        f'<rect x="0" y="0" width="{cfg.width_px}" height="{cfg.height_px}" fill="#ffffff"/>'
    ]

    for tick, label in zip(y_ticks, y_labels):
        py = ymap.to_px(tick)
        parts.append(
            f'<line x1="{_fmt_px(rx)}" y1="{_fmt_px(py)}" x2="{_fmt_px(rx + rw)}" '
            f'y2="{_fmt_px(py)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt_px(rx - 8)}" y="{_fmt_px(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13">{_escape(label)}</text>'
        )

    for tick in _nice_ticks(xmap.data_lo, xmap.data_hi):
        px = xmap.to_px(tick)
        parts.append(
            f'<line x1="{_fmt_px(px)}" y1="{_fmt_px(bottom)}" x2="{_fmt_px(px)}" '
            f'y2="{_fmt_px(bottom + 6)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt_px(px)}" y="{_fmt_px(bottom + 22)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(_fmt_tick(tick))}</text>'
        )

    if xmap.data_lo < 0.0 < xmap.data_hi:
        zero = xmap.to_px(0.0)
        parts.append(
            f'<line x1="{_fmt_px(zero)}" y1="{_fmt_px(ry)}" x2="{_fmt_px(zero)}" '
            f'y2="{_fmt_px(bottom)}" stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    parts.append(
        f'<line x1="{_fmt_px(rx)}" y1="{_fmt_px(bottom)}" x2="{_fmt_px(rx + rw)}" '
        f'y2="{_fmt_px(bottom)}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt_px(rx)}" y1="{_fmt_px(ry)}" x2="{_fmt_px(rx)}" '
        f'y2="{_fmt_px(bottom)}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_fmt_px(rx + rw / 2)}" y="{_fmt_px(cfg.height_px - 14)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="15">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_fmt_px(ry + rh / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" '
        f'transform="rotate(-90 18 {_fmt_px(ry + rh / 2)})">{_escape(y_label)}</text>'
    )
    return parts


def _document(cfg: PlotConfig, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cfg.width_px}" '
        f'height="{cfg.height_px}" viewBox="0 0 {cfg.width_px} {cfg.height_px}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_ccdf(curve: CcdfCurve, cfg: PlotConfig | None = None) -> str:
    """Render both branches of a curve on one signed x-axis.

    The negative branch sits left of zero and the positive branch right
    of it, so the two one-sided probabilities at zero are read off where
    each polyline meets the zero line. Raises :class:`EmptyCurve` when
    both branches are empty.
    """
    cfg = cfg if cfg is not None else PlotConfig()
    xmap, ymap = ccdf_axis_maps(curve, cfg)
    labels = _percent_labels(cfg)
    y_ticks = list(np.linspace(0.0, 1.0, len(labels)))
    y_label = cfg.y_label if cfg.y_label is not None else "Probability of a larger effect"
    body = _frame(cfg, xmap, ymap, cfg.x_label, y_label, y_ticks, labels)
    if curve.negative_thresholds.size:
        style = f"stroke:{cfg.negative_stroke};stroke-width:{_fmt_tick(cfg.stroke_width)}"
        body.append(
            _polyline(curve.negative_thresholds, curve.negative_probabilities, xmap, ymap, style)
        )
    if curve.positive_thresholds.size:
        style = f"stroke:{cfg.positive_stroke};stroke-width:{_fmt_tick(cfg.stroke_width)}"
        body.append(
            _polyline(curve.positive_thresholds, curve.positive_probabilities, xmap, ymap, style)
        )
    return _document(cfg, body)


def render_density(dens: DensityEstimate, cfg: PlotConfig | None = None) -> str:
    """Render a density estimate as a single polyline over its grid."""
    cfg = cfg if cfg is not None else PlotConfig()
    xmap, ymap = density_axis_maps(dens, cfg)
    tick_values = list(np.linspace(0.0, ymap.data_hi, 5))
    labels = tuple(format(t, ".3g") for t in tick_values)
    y_label = cfg.y_label if cfg.y_label is not None else "Density"
    body = _frame(cfg, xmap, ymap, cfg.x_label, y_label, tick_values, labels)
    style = f"stroke:{cfg.positive_stroke};stroke-width:{_fmt_tick(cfg.stroke_width)}"
    body.append(_polyline(dens.grid, dens.density, xmap, ymap, style))
    return _document(cfg, body)
