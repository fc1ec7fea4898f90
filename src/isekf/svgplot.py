"""Minimal deterministic SVG line charts (polyline + rect primitives).

No external renderer: files are assembled from text so reruns with the
same data are byte-identical.  Axes are auto-scaled with a 5% margin and
carry a handful of round-number ticks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputDomainError

WIDTH, HEIGHT = 820, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 36, 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
SHADE = "#d0d0d0"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _points(X: np.ndarray, Y: np.ndarray) -> str:
    """Polyline points "X,Y X,Y ..." in one %-format: the text _fmt gives
    each coordinate, without a format call per number."""
    return " ".join(["%.6g,%.6g"] * len(X)) % tuple(np.column_stack([X, Y]).ravel().tolist())


def _span_end(lo: float, hi: float) -> float:
    """hi, or for an empty span (hi <= lo) lo plus one unit, or plus one
    part in 2^40 of |lo| above 2^40, where lo + 1 rounds back to lo."""
    return hi if hi > lo else lo + max(1.0, abs(lo) * 2.0**-40)


def _nice_ticks(lo: float, hi: float, n: int = 5):
    hi = _span_end(lo, hi)
    span = hi - lo
    # not below the least subnormal, to which a span of two of them divides
    raw = max(span / max(n - 1, 1), math.ulp(0.0))
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:  # mag underflowed to 0: raw is one of the two least subnormals
        step = raw
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:  # a step below v's rounding unit: no tick comes after v
            break
        v += step
    return ticks


class LineChart:
    """One x-y chart; call add_series/add_shade, then write(path)."""

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []      # (name, color, x, y)
        self.shades = []      # (x_lo, x_hi)

    def add_series(self, name: str, x, y, color=None):
        """Raises InputDomainError when x or y holds nan or inf: no axis
        can be scaled to them."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InputDomainError(f"chart {self.title!r}: series {name!r} is not finite")
        if color is None:
            color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append((name, color, x, y))

    def add_shade(self, x_lo: float, x_hi: float):
        self.shades.append((float(x_lo), float(x_hi)))

    def _limits(self):
        xs = np.concatenate([s[2] for s in self.series])
        ys = np.concatenate([s[3] for s in self.series])
        x_lo, y_lo = float(xs.min()), float(ys.min())
        x_hi, y_hi = _span_end(x_lo, float(xs.max())), _span_end(y_lo, float(ys.max()))
        mx = 0.05 * (x_hi - x_lo)
        my = 0.05 * (y_hi - y_lo)
        return x_lo - mx, x_hi + mx, y_lo - my, y_hi + my

    def render(self) -> str:
        if not self.series:
            raise ValueError("chart has no series")
        x0, x1, y0, y1 = self._limits()
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B

        # on a scalar (ticks, shades) or a whole series: the same IEEE
        # operations element by element
        def px(x):
            return MARGIN_L + (x - x0) / (x1 - x0) * pw

        def py(y):
            return MARGIN_T + (y1 - y) / (y1 - y0) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
        ]
        for lo, hi in self.shades:
            a, b = max(lo, x0), min(hi, x1)
            if b <= a:
                continue
            out.append(
                f'<rect x="{_fmt(px(a))}" y="{MARGIN_T}" width="{_fmt(px(b) - px(a))}" '
                f'height="{ph}" fill="{SHADE}" fill-opacity="0.6"/>'
            )
        # frame
        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        for tx in _nice_ticks(x0, x1):
            X = px(tx)
            out.append(f'<line x1="{_fmt(X)}" y1="{MARGIN_T + ph}" x2="{_fmt(X)}" '
                       f'y2="{MARGIN_T + ph + 5}" stroke="black"/>')
            out.append(f'<text x="{_fmt(X)}" y="{MARGIN_T + ph + 18}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
        for ty in _nice_ticks(y0, y1):
            Y = py(ty)
            out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(Y)}" x2="{MARGIN_L}" '
                       f'y2="{_fmt(Y)}" stroke="black"/>')
            out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(Y)}" text-anchor="end" '
                       f'dominant-baseline="middle" font-family="sans-serif" '
                       f'font-size="11">{_fmt(ty)}</text>')
        out.append(f'<text x="{MARGIN_L + pw / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{self.xlabel}</text>')
        out.append(f'<text x="16" y="{MARGIN_T + ph / 2:.0f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {MARGIN_T + ph / 2:.0f})">{self.ylabel}</text>')
        for name, color, xs, ys in self.series:
            pts = _points(px(xs), py(ys))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.2"/>')
        # legend
        lx, ly = MARGIN_L + 10, MARGIN_T + 14
        for i, (name, color, _, _) in enumerate(self.series):
            Y = ly + 16 * i
            out.append(f'<line x1="{lx}" y1="{Y - 4}" x2="{lx + 22}" y2="{Y - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 28}" y="{Y}" font-family="sans-serif" '
                       f'font-size="11">{name}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
