"""Minimal deterministic SVG plots: heatmaps, curves, bar charts.

No plotting dependency; every figure is assembled from rectangles,
polylines, and text.  All numbers are formatted with fixed precision so
identical inputs give byte-identical files.
"""
from __future__ import annotations

import math

import numpy as np

# 256-level colormap, linearly interpolated between nine fixed anchors
# (dark violet -> teal -> yellow).  Index 0 = value 0, index 255 = value 1.
_ANCHORS = (
    (68, 1, 84), (72, 40, 120), (62, 74, 137), (49, 104, 142),
    (38, 130, 142), (31, 158, 137), (53, 183, 121), (109, 205, 89),
    (253, 231, 37),
)


def _build_palette() -> list:
    pal = []
    segs = len(_ANCHORS) - 1
    for i in range(256):
        x = i / 255.0 * segs
        k = min(int(x), segs - 1)
        f = x - k
        rgb = tuple(
            int(round((1.0 - f) * a + f * b))
            for a, b in zip(_ANCHORS[k], _ANCHORS[k + 1]))
        pal.append("#%02x%02x%02x" % rgb)
    return pal


PALETTE = _build_palette()


def color_for(value: float) -> str:
    """value in [0, 1] -> hex color; out-of-range values are clamped."""
    idx = int(round(255.0 * min(max(value, 0.0), 1.0)))
    return PALETTE[idx]


def palette_indices(values: np.ndarray) -> np.ndarray:
    """PALETTE index of every value, as color_for picks it: np.rint and
    round() both round half to even."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValueError("cannot color a NaN value")
    return np.rint(255.0 * np.clip(values, 0.0, 1.0)).astype(np.intp)


def _block_mean(a: np.ndarray, limit: int = 128) -> np.ndarray:
    n = a.shape[0]
    if n <= limit:
        return a
    factor = -(-n // limit)           # ceil division
    pad = (-n) % factor
    if pad:
        a = np.pad(a, ((0, pad), (0, pad)), mode="edge")
    m = a.shape[0] // factor
    return a.reshape(m, factor, m, factor).mean(axis=(1, 3))


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def heatmap(values: np.ndarray, extent, xlabel: str, ylabel: str,
            title: str) -> str:
    """Square heatmap of `values` (first axis = y, plotted bottom-up).

    extent = (lo, hi) shared by both axes.  Grids above 128x128 are
    block-averaged down so file size stays bounded.
    """
    v = _block_mean(np.asarray(values, dtype=float))
    peak = float(v.max())
    if peak > 0.0:
        v = v / peak
    m = v.shape[0]
    size, ml, mb, mt, mr = 512.0, 64.0, 48.0, 28.0, 20.0
    w, h = size + ml + mr, size + mt + mb
    cell = size / m
    lo, hi = float(extent[0]), float(extent[1])

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w, h, w, h),
        '<rect width="%d" height="%d" fill="white"/>' % (w, h),
        '<text x="%.1f" y="18" font-family="sans-serif" font-size="14" '
        'text-anchor="middle">%s</text>' % (ml + size / 2.0, _esc(title)),
    ]
    fills = palette_indices(v).tolist()
    for i in range(m):            # row index = y
        y = mt + size - (i + 1) * cell
        for j in range(m):
            parts.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                'fill="%s"/>' % (ml + j * cell, y, cell + 0.5, cell + 0.5,
                                 PALETTE[fills[i][j]]))
    parts.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
                 'fill="none" stroke="black"/>' % (ml, mt, size, size))
    for t in _ticks(lo, hi):
        frac = (t - lo) / (hi - lo) if hi > lo else 0.0
        x = ml + frac * size
        y = mt + size - frac * size
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%.4g</text>'
                     % (x, mt + size + 16.0, t))
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="end">%.4g</text>'
                     % (ml - 6.0, y + 4.0, t))
    parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle">%s</text>'
                 % (ml + size / 2.0, h - 10.0, _esc(xlabel)))
    parts.append('<text x="16" y="%.1f" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle" '
                 'transform="rotate(-90 16 %.1f)">%s</text>'
                 % (mt + size / 2.0, mt + size / 2.0, _esc(ylabel)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _nonzero_span_top(lo: float, hi: float) -> float:
    """hi, or for an empty range [lo, lo] a top above lo: lo + 1, or
    lo + |lo| where 1 is below lo's resolution."""
    if hi != lo:
        return hi
    return lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)


def curve(x, series, xlabel: str, ylabel: str, title: str,
          logy: bool = False) -> str:
    """Polyline plot; series = [(label, y-array), ...]."""
    x = np.asarray(x, dtype=float)
    colors = ("#1b6ca8", "#c2461e", "#2e8540", "#6a3d9a")
    size_w, size_h, ml, mb, mt, mr = 520.0, 320.0, 72.0, 48.0, 28.0, 16.0
    w, h = size_w + ml + mr, size_h + mt + mb

    ys = [np.asarray(s[1], dtype=float) for s in series]
    ally = np.concatenate(ys)
    if logy:
        ally = ally[ally > 0.0]
        ylo = math.floor(math.log10(ally.min()))
        yhi = math.ceil(math.log10(ally.max()))
        if yhi == ylo:
            yhi = ylo + 1
    else:
        ylo = float(ally.min())
        yhi = _nonzero_span_top(ylo, float(ally.max()))
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad
    xlo = float(x.min())
    xhi = _nonzero_span_top(xlo, float(x.max()))

    def px(xv):
        return ml + (xv - xlo) / (xhi - xlo) * size_w

    def py(yv):
        if logy:
            yv = math.log10(max(yv, 10.0 ** ylo))
        return mt + size_h - (yv - ylo) / (yhi - ylo) * size_h

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w, h, w, h),
        '<rect width="%d" height="%d" fill="white"/>' % (w, h),
        '<text x="%.1f" y="18" font-family="sans-serif" font-size="14" '
        'text-anchor="middle">%s</text>' % (ml + size_w / 2.0, _esc(title)),
        '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" '
        'stroke="black"/>' % (ml, mt, size_w, size_h),
    ]
    for k, (label, y) in enumerate(series):
        pts = " ".join("%.2f,%.2f" % (px(xv), py(yv))
                       for xv, yv in zip(x, np.asarray(y, dtype=float)))
        col = colors[k % len(colors)]
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, col))
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="12" fill="%s">%s</text>'
                     % (ml + size_w - 150.0, mt + 18.0 + 16.0 * k, col,
                        _esc(label)))
    for t in _ticks(xlo, xhi):
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%.4g</text>'
                     % (px(t), mt + size_h + 16.0, t))
    for t in _ticks(ylo, yhi):
        label = ("1e%d" % t) if logy else ("%.4g" % t)
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="end">%s</text>'
                     % (ml - 6.0, py(10.0 ** t if logy else t) + 4.0, label))
    parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle">%s</text>'
                 % (ml + size_w / 2.0, h - 10.0, _esc(xlabel)))
    parts.append('<text x="16" y="%.1f" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle" '
                 'transform="rotate(-90 16 %.1f)">%s</text>'
                 % (mt + size_h / 2.0, mt + size_h / 2.0, _esc(ylabel)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bars(labels, values, ylabel: str, title: str) -> str:
    values = [float(v) for v in values]
    n = len(values)
    size_w, size_h, ml, mb, mt, mr = 440.0, 280.0, 64.0, 56.0, 28.0, 16.0
    w, h = size_w + ml + mr, size_h + mt + mb
    top = max(1.0, max(values))
    slot = size_w / n
    bw = slot * 0.7

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w, h, w, h),
        '<rect width="%d" height="%d" fill="white"/>' % (w, h),
        '<text x="%.1f" y="18" font-family="sans-serif" font-size="14" '
        'text-anchor="middle">%s</text>' % (ml + size_w / 2.0, _esc(title)),
        '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" '
        'stroke="black"/>' % (ml, mt, size_w, size_h),
    ]
    for k, (label, v) in enumerate(zip(labels, values)):
        x = ml + k * slot + (slot - bw) / 2.0
        bh = v / top * size_h
        parts.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
                     'fill="#1b6ca8"/>' % (x, mt + size_h - bh, bw, bh))
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%.4f</text>'
                     % (x + bw / 2.0, mt + size_h - bh - 4.0, v))
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="12" text-anchor="middle">%s</text>'
                     % (x + bw / 2.0, mt + size_h + 16.0, _esc(str(label))))
    for t in _ticks(0.0, top):
        y = mt + size_h - t / top * size_h
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="end">%.2f</text>'
                     % (ml - 6.0, y + 4.0, t))
    parts.append('<text x="16" y="%.1f" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle" '
                 'transform="rotate(-90 16 %.1f)">%s</text>'
                 % (mt + size_h / 2.0, mt + size_h / 2.0, _esc(ylabel)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
