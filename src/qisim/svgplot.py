"""Minimal deterministic SVG plots: heatmaps, curves, bar charts.

No plotting dependency; every figure is assembled from rectangles,
polylines, and text on one skeleton: `_figure` opens the canvas with its
white ground and title, and `_close` adds the rotated y label and ends
it.  Every data-driven coordinate goes through one axis map, `_linear`,
which refuses a range that is not increasing or whose span overflows, so
no figure holds a `nan` or `inf` coordinate.  All numbers are formatted
with fixed precision so identical inputs give byte-identical files.
Curves and bars take plain sequences; only the heatmap imports numpy.
"""
from __future__ import annotations

import math

from .errors import ModelError

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


def palette_indices(values):
    """PALETTE index of every value in [0, 1], the nearest of the 256
    levels, half to even; values outside are clamped.  No value is NaN:
    the one caller colors a density, which holds none."""
    import numpy as np
    values = np.asarray(values, dtype=float)
    return np.rint(255.0 * np.clip(values, 0.0, 1.0)).astype(np.intp)


def block_mean(a, limit: int = 128):
    """The square array a averaged over square blocks, edge-padded, down
    to at most limit x limit cells; a itself if it is no larger."""
    import numpy as np
    n = a.shape[0]
    if n <= limit:
        return a
    factor = -(-n // limit)           # ceil division
    pad = (-n) % factor
    if pad:
        a = np.pad(a, ((0, pad), (0, pad)), mode="edge")
    m = a.shape[0] // factor
    return a.reshape(m, factor, m, factor).mean(axis=(1, 3))


def _ticks(lo: float, hi: float) -> list:
    # a quarter of the span is exact, and scaling it by i <= 4 cannot
    # overflow
    return [lo + (hi - lo) / 4 * i for i in range(5)]


def _linear(lo: float, hi: float, start: float, length: float):
    """The map of [lo, hi] onto the pixels [start, start + length]; a
    negative length runs upwards."""
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ModelError(f"axis range [{lo:g}, {hi:g}] has no finite, "
                         f"positive span")
    return lambda v: start + (v - lo) / (hi - lo) * length


def _range(values, pad: float) -> tuple:
    """[min, max] of values, widened on each side by pad times its span.
    A one-point range [v, v] gets the span 1, or |v| where 1 is below
    v's resolution.  A NaN gives [nan, nan] and an overflowing span an
    infinite end, which _linear refuses."""
    lo, hi = min(values), max(values)
    if any(math.isnan(v) for v in values):  # min and max may skip it
        lo = hi = math.nan
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)
    margin = pad * (hi - lo) if pad else 0.0  # not 0 * inf = nan
    return lo - margin, hi + margin


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


_END = 'text-anchor="end"'
_FRAME = 'fill="none" stroke="black"'


def _figure(w: float, h: float, title_x: float, title: str) -> list:
    """The opening elements of a w x h figure: canvas, white ground and
    title."""
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w, h, w, h),
        '<rect width="%d" height="%d" fill="white"/>' % (w, h),
        '<text x="%.1f" y="18" font-family="sans-serif" font-size="14" '
        'text-anchor="middle">%s</text>' % (title_x, _esc(title)),
    ]


def _text(x: float, y: float, size: int, text: str,
          attr: str = 'text-anchor="middle"') -> str:
    return ('<text x="%.1f" y="%.1f" font-family="sans-serif" '
            'font-size="%d" %s>%s</text>' % (x, y, size, attr, _esc(text)))


def _box(x: float, y: float, w: float, h: float, paint: str) -> str:
    return ('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" %s/>'
            % (x, y, w, h, paint))


def _close(parts: list, mid_y: float, ylabel: str) -> str:
    """The figure's text: parts, the y label rotated about (16, mid_y),
    and the end tag."""
    parts.append('<text x="16" y="%.1f" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle" '
                 'transform="rotate(-90 16 %.1f)">%s</text>'
                 % (mid_y, mid_y, _esc(ylabel)))
    parts += ["</svg>", ""]   # the empty part ends the text in "\n"
    return "\n".join(parts)


def heatmap(values, extent, xlabel: str, ylabel: str, title: str) -> str:
    """Square heatmap of `values` (first axis = y, plotted bottom-up).

    extent = (lo, hi) shared by both axes.  Grids above 128x128 are
    block-averaged down (block_mean) so file size stays bounded.
    """
    import numpy as np
    size, ml, mb, mt, mr = 512.0, 64.0, 48.0, 28.0, 20.0
    lo, hi = float(extent[0]), float(extent[1])
    px = _linear(lo, hi, ml, size)
    py = _linear(lo, hi, mt + size, -size)
    v = block_mean(np.asarray(values, dtype=float))
    peak = float(v.max())
    if peak > 0.0:
        v = v / peak
    m = v.shape[0]
    w, h = size + ml + mr, size + mt + mb
    cell = size / m

    parts = _figure(w, h, ml + size / 2.0, title)
    # each coordinate is formatted once, not once per cell
    xs = ['<rect x="%.2f" y="' % (ml + j * cell) for j in range(m)]
    wh = '" width="%.2f" height="%.2f" fill="' % (cell + 0.5, cell + 0.5)
    for i, row in enumerate(palette_indices(v).tolist()):  # row index = y
        tail = "%.2f%s" % (mt + size - (i + 1) * cell, wh)
        # one string per row, so 128 rects, not 16384, are alive at once
        parts.append("\n".join(x + tail + PALETTE[k] + '"/>'
                                for x, k in zip(xs, row)))
    parts.append(_box(ml, mt, size, size, _FRAME))
    for t in _ticks(lo, hi):
        parts.append(_text(px(t), mt + size + 16.0, 11, "%.4g" % t))
        parts.append(_text(ml - 6.0, py(t) + 4.0, 11, "%.4g" % t, _END))
    parts.append(_text(ml + size / 2.0, h - 10.0, 13, xlabel))
    return _close(parts, mt + size / 2.0, ylabel)


def curve(x, series, xlabel: str, ylabel: str, title: str) -> str:
    """Polyline plot; series = [(label, y-array), ...]."""
    x = [float(v) for v in x]
    ys = [[float(v) for v in s[1]] for s in series]
    colors = ("#1b6ca8", "#c2461e", "#2e8540", "#6a3d9a")
    size_w, size_h, ml, mb, mt, mr = 520.0, 320.0, 72.0, 48.0, 28.0, 16.0
    w, h = size_w + ml + mr, size_h + mt + mb
    xlo, xhi = _range(x, 0.0)
    ylo, yhi = _range([v for y in ys for v in y], 0.05)
    px = _linear(xlo, xhi, ml, size_w)
    py = _linear(ylo, yhi, mt + size_h, -size_h)

    parts = _figure(w, h, ml + size_w / 2.0, title)
    parts.append(_box(ml, mt, size_w, size_h, _FRAME))
    for k, ((label, _), y) in enumerate(zip(series, ys)):
        pts = " ".join("%.2f,%.2f" % (px(xv), py(yv))
                       for xv, yv in zip(x, y))
        col = colors[k % len(colors)]
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, col))
        parts.append(_text(ml + size_w - 150.0, mt + 18.0 + 16.0 * k, 12,
                           label, 'fill="%s"' % col))
    for t in _ticks(xlo, xhi):
        parts.append(_text(px(t), mt + size_h + 16.0, 11, "%.4g" % t))
    for t in _ticks(ylo, yhi):
        parts.append(_text(ml - 6.0, py(t) + 4.0, 11, "%.4g" % t, _END))
    parts.append(_text(ml + size_w / 2.0, h - 10.0, 13, xlabel))
    return _close(parts, mt + size_h / 2.0, ylabel)


def bars(labels, values, ylabel: str, title: str) -> str:
    values = [float(v) for v in values]
    n = len(values)
    size_w, size_h, ml, mb, mt, mr = 440.0, 280.0, 64.0, 56.0, 28.0, 16.0
    w, h = size_w + ml + mr, size_h + mt + mb
    top = max(1.0, max(values))
    height = _linear(0.0, top, 0.0, size_h)
    slot = size_w / n
    bw = slot * 0.7

    parts = _figure(w, h, ml + size_w / 2.0, title)
    parts.append(_box(ml, mt, size_w, size_h, _FRAME))
    for k, (label, v) in enumerate(zip(labels, values)):
        x = ml + k * slot + (slot - bw) / 2.0
        bh = height(v)
        parts.append(_box(x, mt + size_h - bh, bw, bh, 'fill="#1b6ca8"'))
        parts.append(_text(x + bw / 2.0, mt + size_h - bh - 4.0, 11,
                           "%.4f" % v))
        parts.append(_text(x + bw / 2.0, mt + size_h + 16.0, 12, str(label)))
    for t in _ticks(0.0, top):
        parts.append(_text(ml - 6.0, mt + size_h - height(t) + 4.0, 11,
                           "%.2f" % t, _END))
    return _close(parts, mt + size_h / 2.0, ylabel)
