"""Minimal deterministic SVG charts.

Hand-rolled so identical inputs produce identical bytes: no timestamps, no
generated ids, and one number format, "%.2f", for every coordinate (a
polyline's points in one bulk format call). Two chart kinds cover the
package's needs: 2-D line charts and an orthographic Bloch-sphere trajectory
view, each written through ``_write``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "bloch_chart"]

_W, _H = 640, 480
_BOX = (64.0, 24.0, 616.0, 432.0)  # left, top, right, bottom of the plot area
_COLORS = ("#1f6feb", "#d73a49", "#1a7f37", "#8250df", "#bf5af2", "#9a6700")


def _fmt(x: float) -> str:
    return "%.2f" % x


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    val = first
    while val <= hi + 1e-9 * max(abs(hi), 1.0):
        out.append(0.0 if abs(val) < 1e-12 * step else val)
        val += step
    return out or [lo]


def _range(arrays) -> tuple[float, float]:
    lo = min(float(np.min(a)) for a in arrays)
    hi = max(float(np.max(a)) for a in arrays)
    if hi - lo < 1e-300:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _points(xs, ys) -> str:
    """The pairs as "x,y x,y ..." with ``_fmt`` numbers, from one format call."""
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(np.column_stack([xs, ys]).ravel().tolist())


def _m4(column: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the first, last, lowest and highest sample in each pixel column.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): a polyline through these
    samples, in index order, draws the same pixels as one through them all.
    """
    idx = np.arange(len(y))
    by_index = np.lexsort((idx, column))
    by_value = np.lexsort((idx, y, column))
    sorted_column = column[by_index]
    first = np.flatnonzero(np.r_[True, sorted_column[1:] != sorted_column[:-1]])
    last = np.r_[first[1:], len(y)] - 1
    return np.unique(np.concatenate([by_index[first], by_index[last],
                                     by_value[first], by_value[last]]))


def _polyline(xs, ys, color: str, dash: str | None = None, width: float = 1.6) -> str:
    pts = _points(xs, ys)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f'{extra} points="{pts}"/>')


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "middle",
          color: str = "#24292f") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="Helvetica,Arial,sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{color}">{s}</text>')


def _write(path: str, elements: list[str]) -> None:
    """Write the SVG document of ``elements`` on a white page to ``path``."""
    body = "\n".join(elements)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}">\n'
                 f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>\n'
                 f"{body}\n</svg>\n")


def line_chart(path: str, title: str, xlabel: str, ylabel: str, x, series) -> None:
    """Write a 2-D line chart.

    Parameters
    ----------
    path : str
        Output file.
    title, xlabel, ylabel : str
        Labels.
    x : array_like
        Common abscissa.
    series : list of (label, y, dashed) tuples
        One polyline per entry; ``dashed`` truthy draws a dashed line.
        Each is reduced to the first, last, lowest and highest point of every
        pixel column, which draws the same picture.
    """
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = _range([x])
    y_lo, y_hi = _range([np.asarray(y, dtype=float) for _, y, _ in series])
    left, top, right, bottom = _BOX

    def sx(v):  # scalars and arrays alike
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(v):
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    screen_x = np.round(sx(x), 2)  # as printed, so each point's column is the one drawn
    column = np.floor(screen_x)

    el = [f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
          f'height="{_fmt(bottom - top)}" fill="none" stroke="#57606a"/>']
    for tx in _ticks(x_lo, x_hi):
        el.append(f'<line x1="{_fmt(sx(tx))}" y1="{_fmt(bottom)}" x2="{_fmt(sx(tx))}" '
                  f'y2="{_fmt(bottom + 5)}" stroke="#57606a"/>')
        el.append(_text(sx(tx), bottom + 18, f"{tx:.6g}", 11))
    for ty in _ticks(y_lo, y_hi):
        el.append(f'<line x1="{_fmt(left - 5)}" y1="{_fmt(sy(ty))}" x2="{_fmt(left)}" '
                  f'y2="{_fmt(sy(ty))}" stroke="#57606a"/>')
        el.append(_text(left - 9, sy(ty) + 4, f"{ty:.6g}", 11, anchor="end"))
    for i, (label, y, dashed) in enumerate(series):
        screen_y = sy(np.asarray(y, dtype=float))
        keep = _m4(column, screen_y)
        color = _COLORS[i % len(_COLORS)]
        el.append(_polyline(screen_x[keep], screen_y[keep], color, dash="6,4" if dashed else None))
        lx = right - 120
        ly = top + 18 + 16 * i
        el.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 24)}" '
                  f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"'
                  + (f' stroke-dasharray="6,4"' if dashed else "") + "/>")
        el.append(_text(lx + 30, ly, label, 11, anchor="start"))
    el.append(_text((left + right) / 2, 16, title, 13))
    el.append(_text((left + right) / 2, _H - 10, xlabel, 12))
    el.append(f'<g transform="translate(14,{_fmt((top + bottom) / 2)}) rotate(-90)">'
              + _text(0, 0, ylabel, 12) + "</g>")
    _write(path, el)


def bloch_chart(path: str, title: str, bloch) -> None:
    """Write an orthographic view of a Bloch-vector trajectory.

    ``bloch`` is an (n, 3) array of (u, v, w). A fixed camera (no options)
    keeps the output deterministic: the unit sphere projects to a circle,
    the equator to an ellipse, and the trajectory to a polyline.
    """
    bloch = np.asarray(bloch, dtype=float)
    cx, cy, scale = _W / 2.0, _H / 2.0 + 10.0, 185.0
    yaw, tilt = 0.6, 0.42
    cyaw, syaw, ctilt, stilt = math.cos(yaw), math.sin(yaw), math.cos(tilt), math.sin(tilt)

    def proj(u, v, w):  # scalars and arrays alike
        h = -u * syaw + v * cyaw
        d = u * cyaw + v * syaw
        vert = w * ctilt - d * stilt
        return cx + scale * h, cy - scale * vert

    el = [f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(scale)}" '
          f'fill="none" stroke="#57606a"/>']
    # math.cos and math.sin, not numpy's vectorised pair, which may differ in the last bit
    s = np.linspace(0.0, 2.0 * math.pi, 181).tolist()
    eq_x, eq_y = proj(np.array([math.cos(a) for a in s]), np.array([math.sin(a) for a in s]), 0.0)
    el.append(_polyline(eq_x, eq_y, "#8c959f", dash="4,4", width=1.0))
    for axis, label in (((1.1, 0.0, 0.0), "u"), ((0.0, 1.1, 0.0), "v"), ((0.0, 0.0, 1.1), "w")):
        x2, y2 = proj(*axis)
        el.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                  f'stroke="#8c959f" stroke-width="1"/>')
        el.append(_text(x2, y2 - 4, label, 12))
    xs, ys = proj(bloch[:, 0], bloch[:, 1], bloch[:, 2])
    el.append(_polyline(xs, ys, "#1f6feb"))
    el.append(f'<circle cx="{_fmt(xs[0])}" cy="{_fmt(ys[0])}" r="4" fill="#1a7f37"/>')
    el.append(f'<circle cx="{_fmt(xs[-1])}" cy="{_fmt(ys[-1])}" r="4" fill="#d73a49"/>')
    el.append(_text(_W / 2.0, 16, title, 13))
    _write(path, el)
