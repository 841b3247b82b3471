"""Minimal deterministic SVG charts.

Hand-rolled so identical inputs produce identical bytes: no timestamps, no
generated ids, and one number format, "%.2f", for every coordinate. A
polyline's points are written by numpy into byte slots, digits from a small
table, and only non-finite values, |v| >= 1e5 and possible ties go through
"%.2f" itself. Line charts keep the M4 points of each pixel column, found
with one stable sort by column. Two chart kinds cover the package's needs:
2-D line charts and an orthographic Bloch-sphere trajectory view, each
written through ``_write``; both reject non-finite, empty or misshapen
arrays with a ValidationError that names the argument.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError
from .states import _finite

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


def _range(arrays, names) -> tuple[float, float]:
    """The padded axis range of the named ``arrays``; a ValidationError names the
    arrays that hold its ends when it is wider than the float range."""
    lows, highs = [float(np.min(a)) for a in arrays], [float(np.max(a)) for a in arrays]
    lo, hi = min(lows), max(highs)
    if hi - lo < 1e-300:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.04 * (hi - lo)
    if not math.isfinite((hi + pad) - (lo - pad)):
        ends = dict.fromkeys((names[lows.index(lo)], names[highs.index(hi)]))
        raise ValidationError(f"the range of {' and '.join(ends)} is wider than the float range")
    return lo - pad, hi + pad


@functools.cache
def _tables() -> tuple:
    """Read-only tables of ``_points``, built at its first call: the thousands of the
    whole units (0 to 100, 0 blank), their last three digits (at 1000 + g with leading
    zeros), and the cents as point, two digits and the separator after an x or (at
    100 + c) a y. NUL pads each entry to its width."""
    thousands = np.array([b"%d" % g if g else b"" for g in range(101)], "S3")
    units = np.array([b"%d" % g for g in range(1000)] + [b"%03d" % g for g in range(1000)],
                     "S3")
    cents = np.array([b".%02d%s" % (c, sep) for sep in (b",", b" ") for c in range(100)], "S4")
    for table in (thousands, units, cents):
        table.flags.writeable = False
    return thousands, units, cents


_ROW = np.dtype([("sign", "u1"), ("thousands", "S3"), ("units", "S3"), ("cents", "S4")])


def _points(xs, ys) -> str:
    """The pairs as "x,y x,y ..." with ``_fmt`` numbers: each value gets a row of
    NUL-padded slots (sign, whole units, cents), and dropping the NULs joins them."""
    thousands, units, cents = _tables()
    v = np.column_stack([xs, ys]).astype(float).ravel()
    mag = np.abs(v)
    small = mag < 1e5  # False for NaN
    m = np.where(small, mag, 0.0) * 100.0
    # m is |v| 100 to within 2e-9, so its nearest integer is "%.2f"'s unless m is near a tie
    fast = small & (np.abs(m - np.floor(m) - 0.5) > 1e-6)
    n = np.rint(m).astype(np.intp)
    whole = n // 100
    k = whole // 1000
    cent = n - 100 * whole
    cent[1::2] += 100
    rows = np.zeros(v.size, _ROW)
    rows["sign"] = np.signbit(v) * np.uint8(ord("-"))
    rows["thousands"] = thousands.take(k)
    rows["units"] = units.take(whole - 1000 * k + 1000 * (k != 0))
    rows["cents"] = cents.take(cent)
    data = rows.view(np.uint8).reshape(v.size, _ROW.itemsize)
    data[-1:, -1] = 0  # no separator after the last value
    # non-finite values, |v| >= 1e5 and possible ties: "%.2f" one value at a time
    slow = np.flatnonzero(~fast)
    data[slow, :-1] = np.frombuffer(b"%.2f".ljust(_ROW.itemsize - 1, b"\0"), np.uint8)
    text = data[data != 0].tobytes().decode("ascii")
    return text % tuple(v[slow].tolist()) if slow.size else text


def _m4(column: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the first, last, lowest and highest sample in each pixel column.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): a polyline through these
    samples, in index order, draws the same pixels as one through them all. Of
    equal values, the first lowest and the last highest sample is kept.
    """
    order = np.argsort(column, kind="stable")  # by column, then by index
    sorted_column, y = column[order], y[order]
    start = np.flatnonzero(np.r_[True, sorted_column[1:] != sorted_column[:-1]])
    count = np.diff(np.r_[start, len(y)])
    lowest = y == np.repeat(np.minimum.reduceat(y, start), count)
    highest = y == np.repeat(np.maximum.reduceat(y, start), count)
    return np.unique(np.concatenate([
        order[start], order[start + count - 1],
        np.minimum.reduceat(np.where(lowest, order, len(y)), start),
        np.maximum.reduceat(np.where(highest, order, -1), start)]))


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
        Common abscissa: 1-D, finite, at least one value.
    series : list of (label, y, dashed) tuples
        One polyline per entry, at least one; ``dashed`` truthy draws a dashed
        line. Each y is finite and as long as x. Each is reduced to the first,
        last, lowest and highest point of every pixel column, which draws the
        same picture.

    Raises
    ------
    ValidationError
        Naming the array that breaks these rules.
    """
    x = _finite(x, "x", float)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError(f"x must be 1-D with at least one value, got shape {x.shape}")
    if not series:
        raise ValidationError("series must hold at least one (label, y, dashed) entry")
    ys = [_finite(y, f"series {label!r}", float, x.shape) for label, y, _ in series]
    x_lo, x_hi = _range([x], ["x"])
    y_lo, y_hi = _range(ys, [f"series {label!r}" for label, _, _ in series])
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
    for i, ((label, _, dashed), y) in enumerate(zip(series, ys)):
        screen_y = sy(y)
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

    ``bloch`` is a finite (n, 3) array of (u, v, w) with n >= 1; ValidationError
    otherwise. A fixed camera (no options) keeps the output deterministic: the
    unit sphere projects to a circle, the equator to an ellipse, and the
    trajectory to a polyline.
    """
    bloch = _finite(bloch, "bloch", float)
    if bloch.ndim != 2 or bloch.shape[1] != 3 or bloch.shape[0] == 0:
        raise ValidationError(f"bloch must have shape (n, 3) with n >= 1, got {bloch.shape}")
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
