"""SVG charts: one number format, M4 reduction, byte identity and input checks.

Every coordinate is printed "%.2f" (``_fmt``). The per-point loops the charts
used before stay here as references: the bulk point formatter ``_points`` must
equal ``_fmt`` on every value, and the Bloch-sphere chart, which keeps every
point, must equal the loop's bytes as written by the charts' one writer,
``_write``. The two-lexsort M4 stays as the reference of the sort-free one.
"""

import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochpulse import ValidationError, svgplot
from blochpulse.svgplot import _BOX, _H, _W, _fmt, _m4, _points, _text, _write

_EDGES = [0.125, 0.375, 0.625, 2.5, -0.125, 0.0, -0.0, -0.001, -0.004, -0.005, 0.005,
          99.995, 99.994, 99.996, 1.10, 2.00, 10.0, 100.0, 3.05, 12.50, 1e6, -1e6,
          1e-300, 5e-324, 1e300, math.inf, -math.inf, math.nan]


def _reference_points(xs, ys) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))


def test_points_equal_fmt_on_edge_and_random_values():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        _EDGES,
        rng.uniform(-700.0, 700.0, 4000),
        np.round(rng.uniform(-50.0, 50.0, 2000), 1),  # end in .x0
        np.round(rng.uniform(-50.0, 50.0, 2000)),  # end in .00
        rng.integers(-800, 800, 2000) / 8.0,  # exact ties at the third decimal
        rng.standard_normal(2000) * 10.0 ** rng.integers(-4, 8, 2000),
    ])
    xs, ys = values, rng.permutation(values)
    assert _points(xs, ys) == _reference_points(xs, ys)
    assert _points(xs[:1], ys[:1]) == _reference_points(xs[:1], ys[:1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=20))
def test_points_equal_fmt_on_any_floats(pairs):
    xs, ys = zip(*pairs)
    assert _points(xs, ys) == _reference_points(xs, ys)


# the fast path's edges: |v| 100 just below and above 1e7, exact k/8 ties, signed zeros,
# the smallest subnormal and the non-finite values
_FAST_EDGES = [99999.99, 99999.994, 99999.995, 99999.999, float(np.nextafter(1e5, 0.0)), 1e5,
               float(np.nextafter(1e5, np.inf)), -99999.999, -1e5, 123456.789, -5e6,
               0.125, 0.375, 0.625, 0.875, -0.125, 1.125, 12345.625, 99999.875,
               0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=3000))
@example(_FAST_EDGES)
@example([k / 8.0 for k in range(-80, 81)])
@example([0.0, -0.0])
@example([5e-324])
@example([math.inf, -math.inf, math.nan, -math.nan])
@example([99999.995 + k * 1.5e-11 for k in range(-4, 5)])
def test_points_equal_fmt_on_lists_of_floats(values):
    xs, ys = values, values[::-1]
    assert _points(xs, ys) == _reference_points(xs, ys)


def _reference_m4(column, y):
    """The two-lexsort M4 the sort-free one replaced."""
    idx = np.arange(len(y))
    by_index = np.lexsort((idx, column))
    by_value = np.lexsort((idx, y, column))
    sorted_column = column[by_index]
    first = np.flatnonzero(np.r_[True, sorted_column[1:] != sorted_column[:-1]])
    last = np.r_[first[1:], len(y)] - 1
    return np.unique(np.concatenate([by_index[first], by_index[last],
                                     by_value[first], by_value[last]]))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 500, 12001])
def test_m4_equals_the_lexsort_reference_on_any_column_order(n):
    rng = np.random.default_rng(n)
    for columns in (1, 3, max(n // 20, 1), n):
        column = np.floor(rng.uniform(0.0, columns, n))  # unsorted
        for y in (rng.standard_normal(n),
                  rng.integers(-2, 3, n).astype(float),  # many ties in value
                  np.zeros(n),
                  np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)):
            np.testing.assert_array_equal(_m4(column, y), _reference_m4(column, y))
            order = np.argsort(column, kind="stable")
            np.testing.assert_array_equal(_m4(column[order], y[order]),
                                          _reference_m4(column[order], y[order]))


@pytest.mark.parametrize("x, series, name", [
    ([0.0, 1.0, 2.0], [("a", [0.0, math.nan, 1.0], False)], "series 'a' must be finite"),
    ([0.0, 1.0, 2.0], [("a", [0.0, math.inf, 1.0], False)], "series 'a' must be finite"),
    ([0.0, 1.0, 2.0], [("a", [0.0, 1.0], False)], r"series 'a' must have shape \(3,\)"),
    ([0.0, 1.0, 2.0], [("a", [0.0, 1.0, 2.0], False), ("b", [[0.0, 1.0, 2.0]], True)],
     r"series 'b' must have shape \(3,\)"),
    ([0.0, 1.0, 2.0], [("a", ["0", "1", "2"], False)], "series 'a' must be numeric"),
    ([0.0, -math.inf, 2.0], [("a", [0.0, 1.0, 2.0], False)], "x must be finite"),
    ([], [("a", [], False)], "x must be 1-D with at least one value"),
    ([[0.0, 1.0]], [("a", [[0.0, 1.0]], False)], "x must be 1-D with at least one value"),
    ([0.0, 1.0, 2.0], [], "series must hold at least one"),
    # finite values whose padded range is wider than the float range
    ([0.0, 1.0], [("a", [1e308, -1e308], False)], "range of series 'a' is wider than the float"),
    ([0.0, 1.0], [("a", [1e308, 0.0], False), ("b", [0.0, -1e308], True)],
     "range of series 'b' and series 'a' is wider"),
    ([-1e308, 1e308], [("a", [0.0, 1.0], False)], "range of x is wider than the float range"),
])
def test_line_chart_rejects_bad_arrays_by_name(tmp_path, x, series, name):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValidationError, match=name):
        svgplot.line_chart(str(path), "t", "x", "y", x, series)
    assert not path.exists()


@pytest.mark.parametrize("bloch, name", [
    ([[0.0, 0.0, 1.0], [math.nan, math.nan, math.nan]], "bloch must be finite"),
    ([[0.0, 0.0, math.inf]], "bloch must be finite"),
    (np.zeros((0, 3)), r"bloch must have shape \(n, 3\)"),
    (np.zeros((4, 2)), r"bloch must have shape \(n, 3\)"),
    ([0.0, 0.0, 1.0], r"bloch must have shape \(n, 3\)"),
    ([["u", "v", "w"]], "bloch must be numeric"),
])
def test_bloch_chart_rejects_bad_arrays_by_name(tmp_path, bloch, name):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValidationError, match=name):
        svgplot.bloch_chart(str(path), "t", bloch)
    assert not path.exists()


def test_m4_keeps_the_extremes_of_every_column_in_index_order():
    rng = np.random.default_rng(3)
    for n, columns in ((1, 1), (2, 1), (500, 40), (12001, 552)):
        x = np.sort(rng.uniform(0.0, columns, n))
        column = np.floor(x)
        y = np.cumsum(rng.standard_normal(n))
        y[rng.integers(0, n, n // 10)] = 0.0  # ties in value
        keep = _m4(column, y)
        assert np.all(np.diff(keep) > 0)
        assert keep[0] == 0 and keep[-1] == n - 1
        for c in np.unique(column):
            members = np.flatnonzero(column == c)
            kept = keep[column[keep] == c]
            assert 1 <= len(kept) <= 4
            assert kept[0] == members[0] and kept[-1] == members[-1]
            assert y[kept].min() == y[members].min()
            assert y[kept].max() == y[members].max()


def _polyline_points(path):
    root = ET.parse(path).getroot()
    return [np.array([[float(v) for v in p.split(",")] for p in el.get("points").split()])
            for el in root.iter("{http://www.w3.org/2000/svg}polyline")]


def test_line_chart_draws_at_most_four_points_per_pixel_column(tmp_path):
    t = np.linspace(0.0, 100.0, 12001)
    wiggle = np.sin(t) + 0.01 * np.random.default_rng(5).standard_normal(t.size)
    path = tmp_path / "chart.svg"
    svgplot.line_chart(str(path), "t", "x", "y", t, [("a", wiggle, False), ("b", t, True)])
    lines = _polyline_points(path)
    assert len(lines) == 2
    left, _, right, _ = _BOX
    for pts in lines:
        # two-decimal screen x: the column is the integer part of the printed value
        _, counts = np.unique(np.floor(pts[:, 0]), return_counts=True)
        assert counts.max() <= 4
        assert np.all(np.diff(pts[:, 0]) >= 0.0)
        assert left <= pts[0, 0] and pts[-1, 0] <= right


def _reference_bloch_chart(path, title, bloch):
    """The per-point bloch_chart the vectorised one replaced."""
    cx, cy, scale = _W / 2.0, _H / 2.0 + 10.0, 185.0
    yaw, tilt = 0.6, 0.42
    cyaw, syaw, ctilt, stilt = math.cos(yaw), math.sin(yaw), math.cos(tilt), math.sin(tilt)

    def proj(u, v, w):
        h = -u * syaw + v * cyaw
        d = u * cyaw + v * syaw
        vert = w * ctilt - d * stilt
        return cx + scale * h, cy - scale * vert

    def polyline(xs, ys, color, dash=None, width=1.6):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
                f'{extra} points="{pts}"/>')

    el = [f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(scale)}" '
          f'fill="none" stroke="#57606a"/>']
    s = np.linspace(0.0, 2.0 * math.pi, 181)
    eq = [proj(math.cos(a), math.sin(a), 0.0) for a in s]
    el.append(polyline([p[0] for p in eq], [p[1] for p in eq], "#8c959f", dash="4,4",
                       width=1.0))
    for axis, label in (((1.1, 0.0, 0.0), "u"), ((0.0, 1.1, 0.0), "v"), ((0.0, 0.0, 1.1), "w")):
        x2, y2 = proj(*axis)
        el.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                  f'stroke="#8c959f" stroke-width="1"/>')
        el.append(_text(x2, y2 - 4, label, 12))
    pts = [proj(u, v, w) for u, v, w in bloch]
    el.append(polyline([p[0] for p in pts], [p[1] for p in pts], "#1f6feb"))
    x0, y0 = pts[0]
    x1, y1 = pts[-1]
    el.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="4" fill="#1a7f37"/>')
    el.append(f'<circle cx="{_fmt(x1)}" cy="{_fmt(y1)}" r="4" fill="#d73a49"/>')
    el.append(_text(_W / 2.0, 16, title, 13))
    _write(path, el)


def test_bloch_chart_bytes_equal_the_per_point_loop(tmp_path):
    rng = np.random.default_rng(11)
    r = rng.standard_normal((3000, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    r[::7] *= rng.uniform(0.0, 1.0, (len(r[::7]), 1))
    r[:4] = [[0.0, 0.0, 1.0], [-0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
    svgplot.bloch_chart(str(new), "trajectory", r)
    _reference_bloch_chart(str(ref), "trajectory", r)
    assert new.read_bytes() == ref.read_bytes()
    assert len(re.findall(r"<polyline", new.read_text())) == 2
