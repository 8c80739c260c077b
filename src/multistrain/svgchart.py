"""Small deterministic SVG line-chart writer.

Output is plain SVG 1.1 with exactly one ``<polyline>`` per series, which
keeps files diffable and easy to assert on.  No timestamps or generated ids
are embedded, so identical inputs give identical bytes.

Pixel coordinates are computed on whole numpy arrays, in the operation order
of the scalar formula.  The points are written as ``"%.2f,%.2f"`` by
``ms_format_points`` of the compiled library once it is loaded, and by one
``%`` call per point until then or without ``cc``.  The C formatter writes
a point whose two texts have an integer part below 1000 in magnitude, as
every point inside the chart has; any other point takes the ``%`` call too,
so the bytes are Python's either way and equal those of the earlier
per-point writer, which the tests keep as the oracle.  Title, axis and
series labels are XML-escaped.

A regular file at a chart's path is replaced by a new file, and anything
else is written through (:func:`integrate.open_new`).  Truncating a file
and writing it again makes ext4 flush it on close, a new file is written
back on the filesystem's own schedule, and writing a temporary file and
renaming it was measured slower.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import integrate

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
    "#bcbd22", "#7f7f7f",
)

MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 36
MARGIN_BOTTOM = 44
MAX_POINTS = 5000
WIDTH = 960
HEIGHT = 520
TICK_COUNT = 5
X_LABEL = "time (days)"


def _ticks(lo: float, hi: float, axis: str) -> list[float]:
    """Round tick values in [lo, hi]; the caller ensures ``hi > lo``.

    ValueError names the axis when ``hi - lo`` overflows, or when the step
    rounds to 0 or cannot move a tick value, which would repeat it forever:
    a step must exceed half the spacing of doubles at the range's largest
    magnitude.
    """
    raw = (hi - lo) / TICK_COUNT
    mag = 10.0 ** math.floor(math.log10(raw)) if 0.0 < raw < math.inf else 0.0
    step = next((m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag), 0.0)
    if not step > math.ulp(max(abs(lo), abs(hi))) / 2:
        problem = "spans more than a double holds" if raw == math.inf else "is too narrow"
        raise ValueError(f"line_chart {axis} axis from {lo!r} to {hi!r} {problem}")
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    # Near the largest double the bound rounds to inf; stop when v overflows.
    while v <= hi + 1e-12 * step and v < math.inf:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _tick_labels(ticks: list[float]) -> list[str]:
    """Labels of an axis's ticks: ``:g`` (six significant digits) when those
    all differ, else the fewest significant digits, up to 17, that tell
    every tick apart, as on an axis a few units wide at 1e7."""
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _flat_range(v: float) -> tuple[float, float]:
    """The axis range of a flat ``v``: ``v`` to ``v + 1`` where doubles lie at
    most 0.25 apart, below 2^51 in magnitude, so that its tick step 0.2
    moves a value, and for a non-finite ``v``, which ``_ticks`` rejects;
    beyond, eight spacings of doubles at ``v``, below it where above would
    overflow."""
    if not math.isfinite(v) or max(abs(v), abs(v + 1.0)) < 2.0**51:
        return v, v + 1.0
    w = 8.0 * math.ulp(v)
    return (v, v + w) if v + w < math.inf else (v - w, v)


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    does; importing that module pulls in ``urllib.request`` (about 7 MB)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _decimate(n: int):
    """Index of the points drawn out of ``n``: all up to ``MAX_POINTS``, else
    every ``stride``-th and the last, the same for every series of a chart."""
    if n <= MAX_POINTS:
        return slice(None)
    stride = -(-n // MAX_POINTS)
    keep = np.arange(0, n, stride)
    if keep[-1] != n - 1:
        keep = np.append(keep, n - 1)
    return keep


def _checked_series(x: np.ndarray, series) -> list[tuple[str, np.ndarray]]:
    """Series as float arrays; ValueError names one of the wrong length or
    holding a non-finite value."""
    if not np.all(np.isfinite(x)):
        raise ValueError("line_chart x holds a non-finite value")
    out = []
    for label, ys in series:
        ys = np.asarray(ys, dtype=float)
        if ys.shape != x.shape:
            raise ValueError(
                f"series {label!r} has {ys.size} values but x has {x.size}"
            )
        if not np.all(np.isfinite(ys)):
            raise ValueError(f"series {label!r} holds a non-finite value")
        out.append((label, ys))
    return out


def line_chart(
    path,
    title: str,
    x: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    y_label: str = "",
    y_min: float | None = None,
    y_max: float | None = None,
) -> None:
    """Write a line chart of the named series against a shared x axis.

    Raises ``ValueError`` naming the series when one differs in length from
    ``x`` or holds a non-finite value, when ``x`` holds a non-finite value,
    and naming the axis when its range is too wide or too narrow to place
    ticks on; the file is not opened then.
    """
    if not series:
        raise ValueError("line_chart needs at least one series")
    x = np.asarray(x, dtype=float)
    series = _checked_series(x, series)
    lo_x, hi_x = float(x.min()), float(x.max())
    lo_y = min(float(ys.min()) for _, ys in series) if y_min is None else y_min
    hi_y = max(float(ys.max()) for _, ys in series) if y_max is None else y_max
    if hi_y <= lo_y:
        lo_y, hi_y = _flat_range(lo_y)
    if hi_x <= lo_x:
        lo_x, hi_x = _flat_range(lo_x)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v):
        return MARGIN_LEFT + (v - lo_x) / (hi_x - lo_x) * plot_w

    def py(v):
        return MARGIN_TOP + (hi_y - v) / (hi_y - lo_y) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
    )
    axis_style = 'stroke="#444444" stroke-width="1"'
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    out.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" {axis_style}/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" {axis_style}/>')
    x_ticks = _ticks(lo_x, hi_x, "x")
    for tx, label in zip(x_ticks, _tick_labels(x_ticks)):
        p = px(tx)
        out.append(f'<line x1="{_fmt(p)}" y1="{y0}" x2="{_fmt(p)}" y2="{y0 + 5}" {axis_style}/>')
        out.append(
            f'<text x="{_fmt(p)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    y_ticks = _ticks(lo_y, hi_y, "y")
    for ty, label in zip(y_ticks, _tick_labels(y_ticks)):
        p = py(ty)
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(p)}" x2="{x0}" y2="{_fmt(p)}" {axis_style}/>')
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(p + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{X_LABEL}</text>'
    )
    if y_label:
        cy = MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="14" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 14 {cy:.1f})">{_escape(y_label)}</text>'
        )

    keep = _decimate(len(x))
    xs_px = px(x[keep])
    n_points = xs_px.size
    format_points = integrate._kernel("ms_format_points", len(series) * n_points)
    with integrate.open_new(path) as fh:
        fh.write(("\n".join(out) + "\n").encode("utf-8"))
        for idx, (label, ys) in enumerate(series):
            color = PALETTE[idx % len(PALETTE)]
            ys_py = py(ys[keep])
            fh.write(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="'.encode()
            )
            integrate.write_text(
                fh, format_points, (xs_px.ctypes.data, ys_py.ctypes.data), (n_points, 2),
                lambda lo, hi: (" " if lo else "") + " ".join([
                    "%.2f,%.2f" % p
                    for p in zip(xs_px[lo:hi].tolist(), ys_py[lo:hi].tolist())
                ]),
            )
            ly = MARGIN_TOP + 14 + 16 * idx
            lx = MARGIN_LEFT + plot_w - 150
            fh.write((
                f'"/>\n<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{_escape(label)}</text>\n'
            ).encode("utf-8"))
        fh.write(b"</svg>\n")
