"""Minimal hand-rolled SVG 1.1 renderers for the CLI artifacts.

CSV stays the canonical output; these produce small self-contained
documents with no styling dependencies.  All rendering is a pure function
of the parsed rows, so rerunning a command reproduces the file byte for
byte.
"""

from __future__ import annotations

import math

WIDTH = 640
HEIGHT = 420
MARGIN = 56
#: paths drawn by ``render_path_fan``, the first by path index
FAN_MAX_PATHS = 200


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _scale(lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo
    if span <= 0.0:
        span = 1.0
        lo -= 0.5
    rate = (out_hi - out_lo) / span

    def to(v: float) -> float:
        return out_lo + (v - lo) * rate

    return to


def _document(body: list[str], title: str) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<title>{title}</title>\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 14}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) // 2}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(y0 + y1) // 2})">{y_label}</text>',
    ]


def _tick_labels(lo: float, hi: float, to, vertical: bool) -> list[str]:
    out = []
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        pos = to(v)
        if vertical:
            out.append(f'<text x="{MARGIN - 6}" y="{_fmt(pos + 4)}" '
                       f'font-size="11" text-anchor="end">{_fmt(v)}</text>')
        else:
            out.append(f'<text x="{_fmt(pos)}" y="{HEIGHT - MARGIN + 16}" '
                       f'font-size="11" text-anchor="middle">'
                       f'{_fmt(v)}</text>')
    return out


def render_value_ladder(rows: list[dict]) -> str:
    """Staircase of per-level values, error bars when a column is present."""
    if not rows:
        raise ValueError("no data rows")
    levels = [float(r["level"]) for r in rows]
    values = [float(r["value"]) for r in rows]
    ses = [float(r.get("se", 0.0) or 0.0) for r in rows]
    lo_v = min(v - 3 * s for v, s in zip(values, ses))
    hi_v = max(v + 3 * s for v, s in zip(values, ses))
    pad = 0.05 * (hi_v - lo_v or 1.0)
    to_x = _scale(min(levels), max(levels), MARGIN, WIDTH - MARGIN)
    to_y = _scale(lo_v - pad, hi_v + pad, HEIGHT - MARGIN, MARGIN)
    body = _axes("penalization level", "value at the initial point")
    body += _tick_labels(lo_v - pad, hi_v + pad, to_y, vertical=True)
    body += _tick_labels(min(levels), max(levels), to_x, vertical=False)
    pts = []
    prev = None
    for lv, v in zip(levels, values):
        x, y = to_x(lv), to_y(v)
        if prev is not None:
            pts.append(f"{_fmt(x)},{_fmt(prev)}")   # staircase riser
        pts.append(f"{_fmt(x)},{_fmt(y)}")
        prev = y
    body.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                'stroke="steelblue" stroke-width="2"/>')
    for lv, v, s in zip(levels, values, ses):
        x, y = to_x(lv), to_y(v)
        if s > 0.0:
            body.append(f'<line x1="{_fmt(x)}" y1="{_fmt(to_y(v - 3 * s))}" '
                        f'x2="{_fmt(x)}" y2="{_fmt(to_y(v + 3 * s))}" '
                        'stroke="gray" stroke-width="1"/>')
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" '
                    'fill="steelblue"/>')
    return _document(body, "value ladder")


def _heat_color(u: float) -> str:
    """Diverging blue-white-red on [-1, 1]."""
    u = max(-1.0, min(1.0, u))
    if u >= 0.0:
        g = int(round(255 * (1.0 - u)))
        return f"rgb(255,{g},{g})"
    g = int(round(255 * (1.0 + u)))
    return f"rgb({g},{g},255)"


def render_residual_heatmap(rows: list[dict]) -> str:
    """Cells on the (time, state) product, color scale in the legend."""
    if not rows:
        raise ValueError("no data rows")
    if "x1" in rows[0] or "running" in rows[0]:
        raise ValueError("residual heat map supports one state axis")
    finite = [(float(r["t"]), float(r["x0"]), float(r["residual"]))
              for r in rows if math.isfinite(float(r["residual"]))]
    if not finite:
        raise ValueError("no finite residual cells")
    ts = sorted({t for t, _, _ in finite})
    xs = sorted({x for _, x, _ in finite})
    vmax = max(abs(v) for _, _, v in finite) or 1.0
    to_x = _scale(min(ts), max(ts), MARGIN, WIDTH - MARGIN)
    to_y = _scale(min(xs), max(xs), HEIGHT - MARGIN, MARGIN)
    cw = (WIDTH - 2 * MARGIN) / max(len(ts), 1)
    ch = (HEIGHT - 2 * MARGIN) / max(len(xs), 1)
    body = _axes("time", "state")
    body += _tick_labels(min(xs), max(xs), to_y, vertical=True)
    body += _tick_labels(min(ts), max(ts), to_x, vertical=False)
    for t, x, v in finite:
        body.append(
            f'<rect x="{_fmt(to_x(t) - cw / 2)}" '
            f'y="{_fmt(to_y(x) - ch / 2)}" '
            f'width="{_fmt(cw)}" height="{_fmt(ch)}" '
            f'fill="{_heat_color(v / vmax)}"/>')
    legend_x = WIDTH - MARGIN + 8
    for i in range(11):
        u = -1.0 + 0.2 * i
        body.append(f'<rect x="{legend_x}" '
                    f'y="{_fmt(HEIGHT - MARGIN - (i + 1) * 18)}" '
                    f'width="14" height="18" fill="{_heat_color(u)}"/>')
    body.append(f'<text x="{legend_x}" y="{MARGIN - 8}" font-size="11">'
                f'&#177;{_fmt(vmax)}</text>')
    return _document(body, "residual heat map")


def render_path_fan(rows: list[dict]) -> str:
    """First state coordinate of each path over time, thin strokes."""
    if not rows:
        raise ValueError("no data rows")
    paths: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        paths.setdefault(r["path"], []).append((float(r["t"]),
                                                float(r["x0"])))
    keys = sorted(paths, key=int)[:FAN_MAX_PATHS]
    ts = [t for k in keys for t, _ in paths[k]]
    vs = [v for k in keys for _, v in paths[k]]
    to_x = _scale(min(ts), max(ts), MARGIN, WIDTH - MARGIN)
    to_y = _scale(min(vs), max(vs), HEIGHT - MARGIN, MARGIN)
    body = _axes("time", "state")
    body += _tick_labels(min(vs), max(vs), to_y, vertical=True)
    body += _tick_labels(min(ts), max(ts), to_x, vertical=False)
    for k in keys:
        pts = " ".join(f"{_fmt(to_x(t))},{_fmt(to_y(v))}"
                       for t, v in paths[k])
        body.append(f'<polyline points="{pts}" fill="none" '
                    'stroke="steelblue" stroke-width="0.6" '
                    'stroke-opacity="0.55"/>')
    return _document(body, "path fan")
