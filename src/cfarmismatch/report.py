"""Deterministic result writers: CSV with a metadata header, JSON, minimal SVG.

Floats are rendered with repr (shortest round-trip form), so identical inputs
produce byte-identical files and every number can be parsed back losslessly.
SVG output is a self-contained polyline/scatter plot; no plotting library.
"""

from __future__ import annotations

import html
import json

import numpy as np

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2", "#111111",
)

# SVG canvas size in pixels.
_WIDTH, _HEIGHT = 720, 480


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text; quotes are left as they are."""
    return html.escape(text, quote=False)


def fmt_value(val) -> str:
    """Canonical text for one CSV cell; None becomes the empty cell."""
    if val is None:
        return ""
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    return str(val)


def write_csv(path, fieldnames, rows, meta: dict) -> None:
    """CSV with '# key: value' metadata comment lines before the header."""
    lines = [f"# {key}: {meta[key]}" for key in meta]
    lines.append(",".join(fieldnames))
    for row in rows:
        lines.append(",".join(fmt_value(row.get(name)) for name in fieldnames))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse a write_csv file back into (meta, rows of str); '' stays ''."""
    meta: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    fieldnames: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
                continue
            cells = line.split(",")
            if fieldnames is None:
                fieldnames = cells
            else:
                rows.append(dict(zip(fieldnames, cells)))
    return meta, rows


def write_json(path, payload: dict, meta: dict) -> None:
    obj = {"meta": meta}
    obj.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def svg_plot(path, series, title: str, xlabel: str, ylabel: str, meta: dict,
             scatter: bool = False, logx: bool = False) -> None:
    """Self-contained line/scatter SVG.

    ``series`` is a list of (label, x, y) triples. With ``logx`` the x data
    must be positive and the axis is drawn in log10 units with decade-style
    labels. Metadata is embedded in a <desc> element as JSON.
    """
    if not series:
        raise ValueError("svg_plot needs at least one series")
    ml, mr, mt, mb = 64, 180, 40, 48
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def xt(x):
        return np.log10(x) if logx else np.asarray(x, dtype=float)

    xs = np.concatenate([xt(np.asarray(s[1], dtype=float)) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    xs = xs[np.isfinite(xs)]
    ys = ys[np.isfinite(ys)]
    if xs.size == 0 or ys.size == 0:
        raise ValueError("svg_plot needs finite data")
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f"<desc>{_escape(json.dumps(meta, sort_keys=True))}</desc>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{_escape(title)}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="#222"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="#222"/>',
    ]
    # Five ticks per axis, spanning the data without the padding.
    for t in np.linspace(x0 + padx, x1 - padx, 5):
        lab = f"{10 ** t:.3g}" if logx else f"{t:.4g}"
        out.append(f'<line x1="{px(t):.1f}" y1="{mt + ph}" x2="{px(t):.1f}" y2="{mt + ph + 5}" stroke="#222"/>')
        out.append(f'<text x="{px(t):.1f}" y="{mt + ph + 18}" text-anchor="middle">{lab}</text>')
    for t in np.linspace(y0 + pady, y1 - pady, 5):
        out.append(f'<line x1="{ml - 5}" y1="{py(t):.1f}" x2="{ml}" y2="{py(t):.1f}" stroke="#222"/>')
        out.append(f'<text x="{ml - 8}" y="{py(t) + 4:.1f}" text-anchor="end">{t:.4g}</text>')
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{_escape(ylabel)}</text>'
    )
    for i, (label, sx, sy) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        sx = xt(np.asarray(sx, dtype=float))
        sy = np.asarray(sy, dtype=float)
        keep = np.isfinite(sx) & np.isfinite(sy)
        sx, sy = sx[keep], sy[keep]
        if scatter:
            for j in range(sx.size):
                out.append(
                    f'<circle cx="{px(sx[j]):.2f}" cy="{py(sy[j]):.2f}" r="3" '
                    f'fill="{color}" fill-opacity="0.7"/>'
                )
        else:
            pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(sx, sy))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 18 * i
        lx = ml + pw + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="3"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{_escape(str(label))}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def step_curve(values, fractions):
    """Turn ECDF support points into a right-continuous staircase polyline."""
    values = np.asarray(values, dtype=float)
    fractions = np.asarray(fractions, dtype=float)
    x = np.repeat(values, 2)
    y = np.empty_like(x)
    y[0] = 0.0
    y[1::2] = fractions
    y[2::2] = fractions[:-1]
    return x, y
