"""Minimal deterministic SVG line charts (no external renderer)."""

from __future__ import annotations

from html import escape
from typing import Mapping

import numpy as np

__all__ = ["write_line_chart"]

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 160, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def write_line_chart(
    path,
    x: np.ndarray,
    ys: Mapping[str, np.ndarray],
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
) -> None:
    """Polyline chart of the named series against x."""
    x = np.asarray(x, dtype=float)
    if x.size == 0 or not ys:
        raise ValueError("nothing to plot")
    ylo = min(float(np.min(np.asarray(v))) for v in ys.values())
    yhi = max(float(np.max(np.asarray(v))) for v in ys.values())
    if yhi == ylo:
        yhi = ylo + 1.0
    xlo, xhi = float(np.min(x)), float(np.max(x))
    if xhi == xlo:
        xhi = xlo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return _MT + ph - (v - ylo) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>'
        )
    for tx in _ticks(xlo, xhi):
        parts.append(
            f'<line x1="{sx(tx):.2f}" y1="{_MT + ph}" x2="{sx(tx):.2f}" '
            f'y2="{_MT + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(tx):.2f}" y="{_MT + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{sy(ty):.2f}" x2="{_ML}" '
            f'y2="{sy(ty):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{sy(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + pw / 2:.2f}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(xlabel, quote=False)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MT + ph / 2:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {_MT + ph / 2:.2f})">{escape(ylabel, quote=False)}</text>'
        )
    for j, (name, yv) in enumerate(ys.items()):
        yv = np.asarray(yv, dtype=float)
        color = _COLORS[j % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, yv))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 18 * j
        parts.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(name, quote=False)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
