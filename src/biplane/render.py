"""SVG rendering of layered graphs: layer 1 solid, layer 2 dashed, shared
edges solid and thicker; fitted to a 1000 x 1000 viewbox with a 5% margin."""
from __future__ import annotations

from .layered import BOTH, LAYER1, LAYER2, LayeredGraph

_SIZE = 1000
_MARGIN = 0.05


def render_svg(g: LayeredGraph) -> str:
    xs, ys = g.ps.xs, g.ps.ys
    lo_x, hi_x = min(xs, default=0), max(xs, default=0)
    lo_y, hi_y = min(ys, default=0), max(ys, default=0)
    span = max(hi_x - lo_x, hi_y - lo_y, 1)
    scale = _SIZE * (1 - 2 * _MARGIN) / span
    off = _SIZE * _MARGIN

    def sx(x: int) -> float:
        return off + (x - lo_x) * scale

    def sy(y: int) -> float:
        return _SIZE - off - (y - lo_y) * scale  # y grows upward in the plane

    styles = {
        LAYER1: 'stroke="#202020" stroke-width="2"',
        LAYER2: 'stroke="#1f6fd0" stroke-width="2" stroke-dasharray="9,6"',
        BOTH: 'stroke="#202020" stroke-width="3.5"',
    }
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'  <rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for (u, v), tag in g.layers.items():
        out.append(f'  <line x1="{sx(xs[u]):.2f}" y1="{sy(ys[u]):.2f}" '
                   f'x2="{sx(xs[v]):.2f}" y2="{sy(ys[v]):.2f}" {styles[tag]}/>')
    for i, (x, y) in enumerate(zip(xs, ys)):
        out.append(f'  <circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="5" '
                   'fill="#d03020" stroke="black" stroke-width="1"/>')
        out.append(f'  <text x="{sx(x) + 8:.2f}" y="{sy(y) - 8:.2f}" '
                   f'font-family="monospace" font-size="14">{i}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
