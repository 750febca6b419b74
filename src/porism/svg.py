"""Deterministic SVG rendering of scenes in the affine chart x1/x0, x2/x0.

The conic appears as the parabola y = x^2, sampled at `samples` parameter
values: half uniformly across the window, half through the reciprocal chart
to cover the neighborhood of the parameter at infinity. All geometry is
computed exactly upstream; floats appear only in this final projection, with
fixed-precision formatting so identical inputs give identical bytes.
"""
from __future__ import annotations

import math

from .conic import veronese
from .scene import SceneDocument

_STYLE = (
    ".conic{stroke:#1f5fbf;stroke-width:1.5;fill:none}"
    ".cfgline{stroke:#333333;stroke-width:1}"
    ".edge{stroke:#c2347b;stroke-width:1}"
    ".vertex{fill:#c2347b}"
    ".point{fill:#1c7a4c}"
    ".label{font:10px sans-serif;fill:#1c7a4c}"
)

_SIZE = 640
_MARGIN = 20


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def _floats(coords: tuple) -> tuple:
    """Homogeneous coordinates as floats. Ints past the float range (a dual
    chain at n = 256 reaches 3700 bits) are divided first, all by one power
    of two, which keeps their ratios."""
    try:
        return tuple(float(c) for c in coords)
    except OverflowError:
        shift = max(abs(c).bit_length() for c in coords if type(c) is int) - 1000
        return tuple(float(c / (1 << shift)) for c in coords)


def _chart(p) -> tuple[float, float] | None:
    """Affine coordinates of a projective point, or None at infinity."""
    x0, x1, x2 = _floats(p.coords)
    scale = max(abs(x0), abs(x1), abs(x2))
    if abs(x0) <= 1e-9 * scale:
        return None
    return (x1 / x0, x2 / x0)


def _window(scene: SceneDocument) -> float:
    """Half-width of the square viewport, sized so every configuration line
    and every finite chain vertex is visible."""
    candidates = [2.5]
    for l in scene.lines:
        l0, l1, l2 = _floats(l.coords)
        norm = math.hypot(l1, l2)
        if norm > 1e-12:
            foot = abs(l0) / norm
            candidates.append(foot)
    for _, p in scene.points:
        xy = _chart(p)
        if xy:
            candidates.extend(abs(v) for v in xy)
    for chain in scene.chains:
        for t in chain:
            xy = _chart(veronese(t))
            if xy:
                candidates.extend(abs(v) for v in xy)
    return 1.25 * max(candidates)


class _Projector:
    def __init__(self, half_width: float):
        self.w = half_width
        self.scale = (_SIZE - 2 * _MARGIN) / (2 * half_width)

    def pixel(self, x: float, y: float) -> tuple[float, float]:
        return (
            _MARGIN + (x + self.w) * self.scale,
            _SIZE - _MARGIN - (y + self.w) * self.scale,
        )


def _conic_path(proj: _Projector, samples: int) -> str:
    w = proj.w
    half = max(samples // 2, 2)
    ts = [-w + k * (2 * w) / (half - 1) for k in range(half)]
    rest = samples - half
    # reciprocal chart: u = 1/t sweeping a punctured neighborhood of zero
    for k in range(rest):
        u = -1 / w + (k + 0.5) * (2 / w) / rest
        if abs(u) > 1e-12:
            ts.append(1 / u)
    ts.sort()
    bound = 3 * w
    runs = []
    current = []
    for t in ts:
        x, y = t, t * t
        if abs(x) <= bound and abs(y) <= bound:
            current.append(proj.pixel(x, y))
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    pieces = []
    for run in runs:
        if len(run) < 2:
            continue
        coords = " L ".join(f"{_fmt(px)} {_fmt(py)}" for px, py in run)
        pieces.append(f"M {coords}")
    return " ".join(pieces)


def _clip_line(l, w: float) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Visible segment of the line l0 + l1 x + l2 y = 0 in [-w, w]^2."""
    l0, l1, l2 = _floats(l.coords)
    pts = []
    eps = 1e-9 * max(1.0, w)
    if abs(l2) > 1e-12:
        for x in (-w, w):
            y = -(l0 + l1 * x) / l2
            if -w - eps <= y <= w + eps:
                pts.append((x, y))
    if abs(l1) > 1e-12:
        for y in (-w, w):
            x = -(l0 + l2 * y) / l1
            if -w - eps <= x <= w + eps:
                pts.append((x, y))
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if best is None or d > best[0]:
                best = (d, pts[i], pts[j])
    if best is None or best[0] < eps:
        return None
    return best[1], best[2]


def render_scene(scene: SceneDocument, samples: int = 256) -> str:
    """Render the scene to an SVG document string."""
    if samples < 8:
        raise ValueError("need at least 8 samples")
    proj = _Projector(_window(scene))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f"<style>{_STYLE}</style>",
    ]
    path = _conic_path(proj, samples)
    parts.append(f'<path class="conic" d="{path}"/>')
    for l in scene.lines:
        seg = _clip_line(l, proj.w)
        if seg is None:
            continue
        (xa, ya), (xb, yb) = seg
        pa, pb = proj.pixel(xa, ya), proj.pixel(xb, yb)
        parts.append(
            f'<line class="cfgline" x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
            f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}"/>'
        )
    for chain in scene.chains:
        charted = [_chart(veronese(t)) for t in chain]
        for a, b in zip(charted, charted[1:]):
            if a is None or b is None:
                continue
            pa, pb = proj.pixel(*a), proj.pixel(*b)
            parts.append(
                f'<line class="edge" x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
                f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}"/>'
            )
        for xy in charted[:-1] if chain and chain[0] == chain[-1] else charted:
            if xy is None:
                continue
            px, py = proj.pixel(*xy)
            parts.append(
                f'<circle class="vertex" cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5"/>'
            )
    for name, p in scene.points:
        xy = _chart(p)
        if xy is None:
            continue
        px, py = proj.pixel(*xy)
        parts.append(
            f'<circle class="point" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3"/>'
            f'<text class="label" x="{_fmt(px + 5)}" y="{_fmt(py - 5)}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
