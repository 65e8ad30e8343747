"""Deterministic SVG pictures of the upper half-plane of tilt parameters.

A scene holds exact data — the search window, the wall circles, the
slope-zero hyperbola of the total class, the vanishing circle of the
quadratic positivity form — and rendering converts to floats only when
formatting coordinates, always with six decimals.  Rendering the same scene
twice yields identical bytes, which the golden-file tests rely on.

Walls are drawn as upper semicircles (elliptical arcs, since the two axes
carry different scales), the hyperbola as a sampled polyline, and the
positivity circle as a dashed arc.  Each wall arc carries its exact center
and squared radius as a text label, so the picture doubles as a readable
summary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chern import ChernCharacter
from .walls import (
    DEFAULT_REGION,
    Circle,
    Region,
    WallCandidate,
    bmt_zero_circle,
    enumerate_tilt_walls,
)

WIDTH = 840
HEIGHT = 560
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 30
MARGIN_BOTTOM = 60
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

HYPERBOLA_SAMPLES = 240


@dataclass(frozen=True)
class Scene:
    """Exact description of one picture."""

    region: Region
    walls: tuple[WallCandidate, ...]
    hyperbola: Optional[ChernCharacter]
    bmt: Optional[Circle]
    caption: str


def build_scene(
    v: ChernCharacter,
    region: Region = DEFAULT_REGION,
    s: Optional[Fraction] = None,
) -> Scene:
    """Assemble the standard picture for a total class over a window.

    The slope-zero hyperbola only exists for nonzero rank; the caption
    records the class and, when given, the extra stability parameter (which
    labels the picture but does not move any tilt wall).  A window that
    :func:`render_svg` cannot draw is refused before the search.
    """
    _float_window(region)
    walls = tuple(enumerate_tilt_walls(v, region))
    hyperbola = v if v.r != 0 else None
    caption = f"tilt walls for {v}"
    if s is not None:
        caption += f", s = {s}"
    return Scene(region, walls, hyperbola, bmt_zero_circle(v), caption)


_BEYOND_FLOATS = "the picture has no float image: a coordinate is beyond the float range"


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(_BEYOND_FLOATS)
    return f"{value:.6f}"


def _float_window(region: Region) -> tuple[float, float, float]:
    """``beta_min``, ``beta_max`` and ``sqrt(alpha_sq_max)`` as floats; a
    :class:`ValueError` when a bound overflows or a scale is not finite."""
    try:
        beta_min, beta_max, alpha_sq_max = map(
            float, (region.beta_min, region.beta_max, region.alpha_sq_max))
    except OverflowError:
        beta_min = beta_max = alpha_sq_max = math.nan  # fails every test below
    if not (beta_min < beta_max and 0 < PLOT_W / (beta_max - beta_min) < math.inf
            and alpha_sq_max > 0):
        raise ValueError("the plot window has no float image: a bound is beyond"
                         " the float range, or its width or height rounds to zero")
    return beta_min, beta_max, math.sqrt(alpha_sq_max)


def render_svg(scene: Scene) -> bytes:
    """Render a scene to SVG bytes; same scene, same bytes.  A
    :class:`ValueError` when a coordinate of the class's own curves has no
    finite float image."""
    try:
        return _render(scene)
    except OverflowError:
        raise ValueError(_BEYOND_FLOATS) from None


def _render(scene: Scene) -> bytes:
    region = scene.region
    beta_min, beta_max, alpha_max = _float_window(region)
    scale_x = PLOT_W / (beta_max - beta_min)
    scale_y = PLOT_H / alpha_max

    def px(beta: float) -> float:
        return MARGIN_LEFT + (beta - beta_min) * scale_x

    def py(alpha: float) -> float:
        return MARGIN_TOP + PLOT_H - alpha * scale_y

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f"<title>{scene.caption}</title>")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        '<clipPath id="plot-area">'
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}"/>'
        "</clipPath>"
    )

    y0 = py(0.0)
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y0)}" x2="{MARGIN_LEFT + PLOT_W}"'
        f' y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}"'
        f' y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    )
    # The first of 1, 2, 5, 10, 20, ... that leaves at most 13 ticks: step 1
    # on the default window, and a bounded picture on any window.
    steps = (s * 10**k for k in itertools.count() for s in (1, 2, 5))
    beta_step = next(s for s in steps if 12 * s >= region.beta_max - region.beta_min)
    beta_tick = math.ceil(region.beta_min / beta_step) * beta_step
    while beta_tick <= region.beta_max:
        x = px(float(beta_tick))
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" y2="{_fmt(y0 + 5)}"'
            ' stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + 18)}" font-size="11"'
            f' text-anchor="middle">{beta_tick}</text>'
        )
        beta_tick += beta_step
    alpha_step = max(1, math.ceil(alpha_max / 8))
    alpha_tick = 0
    while alpha_tick <= alpha_max:
        y = py(float(alpha_tick))
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}"'
            f' y2="{_fmt(y)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{_fmt(y + 4)}" font-size="11"'
            f' text-anchor="end">{alpha_tick}</text>'
        )
        alpha_tick += alpha_step
    out.append(
        f'<text x="{MARGIN_LEFT + PLOT_W}" y="{_fmt(y0 + 34)}" font-size="13"'
        ' text-anchor="end">beta</text>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT - 9}" y="{MARGIN_TOP - 8}" font-size="13"'
        ' text-anchor="end">alpha</text>'
    )

    out.append('<g clip-path="url(#plot-area)">')
    if scene.hyperbola is not None:
        ch = scene.hyperbola
        r = float(ch.r)
        mu = float(Fraction(ch.c, ch.r))
        delta = float(ch.discriminant()) / (r * r)
        branch = -1.0 if ch.r > 0 else 1.0
        points = []
        for i in range(HYPERBOLA_SAMPLES + 1):
            alpha = alpha_max * (HYPERBOLA_SAMPLES - i) / HYPERBOLA_SAMPLES
            radicand = delta + alpha * alpha
            if radicand < 0:
                continue
            beta = mu + branch * math.sqrt(radicand)
            if beta < beta_min or beta > beta_max:
                continue
            points.append(f"{_fmt(px(beta))},{_fmt(py(alpha))}")
        if points:
            out.append(
                '<polyline id="hyperbola" fill="none" stroke="#777777"'
                f' stroke-width="1.2" points="{" ".join(points)}"/>'
            )

    def arc_path(circle: Circle) -> str:
        center = float(circle.center)
        radius = math.sqrt(float(circle.radius_sq))
        x1 = px(center - radius)
        x2 = px(center + radius)
        rx = radius * scale_x
        ry = radius * scale_y
        return (
            f"M {_fmt(x1)} {_fmt(y0)} A {_fmt(rx)} {_fmt(ry)} 0 0 1"
            f" {_fmt(x2)} {_fmt(y0)}"
        )

    if scene.bmt is not None:
        out.append(
            f'<path id="bmt" d="{arc_path(scene.bmt)}" fill="none"'
            ' stroke="#b05050" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    for index, wall in enumerate(scene.walls):
        out.append(
            f'<path id="wall-{index}" d="{arc_path(wall.circle)}" fill="none"'
            ' stroke="#2040a0" stroke-width="1.6"/>'
        )
    out.append("</g>")

    for wall in scene.walls:
        center = float(wall.circle.center)
        radius = math.sqrt(float(wall.circle.radius_sq))
        label_y = max(py(radius) - 6, MARGIN_TOP + 12)
        out.append(
            f'<text x="{_fmt(px(center))}" y="{_fmt(label_y)}" font-size="11"'
            f' text-anchor="middle">center={wall.circle.center}'
            f" radius_sq={wall.circle.radius_sq}</text>"
        )

    out.append(
        f'<text x="{MARGIN_LEFT}" y="{HEIGHT - 14}" font-size="13">'
        f"{scene.caption}</text>"
    )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
