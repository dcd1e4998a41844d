"""Stroke-only SVG figures: pencil members as 256-segment polylines plus an
optional orbit polygon.

Plane y increases upward; SVG y increases downward, so every emitted
coordinate negates y. Output is plain text with fixed float formatting, so
identical inputs give byte-identical documents.
"""

import math
from functools import cache

from .pencil import Pencil, as_param, _homography, _param_kind

_FMT = "%.8g"
_SEGMENTS = 256


@cache
def _unit_samples() -> tuple:
    """(cos t, sin t) at the angles t of np.linspace(0, 2 pi, _SEGMENTS + 1)[:-1]."""
    step = 2.0 * math.pi / _SEGMENTS
    return tuple((math.cos(k * step), math.sin(k * step)) for k in range(_SEGMENTS))


def _member_points(P: Pencil, nu) -> list:
    """The points of member_polyline as (x, y) floats.

    In the diagonalizing chart the member is the origin-centered ellipse
    (nu1 + l1 nu2) x^2 + (nu1 + l2 nu2) y^2 = nu1 + l3 nu2, so it is sampled
    there and each point is pushed forward by M. The outer ray (1, 0) gives
    the unit circle.
    """
    nu = as_param(nu).canonical()
    _param_kind(P.lam, nu)  # reject parameters outside the closed cone
    l1, l2, l3 = P.lam
    g = max(nu.nu1 + l3 * nu.nu2, 0.0)  # the limiting ray can round below 0
    a = math.sqrt(g / (nu.nu1 + l1 * nu.nu2))
    b = math.sqrt(g / (nu.nu1 + l2 * nu.nu2))
    h, norm = P.M_entries, P.M_norm
    pts = [_homography(h, norm, a * c, b * s) for c, s in _unit_samples()]
    pts.append(pts[0])
    return pts


def member_polyline(P: Pencil, nu):
    """Closed polyline on the member conic, as a (257, 2) array of plane
    coordinates whose last row repeats the first."""
    import numpy as np

    return np.array(_member_points(P, nu))


def _points_attr(pts) -> str:
    pair = _FMT + "," + _FMT
    return " ".join(pair % (x, -y) for x, y in pts)


def svg_figure(P: Pencil, members=((0.0, 1.0),), orbit=None) -> str:
    """SVG document: the outer conic, the listed members, the orbit polygon.

    ``orbit`` is a sequence of plane points (a PolygonOrbit's points work
    as-is). The viewBox fits everything drawn with a 5% margin.
    """
    drawn = [_member_points(P, nu) for nu in ((1.0, 0.0), *members)]
    colors = ["#000000"] + ["#777777"] * (len(drawn) - 1) + ["#1f77b4"]
    if orbit is not None and len(orbit) > 0:
        drawn.append([(float(x), float(y)) for x, y in orbit])
    xs = [x for pts in drawn for x, _ in pts]
    ys = [y for pts in drawn for _, y in pts]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    margin = 0.05 * max(xmax - xmin, ymax - ymin)
    x0, y0 = xmin - margin, -(ymax + margin)
    w, h = xmax - xmin + 2.0 * margin, ymax - ymin + 2.0 * margin
    stroke = 0.004 * max(w, h)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">'.format(
            *(_FMT % v for v in (x0, y0, w, h))
        ),
        '<g fill="none" stroke-width="{}">'.format(_FMT % stroke),
    ]
    for color, pts in zip(colors, drawn):
        lines.append('<polyline stroke="{}" points="{}"/>'.format(color, _points_attr(pts)))
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
