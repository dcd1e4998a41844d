"""Stroke-only SVG figures: pencil members as 256-segment polylines plus an
optional orbit polygon.

Plane y increases upward; SVG y increases downward, so every emitted
coordinate negates y. Output is plain text with fixed float formatting, so
identical inputs give byte-identical documents.
"""

import math

import numpy as np

from .pencil import Pencil, as_param, _param_kind

_FMT = "%.8g"


def member_polyline(P: Pencil, nu, segments: int = 256) -> np.ndarray:
    """Closed polyline on the member conic, returned in plane coordinates.

    In the diagonalizing chart the member is the origin-centered ellipse
    (nu1 + l1 nu2) x^2 + (nu1 + l2 nu2) y^2 = nu1 + l3 nu2, so it is sampled
    there and pushed forward with one product by M. The outer ray (1, 0)
    gives the unit circle.
    """
    nu = as_param(nu).canonical()
    _param_kind(P.lam, nu)  # reject parameters outside the closed cone
    l1, l2, l3 = P.lam
    g = max(nu.nu1 + l3 * nu.nu2, 0.0)  # the limiting ray can round below 0
    a = math.sqrt(g / (nu.nu1 + l1 * nu.nu2))
    b = math.sqrt(g / (nu.nu1 + l2 * nu.nu2))
    t = np.linspace(0.0, 2.0 * math.pi, segments + 1)
    u = np.column_stack([a * np.cos(t), b * np.sin(t), np.ones_like(t)]) @ P.M.T
    pts = u[:, :2] / u[:, 2:]
    pts[-1] = pts[0]
    return pts


def _points_attr(pts) -> str:
    pair = _FMT + "," + _FMT
    return " ".join(pair % (x, -y) for x, y in np.asarray(pts, dtype=float).tolist())


def svg_figure(P: Pencil, members=((0.0, 1.0),), orbit=None, segments: int = 256) -> str:
    """SVG document: the outer conic, the listed members, the orbit polygon.

    ``orbit`` is a sequence of plane points (a PolygonOrbit's points work
    as-is). The viewBox fits everything drawn with a 5% margin.
    """
    conics = [member_polyline(P, (1.0, 0.0), segments)]
    for nu in members:
        conics.append(member_polyline(P, nu, segments))
    orbit_pts = None
    if orbit is not None and len(orbit) > 0:
        orbit_pts = np.asarray(orbit, dtype=float)
    allpts = np.vstack(conics + ([orbit_pts] if orbit_pts is not None else []))
    xmin, ymin = allpts.min(axis=0)
    xmax, ymax = allpts.max(axis=0)
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
    for k, pts in enumerate(conics):
        color = "#000000" if k == 0 else "#777777"
        lines.append(
            '<polyline stroke="{}" points="{}"/>'.format(color, _points_attr(pts))
        )
    if orbit_pts is not None:
        lines.append(
            '<polyline stroke="#1f77b4" points="{}"/>'.format(_points_attr(orbit_pts))
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
