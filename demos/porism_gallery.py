"""Render closed Poncelet polygons for a few rational rotation numbers.

Writes one SVG per rotation number into the current directory. The
boundary is solved from the caustic eccentricity so every orbit closes
exactly.
"""

import pathlib
from fractions import Fraction

from poncelet import build_pencil, confocal_ellipse, covering, polygon, porism_f
from poncelet.svg import svg_figure

CAUSTIC_E = 0.8

for s in ("1/3", "1/4", "2/7", "1/6", "3/10"):
    ell = Fraction(s)
    f = porism_f(CAUSTIC_E, float(ell))
    P = build_pencil(confocal_ellipse(f.e), confocal_ellipse(CAUSTIC_E))
    orb = polygon(P, (0.0, 1.0), covering(P, 0.13))
    name = pathlib.Path(f"porism_{ell.numerator}_{ell.denominator}.svg")
    name.write_text(svg_figure(P, orbit=orb.points))
    print(
        f"ell={s:>4s}  boundary f={f.e:.6f}  steps={orb.steps}"
        f" winding={orb.winding}  residual={orb.closure_residual:.2e}  -> {name.name}"
    )
