"""`orbits` workload: iterated maps, almost no closed-form work per round.

Set-up builds the pencils, finds the members with invert_rho and places the
start points with covering; a round then only steps orbits: every polygon
k/N with N <= 12 from two seeds, the two composed schedules of acceptance
criterion 7, one long alternating two-map orbit through poncelet_step, one
estimate_rotation, SVG of two closed polygons per pencil, and one batched
billiard rotation_estimate over an (e, f) grid.
"""

import numpy as np

from specs import cubic_field_root

FUNCTIONS = ("maps.polygon", "maps.run_composition", "maps.poncelet_step",
             "maps.estimate_rotation", "svg.svg_figure", "billiard.rotation_estimate")


def points(seq):
    return [[float(x), float(y)] for x, y in seq]


def orbit(o):
    return {"points": points(o.points), "steps": o.steps, "winding": o.winding,
            "closure_residual": o.closure_residual, "rho": o.rho}


def _param(nu):
    return [float(nu.nu1), float(nu.nu2)]


def build(spec, pkg, api, count):
    """Set-up: (inputs, ops). Each op is (kind, label, thunk, export): the
    thunk is timed, export turns its result into JSON after the round."""
    x = cubic_field_root()
    inputs, ops = [], []
    for i, ps in enumerate(spec.pencils):
        P = pkg.build_pencil(pkg.SymmetricConic(*ps.C1), pkg.SymmetricConic(*ps.C2))
        nus = {kn: pkg.invert_rho(P, kn[0] / kn[1]) for kn in spec.fractions}
        seeds = [pkg.covering(P, t) for t in spec.starts[i]]
        n1, n2 = pkg.invert_rho(P, 0.2), pkg.invert_rho(P, 0.3)
        five = [(n1, 1), (n2, -1), (n1, 1), (n1, 1), (n2, -1)]
        cubic = [(pkg.invert_rho(P, ell), 1) for ell in (3 * x**3, 2 * x**2, x)] * 7
        z5, z21 = (pkg.covering(P, t) for t in spec.composition_starts[i])
        alt = (pkg.invert_rho(P, x), pkg.invert_rho(P, 2 * x * x))
        z_alt = pkg.covering(P, spec.alt_start[i])
        nu_est = pkg.invert_rho(P, spec.estimate_ell[i])
        inputs.append({
            "members": {f"{k}/{n}": _param(nu) for (k, n), nu in nus.items()},
            "seeds": points(seeds),
            "five": [_param(nu) + [k] for nu, k in five],
            "cubic": [_param(nu) + [k] for nu, k in cubic[:3]],
            "alt": [_param(nu) for nu in alt],
            "estimate_nu": _param(nu_est),
        })
        drawn = {}  # (k, N) -> orbit of the first seed, drawn later in the round

        def polygon(P, nu, z, key, drawn=drawn):
            o = api.polygon(P, nu, z)
            count("maps.polygon.steps", o.steps)
            drawn[key] = o
            return o

        for (k, n), nu in nus.items():
            for j, z in enumerate(seeds):
                ops.append(("polygon", f"{i}:{k}/{n}:{j}",
                            lambda P=P, nu=nu, z=z, key=(k, n, j), polygon=polygon:
                                polygon(P, nu, z, key), orbit))

        def composition(P, schedule, z):
            o = api.run_composition(P, schedule, z)
            count("maps.run_composition.steps", o.steps)
            return o

        ops.append(("composition", f"{i}:five",
                    lambda P=P, s=five, z=z5: composition(P, s, z), orbit))
        ops.append(("composition", f"{i}:z21",
                    lambda P=P, s=cubic, z=z21: composition(P, s, z), orbit))

        def alternating(P=P, pair=alt, z=z_alt, steps=spec.alt_steps):
            pts = [z]
            for j in range(steps):
                z = api.poncelet_step(P, pair[j % 2], z)
                pts.append(z)
            count("maps.poncelet_step.steps", steps)
            return pts

        ops.append(("alternating", f"{i}:alt", alternating, points))

        def estimate(P=P, nu=nu_est, n=spec.estimate_steps):
            count("maps.estimate_rotation.steps", n)
            return api.estimate_rotation(P, nu, n)

        ops.append(("estimate", f"{i}:est", estimate, float))

        for k, n in spec.svg_fractions:
            def svg(P=P, nu=nus[(k, n)], key=(k, n, 0), drawn=drawn):
                text = api.svg_figure(P, [nu], orbit=drawn[key].points)
                count("svg.bytes", len(text))
                return text

            ops.append(("svg", f"{i}:{k}/{n}", svg, str))

    def billiard(e=np.array(spec.billiard_e), f=np.array(spec.billiard_f),
                 n=spec.billiard_steps):
        count("billiard.rotation_estimate.cell_steps", e.size * n)
        return api.rotation_estimate(e, f, n)

    ops.append(("billiard", "grid", billiard, lambda a: [float(v) for v in a]))
    return inputs, ops
