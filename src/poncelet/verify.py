"""Self-contained verification suites behind `poncelet verify`.

Each check re-measures an identity or fixture with library code only and
reports a residual against its tolerance. Lower-bound checks (off-porism
floors) set bound = "lower" and pass when the residual exceeds the
tolerance instead. Exact equalities and integer counts report the number
of mismatches against a tolerance of 0.5. These suites are the one place
that states the identities, inputs and tolerances the acceptance criteria
assert (tests/test_acceptance.py).
"""

import math
from fractions import Fraction

import numpy as np

from .billiard import gauss_transform, half_rotation, porism_f, rotation_confocal
from .cayley import (
    bicentric_check,
    bicentric_rho,
    bicentric_spectrum,
    cayley_condition,
    confocal_poristic_residual,
)
from .conics import SymmetricConic, unit_circle
from .elliptic import ellint_F, ellint_K, jacobi
from .errors import InvalidParameter
from .maps import covering, invert_rho, polygon, poncelet_step, rho_of_nu, run_composition
from .pencil import build_pencil, dual, f_of_nu, member, nesting_order

SUITES = ("elliptic", "confocal", "pencil", "cayley", "composition", "all")

_MODULUS_GRID = [0.05 * k for k in range(1, 20)]


def _check(name, residual, tol, bound="upper"):
    residual = float(residual)
    ok = residual > tol if bound == "lower" else residual < tol
    return {"name": name, "residual": residual, "tol": tol, "bound": bound, "pass": bool(ok)}


def fig3_pencil():
    """The Fig. 3 pencil: the unit circle and diag(0.2, 0.125, -1/9)."""
    return build_pencil(unit_circle(), SymmetricConic(0.2, 0.0, 0.0, 0.125, 0.0, -1.0 / 9.0))


def cubic_field_rhos():
    """(3x^3, 2x^2, x) at the real root of 21x^3 + 14x^2 + 7x - 8: three
    irrational rotation numbers that sum to 8/7."""
    x = 0.45312020569808
    for _ in range(4):
        x -= (21 * x**3 + 14 * x**2 + 7 * x - 8) / (63 * x**2 + 28 * x + 7)
    return 3 * x**3, 2 * x**2, x


def _elliptic_checks():
    sq = dn = rt = lan = 0.0
    for e in _MODULUS_GRID:
        K = ellint_K(e)
        for u in np.linspace(-1.8 * K, 1.8 * K, 13):
            jv = jacobi(u, e)
            sq = max(sq, abs(jv.sn**2 + jv.cn**2 - 1.0))
            dn = max(dn, abs(jv.dn**2 + e * e * jv.sn**2 - 1.0))
            rt = max(rt, abs(ellint_F(jv.am, e) - u))
        ep = math.sqrt(1.0 - e * e)
        k1 = (1.0 - ep) / (1.0 + ep)
        lan = max(lan, abs(K - (1.0 + k1) * ellint_K(k1)))
    return [
        _check("sn2_plus_cn2", sq, 1e-12),
        _check("dn2_plus_e2sn2", dn, 1e-12),
        _check("F_am_roundtrip", rt, 1e-10),
        _check("landen_K_relation", lan, 1e-12),
    ]


def _confocal_checks():
    rho1 = rotation_confocal(0.8, 0.572851)
    _, f2 = half_rotation(0.8, 0.572851)
    g = gauss_transform(0.6, 0.503246)
    roundtrip = 0.0
    ginv = 0.0
    for ell in (1.0 / 3.0, 0.25, 2.0 / 7.0):
        for e in (0.5, 0.8):
            f = porism_f(e, ell)
            roundtrip = max(roundtrip, abs(rotation_confocal(e, f) - ell))
            gi = gauss_transform(e, f)
            ginv = max(ginv, abs(rotation_confocal(gi.e, gi.f) - ell))
    poly = 0.0
    for name in ("1/3", "1/4", "1/5", "2/5", "1/6"):
        for e in (0.6, 0.75, 0.85):
            f = porism_f(e, float(Fraction(name)))
            poly = max(poly, abs(confocal_poristic_residual(e, f, name)))
    return [
        _check("caption_rho_2_7", abs(rho1 - 2.0 / 7.0), 5e-6),
        _check("caption_half_f2", abs(f2.e - 0.419316), 5e-6),
        _check("caption_half_rho", abs(rotation_confocal(0.8, f2) - 5.0 / 14.0), 5e-6),
        _check("caption_rho_1_5", abs(rotation_confocal(0.6, 0.503246) - 0.2), 5e-6),
        _check(
            "caption_gauss_image",
            max(abs(g.e.e - 0.968246), abs(g.f.e - 0.913706)),
            5e-6,
        ),
        _check("caption_gauss_rho", abs(rotation_confocal(g.e, g.f) - 0.2), 5e-6),
        _check("porism_f_roundtrip", roundtrip, 1e-10),
        _check("gauss_rho_invariance", ginv, 1e-10),
        _check("confocal_poristic_polynomials", poly, 1e-9),
    ]


def _pencil_checks():
    P = fig3_pencil()
    params = [(0.0, 1.0), (0.05, 1.0), (0.3, 1.0), (-0.05, 1.0), (-0.1, 1.0)]
    rng = np.random.default_rng(17)
    drawn = [(float(rng.uniform(-1.0 / 9.0 + 1e-3, 3.0)), 1.0) for _ in range(100)]
    pairs = [(nu, mu) for i, nu in enumerate(params) for mu in params[i + 1 :]]
    pairs += list(zip(drawn[::2], drawn[1::2]))
    rho = {nu: rho_of_nu(P, nu) for nu in params + drawn}
    duality = max(abs(r + rho_of_nu(P, dual(P, nu)) - 0.5) for nu, r in rho.items())
    mono_bad = 0
    for nu, mu in pairs:
        cross = nu[0] * mu[1] - nu[1] * mu[0]
        mono_bad += math.copysign(1.0, cross) != math.copysign(1.0, rho[mu] - rho[nu])
    # projectively equal parameters classify as the same member
    nu, proj_order, proj_rho = (0.1, 1.0), 0.0, 0.0
    for mu in ((0.3, 3.0), (0.05, 0.5), (0.3 + 1e-13, 3.0)):
        cross = abs(nu[0] * mu[1] - nu[1] * mu[0])
        proj_order = max(proj_order, cross, abs(nesting_order(P, nu, mu)))
        proj_rho = max(proj_rho, abs(rho_of_nu(P, mu) - rho_of_nu(P, nu)))
    inner = rho[(0.0, 1.0)]
    conj = 0.0
    for th in np.linspace(0.02, 0.97, 16):
        z = poncelet_step(P, (0.0, 1.0), covering(P, float(th)))
        conj = max(conj, float(np.hypot(*(z - covering(P, float(th) + inner)))))
    return [
        _check("fig3_pencil_modulus", abs(P.e.e - math.sqrt(27.0 / 32.0)), 1e-12),
        _check("fig3_rho_of_inner", abs(inner - 1.0 / 6.0), 1e-12),
        _check("fig3_f_of_inner", abs(f_of_nu(P, (0.0, 1.0)) - math.sqrt(3.0) / 2.0), 1e-12),
        _check("duality_sum_half", duality, 1e-10),
        _check("monotonicity_sign_mismatches", float(mono_bad), 0.5),
        _check("projective_nesting_order", proj_order, 1e-12),
        _check("projective_rho", proj_rho, 1e-10),
        _check("covering_conjugates_step", conj, 1e-8),
    ]


def _cayley_checks():
    P = fig3_pencil()
    worst_on, worst_off = 0.0, math.inf
    for N in range(3, 11):
        for k in range(1, N):
            if math.gcd(k, N) != 1 or 2 * k >= N:
                continue
            Pon = build_pencil(P.C1, member(P, invert_rho(P, k / N)))
            worst_on = max(worst_on, abs(cayley_condition(Pon, N)))
            for offset in (0.01, 0.017):
                Poff = build_pencil(P.C1, member(P, invert_rho(P, k / N + offset)))
                worst_off = min(worst_off, abs(cayley_condition(Poff, N)))
    R, r3, r4 = 1.0, 0.32, 1.0 / math.sqrt(2.0)
    a3, a4 = math.sqrt(R * (R - 2.0 * r3)), 0.21
    r4a = 1.0 / math.sqrt(1.0 / (R - a4) ** 2 + 1.0 / (R + a4) ** 2)
    lam = bicentric_spectrum(1.0, 0.3, 0.2)
    exact_bad = (
        (bicentric_check(1.0, 0.5, 0.0, "triangle") != 0.0)
        + (lam[0] != 1.0)
        + (bicentric_spectrum(1.0, 0.5, 0.0) != (1.0, 1.0, 0.25))
    )
    reference = max(
        abs(value / ref - 1.0)
        for value, ref in (
            (lam[1], 0.9558421984903522),
            (lam[2], 0.09415780150964784),
            (lam[1] * lam[2], 0.09),
            (bicentric_check(1.0, 0.3, 0.2, "triangle"), -1.25),
            (bicentric_check(1.0, 0.3, 0.2, "quadrilateral"), -8.854166666666666),
        )
    )
    return [
        _check("porism_cayley_worst_on", worst_on, 1e-8),
        _check("off_porism_cayley_floor", worst_off, 1e-4, bound="lower"),
        _check("bicentric_exact_mismatches", float(exact_bad), 0.5),
        _check("bicentric_chapple_euler", abs(bicentric_check(R, r3, a3, "triangle")), 1e-12),
        # fl(1/sqrt(2))^2 lands one ulp above 0.5, so allow that much
        _check("bicentric_fuss", abs(bicentric_check(R, r4, 0.0, "quadrilateral")), 5e-16),
        _check("bicentric_fuss_offset", abs(bicentric_check(R, r4a, a4, "quadrilateral")), 1e-12),
        _check(
            "bicentric_rho_third",
            max(abs(bicentric_rho(R, r, a) - 1.0 / 3.0) for r, a in ((0.5, 0.0), (r3, a3))),
            1e-10,
        ),
        _check(
            "bicentric_rho_quarter",
            max(abs(bicentric_rho(R, r, a) - 0.25) for r, a in ((r4, 0.0), (r4a, a4))),
            1e-10,
        ),
        _check("bicentric_reference_values", reference, 1e-12),
    ]


def _composition_checks():
    P = fig3_pencil()
    n1, n2 = invert_rho(P, 0.2), invert_rho(P, 0.3)
    five_schedule = [(n1, 1), (n2, -1), (n1, 1), (n1, 1), (n2, -1)]
    rhos = cubic_field_rhos()
    cubic_schedule = [(invert_rho(P, l), 1) for l in rhos] * 7
    five = [
        run_composition(P, five_schedule, covering(P, t))
        for t in [0.17] + [(j + 0.45) / 8.0 for j in range(8)]
    ]
    cubic = [
        run_composition(P, cubic_schedule, covering(P, t))
        for t in [0.31] + [(j + 0.2) / 8.0 for j in range(8)]
    ]
    quad = polygon(P, invert_rho(P, 0.25), covering(P, 0.05))
    hept = polygon(P, invert_rho(P, 2.0 / 7.0), covering(P, 0.05))
    shapes = [(o, 5, 0) for o in five] + [(o, 21, 8) for o in cubic] + [(quad, 4, 1), (hept, 7, 2)]
    shape_bad = sum((o.steps, o.winding) != (steps, winding) for o, steps, winding in shapes)
    return [
        _check("five_step_mixed_closure", max(o.closure_residual for o in five), 1e-7),
        _check("cubic_field_rho_sum", abs(sum(rhos) - 8.0 / 7.0), 1e-14),
        _check("cubic_field_z21_return", max(o.closure_residual for o in cubic), 1e-6),
        _check("quadrilateral_closure", quad.closure_residual, 1e-7),
        _check("heptagon_closure", hept.closure_residual, 1e-7),
        _check("winding_counts", float(shape_bad), 0.5),
    ]


_SUITE_FNS = {
    "elliptic": _elliptic_checks,
    "confocal": _confocal_checks,
    "pencil": _pencil_checks,
    "cayley": _cayley_checks,
    "composition": _composition_checks,
}


def run_suite(name: str) -> dict:
    """Run one named suite (or "all") and return its JSON-ready report."""
    if name not in SUITES:
        raise InvalidParameter(f"unknown suite {name!r}; choose from {SUITES}")
    names = list(_SUITE_FNS) if name == "all" else [name]
    checks = []
    for n in names:
        checks.extend(_SUITE_FNS[n]())
    return {"suite": name, "passed": all(c["pass"] for c in checks), "checks": checks}
