"""Checks made apart from the package.

Reference rotation numbers come from scipy's elliptic integrals evaluated on
the spectra the seeded specs were built with, never on what the package
reports; the rest are properties the method must have: orbits stay on C1
and close with the predicted winding, duality sums to 1/2, Cayley residuals
vanish exactly on porisms. check() returns the list of problems and the
number of operations per round that failed as the known fault.
"""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy import special

import specs
from closed_form import OFF_PORISM_SHIFT

TOL_RHO = 1e-10     # closed-form rotation numbers against scipy
TOL_INVERT = 1e-9   # invert_rho round trip, looser near 1/2 (see invert_rho)
TOL_ON_C1 = 1e-9    # |u^T C1 u| / (|C1| |u|^2), the package's own on-curve band
TOL_CLOSE = 1e-6    # closure distance relative to the size of C1
TOL_CAYLEY_ON = 1e-8
TOL_CAYLEY_OFF = 1e-4


# -- references -------------------------------------------------------------

def rho_ref(lam, nu):
    """F(omega, e) / (2 K(e)) from the spectrum, by scipy; m = e^2."""
    l1, l2, l3 = lam
    n1, n2 = nu
    s2 = min(max((l1 - l3) * n2 / (l1 * n2 + n1), 0.0), 1.0)
    m = (l1 - l2) / (l1 - l3)
    return float(special.ellipkinc(math.asin(math.sqrt(s2)), m) / (2.0 * special.ellipk(m)))


def rho_confocal_ref(e, f):
    omega = math.asin(math.sqrt((e * e - f * f) / (e * e * (1.0 - f * f))))
    return float(special.ellipkinc(omega, e * e) / (2.0 * special.ellipk(e * e)))


def on_conic(C, pts):
    """Largest scaled |u^T C u| over the points."""
    u = np.column_stack([np.asarray(pts, dtype=float), np.ones(len(pts))])
    q = np.abs(np.einsum("ij,jk,ik->i", u, C, u))
    return float(np.max(q / (np.linalg.norm(C) * np.einsum("ij,ij->i", u, u))))


def centre(C):
    return np.linalg.solve(C[:2, :2], -C[:2, 2])


def extent(C):
    """Distance from the origin to the centre plus the longest semi-axis."""
    c = centre(C)
    r = -(C[:2, 2] @ c + C[2, 2])  # (x - c)^T A (x - c) = r on the conic
    return float(np.hypot(*c) + math.sqrt(r / np.min(np.linalg.eigvalsh(C[:2, :2]))))


def winding(pts, c):
    """Signed turns of the polyline pts about c, each step's angle taken in
    (-pi, pi]; chords tangent to a conic around c turn by less than pi."""
    a = np.arctan2(np.asarray(pts)[:, 1] - c[1], np.asarray(pts)[:, 0] - c[0])
    d = np.diff(a)
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    return float(np.sum(d) / (2.0 * math.pi))


def _canonical(nu):
    n = math.hypot(*nu)
    return (nu[0] / n, nu[1] / n)


class Report:
    def __init__(self):
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok


# -- orbits -------------------------------------------------------------------

def check_orbits(seed, res, rep):
    spec = specs.orbits_spec(seed)
    out = dict(res["outputs"])
    x = specs.cubic_field_root()
    for i, ps in enumerate(spec.pencils):
        C1, C2 = specs.matrix(ps.C1), specs.matrix(ps.C2)
        inp = res["inputs"][i]
        size = extent(C1)
        rep.expect(on_conic(C1, inp["seeds"]) < TOL_ON_C1, f"orbits {i}: covering seed off C1")

        def member_centre(nu):
            return centre(nu[0] * C1 + nu[1] * C2)

        for (k, n) in spec.fractions:
            nu = inp["members"][f"{k}/{n}"]
            rep.expect(abs(rho_ref(ps.lam, nu) - k / n) < TOL_INVERT,
                       f"orbits {i}: invert_rho({k}/{n}) gives rho {rho_ref(ps.lam, nu)}")
            for j in range(len(spec.starts[i])):
                o = out[f"{i}:{k}/{n}:{j}"]
                pts = np.array(o["points"])
                tag = f"orbits {i}: polygon {k}/{n} seed {j}"
                rep.expect(o["steps"] == n and len(pts) == n + 1, f"{tag}: {o['steps']} steps")
                rep.expect(on_conic(C1, pts) < TOL_ON_C1, f"{tag}: vertex off C1")
                rep.expect(np.hypot(*(pts[-1] - pts[0])) < TOL_CLOSE * size, f"{tag}: open")
                early = np.hypot(*(pts[1:-1] - pts[0]).T)
                rep.expect(early.size == 0 or early.min() > TOL_CLOSE * size,
                           f"{tag}: returns before N steps")
                w = winding(pts, member_centre(nu))
                rep.expect(abs(abs(w) - k) < 1e-9 and o["winding"] == k,
                           f"{tag}: winding {w} / reported {o['winding']}, expected {k}")
        # the Z21 schedule repeats its three blocks seven times
        for name, sched, want in (("five", inp["five"], 0), ("z21", inp["cubic"] * 7, 8)):
            o = out[f"{i}:{name}"]
            total = sum(k * rho_ref(ps.lam, (n1, n2)) for n1, n2, k in sched)
            tag = f"orbits {i}: {name} schedule"
            rep.expect(abs(total - want) < 1e-9, f"{tag}: sum k*rho = {total}")
            pts = np.array(o["points"])
            rep.expect(o["steps"] == len(sched) and o["winding"] == want,
                       f"{tag}: steps {o['steps']} winding {o['winding']}")
            rep.expect(on_conic(C1, pts) < TOL_ON_C1, f"{tag}: point off C1")
            rep.expect(np.hypot(*(pts[-1] - pts[0])) < TOL_CLOSE * size, f"{tag}: open")
            inner = max((s[:2] for s in sched), key=lambda nu: rho_ref(ps.lam, nu))
            w = winding(pts, member_centre(inner))
            rep.expect(abs(abs(w) - want) < 1e-9, f"{tag}: winding about the innermost {w}")
        pts = np.array(out[f"{i}:alt"])
        tag = f"orbits {i}: alternating orbit"
        rep.expect(len(pts) == spec.alt_steps + 1, f"{tag}: {len(pts)} points")
        rep.expect(on_conic(C1, pts) < TOL_ON_C1, f"{tag}: point off C1")
        closest = np.hypot(*(pts[1:] - pts[0]).T).min()
        rep.expect(closest > TOL_CLOSE * size, f"{tag}: returns to {closest} of its start")
        ra, rb = (rho_ref(ps.lam, nu) for nu in inp["alt"])
        rep.expect(abs(ra - x) < TOL_INVERT and abs(rb - 2 * x * x) < TOL_INVERT,
                   f"{tag}: members have rho {ra}, {rb}")
        inner = max(inp["alt"], key=lambda nu: rho_ref(ps.lam, nu))
        turns = abs(winding(pts, member_centre(inner)))
        rep.expect(abs(turns - spec.alt_steps / 2 * (ra + rb)) < 1.0,
                   f"{tag}: {turns} turns, expected {spec.alt_steps / 2 * (ra + rb)}")
        est = out[f"{i}:est"]
        rho = rho_ref(ps.lam, inp["estimate_nu"])
        rep.expect(abs(rho - spec.estimate_ell[i]) < TOL_INVERT, f"orbits {i}: estimate member")
        rep.expect(abs(est - rho) < 1.0 / spec.estimate_steps,
                   f"orbits {i}: estimate_rotation {est} vs {rho}")
        for k, n in spec.svg_fractions:
            check_svg(out[f"{i}:{k}/{n}"], out[f"{i}:{k}/{n}:0"]["points"], 3,
                      f"orbits {i}: svg {k}/{n}", rep)
    est = out["grid"]
    worst = max(abs(r - rho_confocal_ref(e, f))
                for r, e, f in zip(est, spec.billiard_e, spec.billiard_f))
    rep.expect(len(est) == len(spec.billiard_e) and worst < 1.0 / spec.billiard_steps,
               f"orbits: billiard estimate off by {worst}")
    return 0


def check_svg(text, orbit, polylines, tag, rep):
    """Well-formed SVG whose last polyline is the orbit with y negated and
    whose viewBox holds every vertex."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as ex:
        rep.expect(False, f"{tag}: not XML ({ex})")
        return
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if not rep.expect(root.tag.endswith("svg") and len(lines) == polylines,
                      f"{tag}: {len(lines)} polylines"):
        return
    drawn = np.array([[float(v) for v in p.split(",")] for p in lines[-1].get("points").split()])
    x0, y0, w, h = (float(v) for v in root.get("viewBox").split())
    if orbit is not None:
        want = np.array(orbit) * [1.0, -1.0]
        rep.expect(drawn.shape == want.shape and np.allclose(drawn, want, rtol=1e-7, atol=1e-7),
                   f"{tag}: orbit polyline differs from the orbit")
    rep.expect(bool(np.all((drawn[:, 0] >= x0) & (drawn[:, 0] <= x0 + w)
                           & (drawn[:, 1] >= y0) & (drawn[:, 1] <= y0 + h))),
               f"{tag}: vertex outside the viewBox")


# -- closed_form ----------------------------------------------------------------

def check_closed_form(seed, res, rep):
    spec = specs.closed_form_spec(seed)
    out = dict(res["outputs"])
    for i, ps in enumerate(spec.pencils):
        r = out[f"pencil:{i}"]
        tag = f"closed_form pencil {i}"
        C1 = specs.matrix(ps.C1)
        lam = ps.lam
        rep.expect(np.allclose(r["lam"], lam, rtol=1e-9, atol=0.0),
                   f"{tag}: spectrum {r['lam']} != {lam}")
        e2 = (lam[0] - lam[1]) / (lam[0] - lam[2])
        order = sorted(range(len(spec.members[i])),
                       key=lambda j: spec.members[i][j][0] / spec.members[i][j][1])
        rhos = [r["members"][j]["rho"] for j in order]
        rep.expect(all(a > b for a, b in zip(rhos, rhos[1:])),
                   f"{tag}: rho not decreasing outward {rhos}")
        cover = np.array(r["covering"])
        rep.expect(on_conic(C1, cover) < TOL_ON_C1, f"{tag}: covering off C1")
        for nu, m in zip(spec.members[i], r["members"]):
            ref = rho_ref(lam, nu)
            rep.expect(abs(m["rho"] - ref) < TOL_RHO, f"{tag}: rho_of_nu {m['rho']} vs {ref}")
            rep.expect(abs(ref + rho_ref(lam, m["dual"]) - 0.5) < TOL_RHO,
                       f"{tag}: rho(nu) + rho(dual) != 1/2")
            f = m["f"]
            std = ((1.0 - f * f) / (1.0 - e2), 1.0, f * f / e2)
            rep.expect(0.0 < f * f < e2 and abs(rho_ref(std, (0.0, 1.0)) - ref) < TOL_INVERT,
                       f"{tag}: f_of_nu {f} does not give the standard member")
            Cm = specs.matrix(m["conic"])
            rep.expect(Cm[0, 0] > 0 and np.linalg.det(Cm[:2, :2]) > 0 and np.linalg.det(Cm) < 0,
                       f"{tag}: member is not an ellipse")
            stack = np.array([specs.upper(C) / np.linalg.norm(C)
                              for C in (C1, specs.matrix(ps.C2), Cm)])
            rep.expect(np.linalg.svd(stack, compute_uv=False)[-1] < 1e-9,
                       f"{tag}: member is not in the pencil")
            u = np.column_stack([cover, np.ones(len(cover))])
            rep.expect(bool(np.all(np.einsum("ij,jk,ik->i", u, Cm, u) > 0)),
                       f"{tag}: member not inside C1")
        for ell, nu in zip(spec.ells[i], r["invert"]):
            rep.expect(abs(rho_ref(lam, nu) - ell) < TOL_INVERT,
                       f"{tag}: invert_rho({ell}) gives rho {rho_ref(lam, nu)}")

    members = res["inputs"]["certify_members"]

    def sub_spectrum(key):
        """Spectrum of (C1, member) on the Fig. 3 pencil: nu1 + nu2 * l_i."""
        nu = _canonical(members[key])
        return tuple(nu[0] + nu[1] * l for l in specs.FIG3_LAMBDA)

    for k, n, off in spec.certify:
        key = f"{k}/{n}" + ("+" if off else "")
        c, sub = out[key], sub_spectrum(key)
        tag = f"closed_form certify {key}"
        rep.expect(np.allclose(c["lam"], sub, rtol=1e-9, atol=0.0),
                   f"{tag}: sub-pencil spectrum {c['lam']} != {sub}")
        ell = k / n + (OFF_PORISM_SHIFT if off else 0.0)
        rep.expect(abs(rho_ref(sub, (0.0, 1.0)) - ell) < TOL_INVERT,
                   f"{tag}: member rho {rho_ref(sub, (0.0, 1.0))}")
        if off:
            rep.expect(abs(c["residual"]) > TOL_CAYLEY_OFF, f"{tag}: residual {c['residual']}")
        else:
            rep.expect(abs(c["residual"]) < TOL_CAYLEY_ON and c["classified_poristic"],
                       f"{tag}: residual {c['residual']}, classified {c['classified_poristic']}")
    failed = 0
    for k, n in spec.faults:
        key = f"{k}/{n}"
        rep.expect(abs(rho_ref(sub_spectrum(key), (0.0, 1.0)) - k / n) < TOL_INVERT,
                   f"closed_form fault {key}: member is not on the porism")
        # the known fault: a true porism that porism_report does not certify
        failed += not out[key]["classified_poristic"]

    for e, ell in spec.confocal:
        f, rho, ge, gf = out[f"confocal:{e!r}"]
        tag = f"closed_form confocal e={e}"
        rep.expect(0.0 < f < e and abs(rho_confocal_ref(e, f) - ell) < TOL_RHO,
                   f"{tag}: porism_f gives rho {rho_confocal_ref(e, f)} for {ell}")
        rep.expect(abs(rho - ell) < TOL_RHO, f"{tag}: rotation_confocal {rho}")
        rep.expect(0.0 < gf < ge < 1.0 and abs(rho_confocal_ref(ge, gf) - ell) < TOL_RHO,
                   f"{tag}: Gauss transform changes rho")

    for s in range(0, len(spec.moduli), 16):
        for j, v in enumerate(out[f"elliptic:{s}"]):
            e = spec.moduli[s + j]
            m = e * e
            tag = f"closed_form elliptic e={e}"
            rep.expect(abs(v["K"] - special.ellipk(m)) < 1e-12 * v["K"], f"{tag}: K")
            F = special.ellipkinc(np.array(spec.phis[s + j]), m)
            rep.expect(np.allclose(v["F"], F, rtol=1e-12, atol=1e-12), f"{tag}: F")
            sn, cn, dn, _ = special.ellipj(np.array(spec.us[s + j]), m)
            rep.expect(np.allclose(v["J"], np.column_stack([sn, cn, dn]), rtol=0, atol=1e-11),
                       f"{tag}: jacobi")
    return failed


# -- cli ------------------------------------------------------------------------

def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


def check_cli(seed, res, rep):
    spec = specs.cli_spec(seed)
    out = dict(res["outputs"])
    k, n = spec.ell.numerator, spec.ell.denominator
    reports = {}
    for name, o in out.items():
        if not rep.expect(o["returncode"] == 0, f"cli {name}: exit code {o['returncode']}"):
            continue
        if name != "sweep":
            try:
                reports[name] = _strict_json(o["stdout"])
            except ValueError as ex:
                rep.expect(False, f"cli {name}: stdout is not strict JSON ({ex})")
    if "rotation_lambda" in reports:
        r = reports["rotation_lambda"]
        rep.expect(abs(r["rho"] - rho_ref(spec.lam, (0.0, 1.0))) < TOL_RHO, "cli rotation --lambda")
    if "rotation_confocal" in reports:
        r = reports["rotation_confocal"]
        rep.expect(abs(r["rho"] - rho_confocal_ref(*spec.confocal)) < TOL_RHO,
                   "cli rotation --confocal")
    if "rotation_pencil" in reports:
        r = reports["rotation_pencil"]
        rep.expect(np.allclose(r["lambda"], spec.pencil.lam, rtol=1e-9, atol=0.0)
                   and abs(r["rho"] - rho_ref(spec.pencil.lam, (0.0, 1.0))) < TOL_RHO,
                   "cli rotation --pencil")
    if "rotation_steps" in reports:
        r = reports["rotation_steps"]
        ref = rho_ref(spec.steps_lam, (0.0, 1.0))
        rep.expect(abs(r["rho"] - ref) < TOL_RHO
                   and abs(r["rho_estimate"] - ref) < 1.0 / spec.estimate_steps,
                   f"cli rotation --steps: estimate {r.get('rho_estimate')} vs {ref}")
    if "invert" in reports:
        r = reports["invert"]
        o = r["orbit"]
        rep.expect(abs(rho_ref(spec.lam, r["nu"]) - k / n) < TOL_INVERT
                   and o["steps"] == n and o["winding"] == k and o["closure_residual"] < 1e-7,
                   f"cli invert: {o['steps']} steps, winding {o['winding']}")
        pts = np.array(o["points"])
        rep.expect(on_conic(np.diag([1.0, 1.0, -1.0]), pts) < TOL_ON_C1, "cli invert: off C1")
        check_svg(out["invert"].get("svg", ""), o["points"], 3, "cli invert", rep)
    if "polygon" in reports:
        o = reports["polygon"]
        pts = np.array(o["points"])
        rep.expect(o["steps"] == n and o["winding"] == k and o["closure_residual"] < 1e-7
                   and np.hypot(*(pts[-1] - pts[0])) < TOL_CLOSE,
                   f"cli polygon: {o['steps']} steps, winding {o['winding']}")
        rep.expect(on_conic(np.diag([1.0, 1.0, -1.0]), pts) < TOL_ON_C1, "cli polygon: off C1")
    if "render" in reports:
        r = reports["render"]
        rep.expect(r["steps"] == n and r["closed"] is True, f"cli render: {r}")
        check_svg(out["render"].get("svg", ""), None, 3, "cli render", rep)
    if "verify" in reports:
        r = reports["verify"]
        rep.expect(r["passed"] is True and len(r["checks"]) > 0, "cli verify: not passed")
    if out.get("sweep", {}).get("returncode") == 0:
        rows = out["sweep"]["stdout"].strip().splitlines()
        rep.expect(rows[0] == "e,f,rho_closed_form,rho_numeric,residual"
                   and len(rows) == 1 + spec.sweep_grid ** 2, f"cli sweep: {len(rows)} lines")
        bad = 0
        for row in rows[1:]:
            e, f, rc, rn, resid = (float(v) for v in row.split(","))
            ref = rho_confocal_ref(e, f)
            bad += not (all(map(math.isfinite, (rc, rn, resid))) and abs(rc - ref) < TOL_RHO
                        and abs(rn - ref) < 1.0 / spec.sweep_steps
                        and resid < 1.0 / spec.sweep_steps)
        rep.expect(bad == 0, f"cli sweep: {bad} rows outside the O(1/steps) bound")
    return 0


def check(workload, seed, res):
    rep = Report()
    fn = {"orbits": check_orbits, "closed_form": check_closed_form, "cli": check_cli}[workload]
    failed = fn(seed, res, rep)
    return rep.problems, failed
