"""`closed_form` workload: queries answered without iterating an orbit.

A round builds every seeded pencil and asks it rho_of_nu, f_of_nu, dual and
member on four members, invert_rho at two rotation numbers and covering at
two angles; certifies the Fig. 3 members k/N, N = 3..12, and their
off-porism neighbours, plus the known-fault members N = 17..20; runs the
confocal porism_f, rotation_confocal and gauss_transform; and evaluates
ellint_K, ellint_F and jacobi directly over a modulus grid. The pencils,
certified sub-pencils, confocal pairs and grid together carry more distinct
moduli than the 512 entries of the complete-integral cache, so a round
cycles through it.
"""

from specs import FIG3_LAMBDA, PencilSpec

FUNCTIONS = ("pencil.build_pencil", "maps.rho_of_nu", "pencil.f_of_nu", "pencil.dual",
             "pencil.member", "maps.invert_rho", "maps.covering", "cayley.cayley_condition",
             "cayley.porism_report", "billiard.porism_f", "billiard.rotation_confocal",
             "billiard.gauss_transform", "elliptic.ellint_K", "elliptic.ellint_F",
             "elliptic.jacobi")

OFF_PORISM_SHIFT = 0.01
_CHUNK = 16  # moduli per elliptic operation


def _param(nu):
    return [float(nu.nu1), float(nu.nu2)]


def _conic(C):
    return [C.c11, C.c12, C.c13, C.c22, C.c23, C.c33]


def _export_pencil(r):
    lam, rows, inv, cov = r
    return {"lam": list(lam),
            "members": [{"rho": rho, "f": f, "dual": _param(d), "conic": _conic(C)}
                        for rho, f, d, C in rows],
            "invert": [_param(nu) for nu in inv],
            "covering": [[float(z[0]), float(z[1])] for z in cov]}


def _export_certify(r):
    lam, residual, report = r
    out = {"lam": list(lam), "residual": residual}
    if report is not None:
        out["classified_poristic"] = report["classified_poristic"]
        out["report_residual"] = report["residual"]
    return out


def _export_confocal(r):
    return [float(v) for v in r]


def _export_elliptic(r):
    return [{"K": K, "F": F, "J": J} for K, F, J in r]


def build(spec, pkg, api, count, wrap):
    """Set-up: (inputs, ops) as in orbits.build. `wrap(name, fn)` names a
    composite span; here the member rebuild that certification needs."""
    conics = [(pkg.SymmetricConic(*p.C1), pkg.SymmetricConic(*p.C2)) for p in spec.pencils]

    def pencil(C1, C2, members, ells, thetas):
        P = api.build_pencil(C1, C2)
        rows = [(api.rho_of_nu(P, nu), api.f_of_nu(P, nu), api.dual(P, nu), api.member(P, nu))
                for nu in members]
        inv = [api.invert_rho(P, ell) for ell in ells]
        cov = [api.covering(P, t) for t in thetas]
        return P.lam, rows, inv, cov

    ops = []
    for i, (C1, C2) in enumerate(conics):
        ops.append(("pencil", f"pencil:{i}",
                    lambda C1=C1, C2=C2, m=spec.members[i], e=spec.ells[i], t=spec.thetas[i]:
                        pencil(C1, C2, m, e, t), _export_pencil))

    fig3 = PencilSpec.diagonal(FIG3_LAMBDA)
    P0 = pkg.build_pencil(pkg.SymmetricConic(*fig3.C1), pkg.SymmetricConic(*fig3.C2))
    rebuild = wrap("cayley.member_rebuild",
                   lambda P, nu: pkg.build_pencil(P.C1, pkg.member(P, nu)))

    def certify(nu, N, on):
        Pm = rebuild(P0, nu)
        residual = api.cayley_condition(Pm, N)
        report = api.porism_report(Pm, N) if on else None
        if on:
            count("cayley.on_attempted")
            count("cayley.on_certified", int(report["classified_poristic"]))
        return Pm.lam, residual, report

    members = {}
    for k, n, off in spec.certify:
        nu = pkg.invert_rho(P0, k / n + (OFF_PORISM_SHIFT if off else 0.0))
        members[f"{k}/{n}" + ("+" if off else "")] = _param(nu)
        ops.append(("certify", f"{k}/{n}" + ("+" if off else ""),
                    lambda nu=nu, n=n, on=not off: certify(nu, n, on), _export_certify))
    for k, n in spec.faults:
        nu = pkg.invert_rho(P0, k / n)
        members[f"{k}/{n}"] = _param(nu)
        ops.append(("fault", f"{k}/{n}", lambda nu=nu, n=n: certify(nu, n, True),
                    _export_certify))

    def confocal(e, ell):
        f = api.porism_f(e, ell)
        rho = api.rotation_confocal(e, f)
        g = api.gauss_transform(e, f)
        return f.e, rho, g.e.e, g.f.e

    for e, ell in spec.confocal:
        ops.append(("confocal", f"confocal:{e!r}", lambda e=e, ell=ell: confocal(e, ell),
                    _export_confocal))

    def elliptic(block):
        out = []
        for e, phis, us in block:
            K = api.ellint_K(e)
            F = [api.ellint_F(phi, e) for phi in phis]
            J = [(jv.sn, jv.cn, jv.dn) for jv in (api.jacobi(u, e) for u in us)]
            out.append((K, F, J))
        return out

    grid = list(zip(spec.moduli, spec.phis, spec.us))
    for s in range(0, len(grid), _CHUNK):
        ops.append(("elliptic", f"elliptic:{s}", lambda b=grid[s:s + _CHUNK]: elliptic(b),
                    _export_elliptic))
    return {"certify_members": members}, ops
