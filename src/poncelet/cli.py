"""Command-line front end.

Subcommands: rotation, invert, polygon, sweep, verify, render. Reports go to
stdout as JSON (CSV for sweep) with shortest round-trip float formatting;
validation failures, and output files that cannot be written, print
{"error": code, "message": ...} to stderr and exit with code 2. `verify`
exits 1 when a check fails. Identical invocations produce byte-identical
output. numpy is imported only by the commands that build arrays: `sweep`,
`verify`, and pencils of general (not axis-aligned) conics.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .billiard import as_ecc_pair, porism_f, rotation_confocal, rotation_estimate
from .conics import _KEYS, SymmetricConic, confocal_ellipse, unit_circle
from .errors import InvalidParameter, NonFiniteResult, PonceletError
from .maps import _covering_chart, _from_chart, estimate_rotation, invert_rho, polygon, rho_of_nu
from .pencil import as_param, build_pencil, f_of_nu
from .svg import svg_figure


def _require_finite(values, what):
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameter(f"{what} needs finite numbers, got {values!r}")
    return values


def _parse_floats(text, n, what):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != n:
        raise InvalidParameter(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise InvalidParameter(f"could not parse {what} value {text!r}") from None
    return _require_finite(values, what)


def _json_floats(values, what):
    """Floats from JSON numbers; strings, booleans and null are rejected."""
    if not all(type(v) in (int, float) for v in values):
        raise InvalidParameter(f"{what} needs numbers, got {values!r}")
    try:
        return _require_finite([float(v) for v in values], what)
    except OverflowError:
        raise InvalidParameter(f"{what} has a number out of range") from None


def _parse_ell(text):
    """Rotation number from "p/q" (kept exact) or a decimal literal."""
    text = str(text).strip()
    if "/" in text:
        try:
            frac = Fraction(text)
            return float(frac), frac
        except (ValueError, ZeroDivisionError, OverflowError):
            raise InvalidParameter(f"could not parse rotation number {text!r}") from None
    try:
        return float(text), None
    except ValueError:
        raise InvalidParameter(f"could not parse rotation number {text!r}") from None


def _conic_from_fragment(frag, what):
    if not isinstance(frag, dict) or set(frag) != set(_KEYS):
        raise InvalidParameter(f"{what} must be an object with keys {_KEYS}")
    return SymmetricConic(*_json_floats([frag[k] for k in _KEYS], what))


def _diag_pencil(lam):
    l1, l2, l3 = lam
    return build_pencil(unit_circle(), SymmetricConic(l1, 0.0, 0.0, l2, 0.0, -l3))


def _pencil_from_args(args):
    """Build the pencil named by --lambda / --pencil / --confocal."""
    sources = [s for s in ("lam", "pencil", "confocal") if getattr(args, s, None)]
    if len(sources) != 1:
        raise InvalidParameter("give exactly one of --lambda, --pencil, --confocal")
    if args.lam:
        return _diag_pencil(_parse_floats(args.lam, 3, "--lambda"))
    if getattr(args, "confocal", None):
        p = as_ecc_pair(*_parse_floats(args.confocal, 2, "--confocal"))
        return build_pencil(confocal_ellipse(p.f.e), confocal_ellipse(p.e.e))
    try:
        with open(args.pencil) as fh:
            data = json.load(fh)
    except OSError as ex:
        raise InvalidParameter(f"cannot read pencil file: {ex}") from None
    except json.JSONDecodeError as ex:
        raise InvalidParameter(f"pencil file is not valid JSON: {ex}") from None
    if not isinstance(data, dict):
        raise InvalidParameter("pencil JSON must be an object")
    if "lambda" in data:
        lam = data["lambda"]
        if not isinstance(lam, list) or len(lam) != 3:
            raise InvalidParameter('"lambda" must be a list of three numbers')
        return _diag_pencil(_json_floats(lam, '"lambda"'))
    if "C1" in data and "C2" in data:
        return build_pencil(
            _conic_from_fragment(data["C1"], '"C1"'),
            _conic_from_fragment(data["C2"], '"C2"'),
        )
    raise InvalidParameter('pencil JSON needs either "lambda" or both "C1" and "C2"')


def _usage_error(prog, message):
    """Exit 2 with a usage error as a JSON error line, like every other failure."""
    err = {"error": InvalidParameter.code, "message": f"{prog}: {message}"}
    sys.stderr.write(json.dumps(err) + "\n")
    sys.exit(2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if message.endswith("expected one argument"):
            # argparse takes a value such as -0.1,1 for an option string
            message += " (write a value that starts with '-' after '=', as in --nu=-0.1,1)"
        _usage_error(self.prog, message)


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise InvalidParameter(f"cannot write output file: {ex}") from None


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, report):
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteResult("the report holds a NaN or infinite number") from None
    _emit(args, text + "\n")


def _write_svg(args, P, members, orbit):
    if getattr(args, "svg", None):
        _write(args.svg, svg_figure(P, members, orbit=orbit))


def _covering_start(P):
    """covering(P, 0) as a pair of floats: where every CLI orbit starts."""
    return _from_chart(P, *_covering_chart(P, 0.0))


def _cmd_rotation(args):
    if args.confocal:
        if args.lam or args.pencil:
            raise InvalidParameter("give exactly one of --lambda, --pencil, --confocal")
        e, f = _parse_floats(args.confocal, 2, "--confocal")
        report = {"command": "rotation", "e": e, "f": f, "rho": rotation_confocal(e, f)}
        if args.steps:
            est = float(rotation_estimate(e, f, args.steps))
            report["rho_estimate"] = est
            report["residual"] = abs(est - report["rho"])
    else:
        P = _pencil_from_args(args)
        nu = _parse_floats(args.nu, 2, "--nu")
        can = as_param(nu).canonical()
        report = {
            "command": "rotation",
            "lambda": list(P.lam),
            "e": P.e.e,
            "nu": [can.nu1, can.nu2],
            "f": f_of_nu(P, nu),
            "rho": rho_of_nu(P, nu),
        }
        if args.steps:
            est = estimate_rotation(P, nu, args.steps)
            report["rho_estimate"] = est
            report["residual"] = abs(est - report["rho"])
    _emit_json(args, report)
    return 0


def _cmd_invert(args):
    ell, frac = _parse_ell(args.ell)
    if args.confocal_e is not None:
        if args.lam or args.pencil:
            raise InvalidParameter("--confocal-e replaces --lambda/--pencil; give only one")
        e = args.confocal_e
        f = porism_f(e, ell).e
        P = build_pencil(confocal_ellipse(f), confocal_ellipse(e))
        nu = (0.0, 1.0)
        extra = {"e": e, "f": f}
    else:
        P = _pencil_from_args(args)
        nu = invert_rho(P, ell)
        extra = {"f": f_of_nu(P, nu)}
    can = as_param(nu).canonical()
    orbit = polygon(P, nu, _covering_start(P), max_steps=args.steps)
    report = {"command": "invert", "ell": ell}
    if frac is not None:
        report["ell_exact"] = str(frac)
    report.update(extra)
    report["nu"] = [can.nu1, can.nu2]
    report["rho"] = rho_of_nu(P, nu)
    report["orbit"] = orbit.to_json_dict()
    _write_svg(args, P, [nu], orbit.points)
    _emit_json(args, report)
    return 0


def _member_orbit(args):
    """Orbit of covering(P, 0) under the member named by --ell or --nu."""
    P = _pencil_from_args(args)
    if args.ell is not None:
        nu = invert_rho(P, _parse_ell(args.ell)[0])
    else:
        nu = _parse_floats(args.nu, 2, "--nu")
    orbit = polygon(P, nu, _covering_start(P), max_steps=args.steps)
    _write_svg(args, P, [nu], orbit.points)
    return orbit


def _cmd_polygon(args):
    _emit_json(args, _member_orbit(args).to_json_dict())
    return 0


def _cmd_sweep(args):
    import numpy as np

    try:
        ge, gf = (int(p) for p in str(args.grid).lower().split("x"))
    except ValueError:
        raise InvalidParameter(f"--grid must look like 20x20, got {args.grid!r}") from None
    if ge < 1 or gf < 1:
        raise InvalidParameter(f"--grid must be positive, got {args.grid!r}")
    es = np.linspace(0.05, 0.95, ge)
    ts = np.linspace(0.05, 0.95, gf)
    E = np.repeat(es, gf)
    F = E * np.tile(ts, ge)
    closed = np.array([rotation_confocal(e, f) for e, f in zip(E, F)])
    numeric = np.atleast_1d(rotation_estimate(E, F, args.steps))
    lines = ["e,f,rho_closed_form,rho_numeric,residual"]
    for e, f, rc, rn in zip(E, F, closed, numeric):
        row = (float(e), float(f), float(rc), float(rn), abs(float(rc) - float(rn)))
        lines.append(",".join(repr(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args):
    from .verify import SUITES, run_suite

    if args.suite not in SUITES:
        # the message argparse gives for a value outside `choices`
        choices = ", ".join(map(repr, SUITES))
        _usage_error("poncelet verify",
                     f"argument --suite: invalid choice: {args.suite!r} (choose from {choices})")
    report = run_suite(args.suite)
    _emit_json(args, report)
    return 0 if report["passed"] else 1


def _cmd_render(args):
    orbit = _member_orbit(args)
    report = {
        "command": "render",
        "svg": args.svg,
        "steps": orbit.steps,
        "closed": orbit.closed,
    }
    _emit_json(args, report)
    return 0


def _add_pencil_opts(p, confocal=True):
    p.add_argument("--lambda", dest="lam", metavar="a,b,c", help="diagonal pencil eigenvalues")
    p.add_argument("--pencil", metavar="FILE.json", help="pencil as JSON (C1/C2 or lambda)")
    if confocal:
        p.add_argument("--confocal", metavar="e,f", help="confocal pair: caustic e, boundary f")


def build_parser():
    ap = _Parser(
        prog="poncelet",
        description="Rotation numbers, porisms and polygons for pencils of nested ellipses.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotation", help="closed-form rotation number of a member")
    _add_pencil_opts(p)
    p.add_argument("--nu", default="0,1", metavar="n1,n2", help="pencil parameter")
    p.add_argument("--steps", type=int, default=0, help="add a winding estimate over N steps")
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_rotation)

    p = sub.add_parser("invert", help="member with a prescribed rotation number")
    _add_pencil_opts(p, confocal=False)
    p.add_argument("--confocal-e", type=float, metavar="E", help="caustic eccentricity; solves for the boundary")
    p.add_argument("--ell", required=True, metavar="L", help="rotation number, decimal or p/q")
    p.add_argument("--steps", type=int, default=10000, help="polygon step cap")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--svg", metavar="PATH", help="draw the conics and the polygon")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("polygon", help="orbit polygon of a member map")
    _add_pencil_opts(p)
    p.add_argument("--nu", default="0,1", metavar="n1,n2")
    p.add_argument("--ell", metavar="L", help="use the member with this rotation number")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(fn=_cmd_polygon)

    p = sub.add_parser("sweep", help="closed form vs winding estimate over a grid in Delta")
    p.add_argument("--grid", default="20x20", metavar="GxG")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", help="one suite, or all (the default)")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="SVG of the pencil and one orbit")
    _add_pencil_opts(p)
    p.add_argument("--nu", default="0,1", metavar="n1,n2")
    p.add_argument("--ell", metavar="L")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--svg", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PonceletError as ex:
        sys.stderr.write(json.dumps({"error": ex.code, "message": str(ex)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
