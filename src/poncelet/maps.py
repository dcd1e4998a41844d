"""Poncelet maps on a pencil: stepping, rotation numbers, compositions.

Every step runs through one kernel: the standard map of the unit circle
against S_e^f, in the chart where C1 is the unit circle and the member nu
is S_e^f(nu). The positive step moves counterclockwise in that chart (inner
conic on the left of the chord). Rotation numbers are plain floats in
[0, 1/2]; 0 is the outer conic, 1/2 the limiting point.
"""

import math
from dataclasses import dataclass

from .elliptic import Modulus, ellint_F, ellint_K, jacobi
from .errors import (
    DegenerateSpectrum,
    InvalidParameter,
    InvalidRotation,
    OffCircle,
    OffOuterConic,
)
from .pencil import (
    Pencil,
    PencilParam,
    _f_of_canonical,
    _homography,
    _param_kind,
    as_param,
)

TOL_CLOSE = 1e-7
_TOL_ON_CURVE = 1e-9
_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class PolygonOrbit:
    points: tuple
    steps: int
    winding: int
    closure_residual: float
    rho: float

    @property
    def closed(self) -> bool:
        return self.closure_residual < TOL_CLOSE

    def to_json_dict(self) -> dict:
        return {
            "points": [[float(x), float(y)] for x, y in self.points],
            "steps": self.steps,
            "winding": self.winding,
            "closure_residual": self.closure_residual,
            "rho": self.rho,
        }


def _to_chart(P: Pencil, x: float, y: float):
    return _homography(P.Minv_entries, P.Minv_norm, x, y)


def _from_chart(P: Pencil, X: float, Y: float):
    return _homography(P.M_entries, P.M_norm, X, Y)


def to_chart(P: Pencil, z):
    """Original plane -> standardized chart where C1 is the unit circle."""
    import numpy as np

    return np.array(_to_chart(P, float(z[0]), float(z[1])))


def from_chart(P: Pencil, w):
    import numpy as np

    return np.array(_from_chart(P, float(w[0]), float(w[1])))


def _require_on_outer(P: Pencil, z):
    """z as finite floats (x, y) on C1, within the relative on-curve tolerance."""
    x, y = float(z[0]), float(z[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidParameter(f"point has non-finite coordinates: {z!r}")
    C = P.C1
    q = (C.c11 * x + 2.0 * (C.c12 * y + C.c13)) * x + (C.c22 * y + 2.0 * C.c23) * y + C.c33
    if abs(q) > _TOL_ON_CURVE * P.C1_norm * (1.0 + x * x + y * y):
        raise OffOuterConic(f"point {tuple(z)!r} is not on the outer conic")
    return x, y


def _angle(Y, X):
    """The angle of (X, Y) in [0, 2 pi), on floats."""
    return math.atan2(Y, X) % _TAU


def _coefficients(e, f, inverse=False):
    """(e^2, a1 a4, a2 a3, a1 a2, a3 a4, sqrt, maximum, hypot, angle) from
    the coefficients a1..a4 of the standard map against S_e^f.

    Float e and f (np.float64 included) take the math primitives and give
    Python floats; anything else takes numpy ufuncs, so e and f may be
    arrays. _step and _winding use the primitives handed over here. The
    inverse map is the same kernel with a1 -> -a1 (reflection symmetry of
    S_e^f).
    """
    if isinstance(e, float) and isinstance(f, float):
        e, f = float(e), float(f)
        sqrt, maximum, hypot, angle = math.sqrt, max, math.hypot, _angle
    else:
        import numpy as np

        sqrt, maximum, hypot = np.sqrt, np.maximum, np.hypot

        def angle(Y, X):
            return np.mod(np.arctan2(Y, X), _TAU)
    e2, f2 = e * e, f * f
    a1 = 2.0 * f * sqrt((1.0 - f2) * (e2 - f2))
    if inverse:
        a1 = -a1
    a2, a3, a4 = e2 - f2 * f2, e2 + f2 * f2 - 2.0 * f2, e2 * (1.0 - 2.0 * f2) + f2 * f2
    return e2, a1 * a4, a2 * a3, a1 * a2, a3 * a4, sqrt, maximum, hypot, angle


def _step(c, X, Y):
    """The one chord step: (X, Y) on the unit circle to its image, put back
    on the circle so that long orbits do not drift off it.

    The closed form divides the numerator below by
    den = a2^2 - a1^2 e^2 Y^2 >= a4^2 > 0, so normalising the numerator is
    the same map. The products of the a_i come from _coefficients; Python
    multiplies left to right, so a1 * a4 * Y * root rounds as here.
    """
    e2, a14, a23, a12, a34, sqrt, maximum, hypot, _ = c
    root = sqrt(maximum(1.0 - e2 * Y * Y, 0.0))
    X1 = -(a14 * Y * root + a23 * X)
    Y1 = a12 * X * root - a34 * Y
    n = hypot(X1, Y1)
    return X1 / n, Y1 / n


def _winding(c, X, Y, steps: int):
    """Winding average of `steps` kernel steps from (X, Y); O(1/steps).

    With f < e every step turns counterclockwise by an angle in (0, pi],
    and by exactly pi only on the limiting ray f = 0, since S_e^f is
    centred at the origin. So a step passes the ray phi = 0 exactly when it
    goes from Y < 0 to Y >= 0, and the winding is that count of crossings
    plus the net angle (phi_N - phi_0) / 2 pi, phi taken in [0, 2 pi): no
    angle is computed inside the loop. The one exception is an orbit of the
    limiting ray on the X axis, whose steps from phi = pi land on phi = 0
    uncounted; the callers start off that axis.
    """
    angle = c[-1]
    phi0 = angle(Y, X)
    low, crossings = Y < 0.0, 0
    for _ in range(steps):
        X, Y = _step(c, X, Y)
        now = Y < 0.0
        crossings = crossings + (low > now)
        low = now
    return (crossings + (angle(Y, X) - phi0) / _TAU) / steps


def _step_count(n, least: int) -> int:
    """n as an int of at least `least` steps, else InvalidParameter."""
    try:
        count = int(n)
    except (ValueError, OverflowError) as exc:
        raise InvalidParameter(f"step count must be a finite number, got {n!r}") from exc
    if count != n:
        raise InvalidParameter(f"step count must be an integer, got {n!r}")
    if count < least:
        raise InvalidParameter(f"need at least {least} step(s), got {count!r}")
    return count


def standard_map(e, f: float, p):
    """The explicit Poncelet map of the unit circle against S_e^f.

    Rational in (X, Y, sqrt(1 - e^2 Y^2)) with the non-negative branch of
    the square root. f = 0 is the antipodal map, f = e the identity. The
    image is put back on the circle, so the map can be iterated.
    """
    import numpy as np

    e = e.e if isinstance(e, Modulus) else float(e)
    f = float(f)
    if not (0.0 <= f <= e < 1.0):
        raise InvalidParameter(f"need 0 <= f <= e < 1, got f={f!r}, e={e!r}")
    X, Y = float(p[0]), float(p[1])
    if not (math.isfinite(X) and math.isfinite(Y)):
        raise InvalidParameter(f"point has non-finite coordinates: {p!r}")
    if abs(X * X + Y * Y - 1.0) > 1e-9:
        raise OffCircle(f"point {tuple(p)!r} is not on the unit circle")
    return np.array(_step(_coefficients(e, f), X, Y))


def _member_coefficients(P: Pencil, nu, inverse=False):
    nu = as_param(nu).canonical()
    kind = _param_kind(P.lam, nu)
    if kind == "outer":
        raise InvalidParameter("the outer conic defines no tangent dynamics")
    return _coefficients(P.e.e, _f_of_canonical(P, nu, kind), inverse)


def poncelet_step(P: Pencil, nu, z, inverse: bool = False):
    """One positive-orientation Poncelet step of z on C1 against C_nu.

    The standard map against S_e^f(nu) seen through the chart; the limiting
    ray (f = 0) gives the conjugated half turn.
    """
    import numpy as np

    x, y = _require_on_outer(P, z)
    c = _member_coefficients(P, nu, inverse)
    X, Y = _step(c, *_to_chart(P, x, y))
    return np.array(_from_chart(P, X, Y))


def _covering_chart(P: Pencil, theta: float):
    """covering(P, theta) in the chart: (cn(4K theta), sn(4K theta))."""
    jv = jacobi(4.0 * ellint_K(P.e) * float(theta), P.e)
    return jv.cn, jv.sn


def covering(P: Pencil, theta: float):
    """Standard covering of C1: theta -> M_hat(cn(4K theta), sn(4K theta)).

    Period 1; every P_nu becomes the shift theta -> theta + rho(nu).
    """
    import numpy as np

    return np.array(_from_chart(P, *_covering_chart(P, theta)))


def rho_from_spectrum(lam, nu) -> float:
    """Rotation number from eigenvalues alone; tolerates l1 = l2 (circle
    pencils, modulus 0) where F/K degenerate to arcsin and pi/2."""
    l1, l2, l3 = lam
    nu = as_param(nu).canonical()
    if nu.nu2 == 0.0:
        return 0.0
    # sin^2 : cos^2 of omega is (l1 - l3) nu2 : nu1 + l3 nu2, cancellation-free near pi/2
    s2, c2 = (l1 - l3) * nu.nu2, nu.nu1 + l3 * nu.nu2
    if not l1 - l3 > 0.0:
        # l1 = l3, as when a confocal spectrum underflows to zero
        raise DegenerateSpectrum(f"no modulus in the spectrum {tuple(lam)!r}")
    omega = math.atan2(math.sqrt(max(s2, 0.0)), math.sqrt(max(c2, 0.0)))
    e = Modulus(math.sqrt(max((l1 - l2) / (l1 - l3), 0.0)))
    return ellint_F(omega, e) / (2.0 * ellint_K(e))


def rho_of_nu(P: Pencil, nu) -> float:
    """Closed-form rotation number of P_nu, in [0, 1/2]."""
    nu = as_param(nu).canonical()
    kind = _param_kind(P.lam, nu)
    if kind == "outer":
        return 0.0
    if kind == "limit":
        return 0.5
    return rho_from_spectrum(P.lam, nu)


def invert_rho(P: Pencil, ell: float) -> PencilParam:
    """The parameter ray with rotation number ell in (0, 1/2).

    nu(ell) = (l1 cn^2(2K ell) - l3, sn^2(2K ell)) traces the line
    nu1 + l1 nu2 = l1 - l3. Near ell = 1/2 the first component approaches
    the limiting ray and its relative accuracy degrades with cn^2 -> 0.
    """
    ell = float(ell)
    if not 0.0 < ell < 0.5:
        raise InvalidRotation(f"rotation number must lie in (0, 1/2), got {ell!r}")
    jv = jacobi(2.0 * ellint_K(P.e) * ell, P.e)
    l1, _, l3 = P.lam
    # raw components, not canonicalized: they sit on the affine line
    # nu1 + l1 nu2 = l1 - l3 and callers rely on that normalization
    return PencilParam(l1 * jv.cn**2 - l3, jv.sn**2)


def symmetry_flow(P: Pencil, t: float, z):
    """The circle-translation symmetry: covering-angle shift by t.

    Commutes with every P_nu and closes orbits onto translated orbits.
    """
    X, Y = _to_chart(P, *_require_on_outer(P, z))
    phi = math.atan2(Y, X)
    theta = ellint_F(phi, P.e) / (4.0 * ellint_K(P.e))
    return covering(P, theta + float(t))


def estimate_rotation(P: Pencil, nu, n: int = 10000) -> float:
    """Winding average of n steps from covering(P, 0.041); O(1/n) error."""
    c = _member_coefficients(P, nu)
    n = _step_count(n, 100)
    return float(_winding(c, *_covering_chart(P, 0.041), n))


def _chart_orbit(P: Pencil, z0, ws, winding, residual, rho) -> PolygonOrbit:
    """The float point z0 followed by the chart points ws, mapped back."""
    return PolygonOrbit(
        points=(z0, *(_from_chart(P, X, Y) for X, Y in ws)),
        steps=len(ws),
        winding=winding,
        closure_residual=residual,
        rho=rho,
    )


def polygon(P: Pencil, nu, z0, max_steps: int = 10000) -> PolygonOrbit:
    """Iterate P_nu from z0 until first return within TOL_CLOSE (standard
    chart) or max_steps; winding = round(steps * rho)."""
    x0, y0 = _require_on_outer(P, z0)
    max_steps = _step_count(max_steps, 1)
    rho = rho_of_nu(P, nu)
    c = _member_coefficients(P, nu)
    X0, Y0 = X, Y = _to_chart(P, x0, y0)
    ws = []
    for _ in range(max_steps):
        X, Y = _step(c, X, Y)
        ws.append((X, Y))
        residual = math.hypot(X - X0, Y - Y0)
        if residual < TOL_CLOSE:
            break
    return _chart_orbit(P, (x0, y0), ws, int(round(len(ws) * rho)), residual, rho)


def run_composition(P: Pencil, schedule, z0) -> PolygonOrbit:
    """Apply (P_nu)^k blocks in order; rotation numbers add as sum(k rho).

    Block counts k are integers, negative for the inverse map; each distinct
    (nu, sign of k) is resolved once."""
    x0, y0 = _require_on_outer(P, z0)
    total_rho = 0.0
    blocks, members = [], {}
    for nu, k in schedule:
        n = _step_count(abs(k), 0)
        key = (as_param(nu), k < 0)
        if key not in members:
            members[key] = _member_coefficients(P, nu, inverse=k < 0), rho_of_nu(P, nu)
        c, rho = members[key]
        blocks.append((c, n))
        total_rho += (-n if k < 0 else n) * rho
    X0, Y0 = X, Y = _to_chart(P, x0, y0)
    ws = []
    for c, k in blocks:
        for _ in range(k):
            X, Y = _step(c, X, Y)
            ws.append((X, Y))
    residual = math.hypot(X - X0, Y - Y0)
    return _chart_orbit(P, (x0, y0), ws, int(round(total_rho)), residual, total_rho)
