"""Independent numeric oracles used to freeze expected test values.

None of these call into the package: the elliptic integrals go through
scipy.integrate.quad (QUADPACK adaptive Gauss-Kronrod) on the defining
integrands, tangent lines through elementary circle geometry or through the
dual conic, the Poncelet step through those tangent lines, the circle
pencil spectrum through the quadratic formula, the pencil cubic
det(l*C1 - C2) by multilinear expansion, nesting by sampling the
inner conic from its own centre and axes, and SVG polylines one point at a
time. Homographies act by one numpy product on (x, y, 1); that oracle
raises the package's HomographySingularity, so a test can expect the same
error from both. The confocal billiard reflects chords off the boundary
E(f); its cover map alone takes K and the Jacobi functions from the
package, which the elliptic tests check against quadrature. Jacobi epsilon
is mpmath's second-kind integral at the package's amplitude am(u, e). The
square-root series of the pencil cubic comes from that cubic's
coefficients. Conics are plain symmetric 3x3 matrices of u^T C u with
u = (x, y, 1). Test modules import from here; the library must agree with
these within the tolerances stated in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np
import scipy.linalg
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from poncelet.billiard import as_ecc_pair
from poncelet.elliptic import Modulus, as_modulus, ellint_K, jacobi
from poncelet.errors import HomographySingularity, InvalidParameter, PonceletError


def ellint_F_quad(phi, e):
    """Incomplete elliptic integral of the first kind by adaptive quadrature."""
    val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - (e * math.sin(t)) ** 2),
                    0.0, phi, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-10
    return val


def ellint_K_quad(e):
    return ellint_F_quad(math.pi / 2.0, e)


def ellint_E_quad(phi, e):
    """Incomplete elliptic integral of the second kind by adaptive quadrature."""
    val, err = quad(lambda t: math.sqrt(1.0 - (e * math.sin(t)) ** 2),
                    0.0, phi, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-10
    return val


def jacobi_epsilon_quad(u, e, sn_cn_dn=None):
    """Jacobi epsilon by quadrature of dn^2.

    dn is reconstructed from the inverse of F: am(t) solves F(am) = t, found
    by bisection, so this path never touches the package's Landen code.
    """
    def am_of(t):
        if t == 0.0:
            return 0.0
        sgn = 1.0 if t > 0 else -1.0
        t = abs(t)
        lo, hi = 0.0, math.pi / 2.0
        # widen until F(hi) >= t; F grows by 2K per pi
        while ellint_F_quad(hi, e) < t:
            hi += math.pi / 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ellint_F_quad(mid, e) < t:
                lo = mid
            else:
                hi = mid
        return sgn * 0.5 * (lo + hi)

    def dn2(t):
        s = math.sin(am_of(t))
        return 1.0 - (e * s) ** 2

    val, err = quad(dn2, 0.0, u, epsabs=1e-12, epsrel=1e-11, limit=200)
    assert err < 1e-8
    return val


def jacobi_epsilon(u, e):
    """Jacobi epsilon, the integral of dn^2 from 0 to u: mpmath's incomplete
    second-kind integral E(am(u, e) | e^2) at the package's amplitude."""
    return float(mpmath.ellipe(jacobi(u, e).am, e * e))


def circle_tangents(center, radius, z):
    """Tangent lines from z to the circle |p - center| = radius.

    Returns two (line, touch_point) pairs with line = (a, b, c) normalized so
    a^2 + b^2 = 1 and a*x + b*y + c = 0 on the line.
    """
    cx, cy = center
    zx, zy = z
    dx, dy = zx - cx, zy - cy
    d2 = dx * dx + dy * dy
    assert d2 > radius * radius, "point must be outside"
    # touch points: rotate the radius vector by +-alpha, cos(alpha) = r/d
    d = math.sqrt(d2)
    ca = radius / d
    sa = math.sqrt(1.0 - ca * ca)
    out = []
    base = (dx / d, dy / d)
    for s in (+1.0, -1.0):
        tx = radius * (ca * base[0] - s * sa * base[1])
        ty = radius * (s * sa * base[0] + ca * base[1])
        px, py = cx + tx, cy + ty
        # tangent line at (px,py): (p - c) . (q - p) = 0
        a, b = tx, ty
        n = math.hypot(a, b)
        a, b = a / n, b / n
        c = -(a * px + b * py)
        out.append(((a, b, c), (px, py)))
    return out


def circle_pencil_eigs(R, r, a):
    """Spectrum of the circle pair det(lam*C1 - C2) by the quadratic formula.

    C1 = diag(1,1,-R^2), C2 = [[1,0,-a],[0,1,0],[-a,0,a^2-r^2]]. The cubic
    factors as -(lam - 1)(R^2 lam^2 - b lam + r^2) with b = R^2 + r^2 - a^2.
    """
    b = R * R + r * r - a * a
    disc = b * b - 4.0 * r * r * R * R
    assert disc >= 0.0
    s = math.sqrt(disc)
    lam2 = (b + s) / (2.0 * R * R)
    lam3 = (b - s) / (2.0 * R * R)
    return 1.0, lam2, lam3


def pencil_cubic(C1, C2):
    """Coefficients (b0, b1, b2, b3) of det(l*C1 - C2) in descending powers."""
    A, B = np.asarray(C1, dtype=float), -np.asarray(C2, dtype=float)
    coeffs = np.zeros(4)
    # det is multilinear in columns: sum over which columns come from A
    for mask in range(8):
        cols = [A[:, j] if (mask >> j) & 1 else B[:, j] for j in range(3)]
        k = bin(mask).count("1")
        coeffs[3 - k] += np.linalg.det(np.column_stack(cols))
    return coeffs


def winding_rotation(phis, n):
    """O(1/n) rotation estimate from a sequence of angles mod 2pi."""
    total = 0.0
    for k in range(n):
        d = (phis[k + 1] - phis[k]) % (2.0 * math.pi)
        total += d
    return total / (2.0 * math.pi * n)


def random_spd_congruence(rng, scale=1.0):
    """Random well-conditioned invertible 3x3 matrix for congruence tests."""
    while True:
        S = rng.normal(size=(3, 3)) * scale
        if abs(np.linalg.det(S)) > 0.1:
            return S


# -- the tangent-line route to the Poncelet step ------------------------------

TOL_ON = 1e-9


class PointClass(Enum):
    INSIDE = "inside"
    ON = "on"
    OUTSIDE = "outside"


class PointNotOutside(ValueError):
    """No real pair of tangent lines from the point."""


def _homogeneous(z):
    return np.array([float(z[0]), float(z[1]), 1.0])


def classify_point(C, z):
    """Sign of u^T C u, with a scale-normalized band for On."""
    C = np.asarray(C, dtype=float)
    u = _homogeneous(z)
    q = float(u @ C @ u)
    band = TOL_ON * np.linalg.norm(C) * float(u @ u)
    if abs(q) <= band:
        return PointClass.ON
    return PointClass.INSIDE if q < 0.0 else PointClass.OUTSIDE


def adjugate(C):
    """adj(C) with C @ adj(C) = det(C) I; rows are cross products of columns."""
    M = np.asarray(C, dtype=float)
    return np.column_stack(
        [
            np.cross(M[:, 1], M[:, 2]),
            np.cross(M[:, 2], M[:, 0]),
            np.cross(M[:, 0], M[:, 1]),
        ]
    ).T


def tangent_lines_from_point(C, z):
    """The two tangent lines to C through the outside point z.

    Works in the dual picture: lines through z form a projective pencil
    s*la + t*lb, and tangency is the quadratic l^T adj(C) l = 0 on that
    pencil. Returned lines have unit (l1, l2) norm, largest of the first
    two components positive, and are ordered by direction angle.
    """
    if classify_point(C, z) is not PointClass.OUTSIDE:
        raise PointNotOutside(f"point {tuple(z)!r} is not outside the conic")
    u = _homogeneous(z)
    # two independent lines through z; u3 = 1 keeps {e1, e2, u} a basis
    la = np.cross(u, [1.0, 0.0, 0.0])
    lb = np.cross(u, [0.0, 1.0, 0.0])
    adj = adjugate(C)
    qa = float(la @ adj @ la)
    qb = float(lb @ adj @ lb)
    qm = float(la @ adj @ lb)
    disc = qm * qm - qa * qb
    if disc <= 0.0:
        raise PointNotOutside(f"no real tangent pair from {tuple(z)!r}")
    qq = -(qm + np.copysign(np.sqrt(disc), qm))
    # projective roots (s:t) of qa s^2 + 2 qm s t + qb t^2, paired to avoid
    # cancellation when qa or qb is small
    lines = []
    for s, t in ((qq, qa), (qb, qq)):
        l = s * la + t * lb
        l = l / np.hypot(l[0], l[1])
        if max((l[0], l[1]), key=abs) < 0.0:
            l = -l
        lines.append(l)
    lines.sort(key=lambda l: np.arctan2(l[1], l[0]))
    return lines[0], lines[1]


def tangency_point(C, line):
    """Touch point of a tangent line, as the pole adj(C) l, dehomogenized."""
    p = adjugate(C) @ np.asarray(line, dtype=float)
    if abs(p[2]) < 1e-13 * np.linalg.norm(p):
        raise PointNotOutside("tangency point at infinity")
    return p[:2] / p[2]


def _second_intersection(C1, z, line):
    """Far intersection of a chord through z (on C1) with C1."""
    M = np.asarray(C1, dtype=float)
    d = np.array([-line[1], line[0], 0.0])
    u = _homogeneous(z)
    a = float(d @ M @ d)
    b = float(u @ M @ d)
    c = float(u @ M @ u)
    t = (-b - math.copysign(math.sqrt(b * b - a * c), b)) / a
    return (u + t * d)[:2]


def geometric_step(C1, C, z, inverse=False):
    """Poncelet step of z on the outer conic C1 along a tangent to the inner
    conic C: the chord with C on its left, or on its right when inverse.

    C lies on one side of each tangent line, so the side of its centre (the
    pole of the line at infinity) tells the two chords apart.
    """
    centre = tangency_point(C, (0.0, 0.0, 1.0))
    z = np.asarray(z, dtype=float)
    for line in tangent_lines_from_point(C, z):
        z2 = _second_intersection(C1, z, line)
        a, b = z2 - z, centre - z
        left = a[0] * b[1] - a[1] * b[0]
        if (left < 0.0) if inverse else (left > 0.0):
            return z2
    raise PointNotOutside(f"no oriented tangent chord from {tuple(z)!r}")


# -- nesting by sampling the inner conic ---------------------------------------


def ellipse_matrix(centre, L):
    """Conic matrix of the ellipse {centre + L y : |y| = 1}, L an invertible 2x2."""
    p = np.asarray(centre, dtype=float)
    S = np.linalg.inv(L @ np.transpose(L))
    Sp = S @ p
    return np.block([[S, -Sp[:, None]], [-Sp[None, :], np.array([[p @ Sp - 1.0]])]])


def _ellipse_frame(C):
    """Centre and axis map L of the ellipse C, from C's own 2x2 block: the
    points are centre + L (cos t, sin t)."""
    C = np.asarray(C, dtype=float)
    A, b = C[:2, :2], C[:2, 2]
    centre = -np.linalg.solve(A, b)
    k = centre @ A @ centre - C[2, 2]
    w, V = np.linalg.eigh(A / k)
    return centre, V / np.sqrt(w)


def nesting_margin(C1, C2):
    """Maximum over C2 of C1's normalised form u^T C1 u / (|C1| (1 + |z|^2)).

    Negative iff C2 lies strictly inside C1. C2 is parametrised from its own
    centre and axes; the best of 4096 samples is refined by bounded scalar
    maximisation between its two neighbours.
    """
    C1 = np.asarray(C1, dtype=float)
    centre, L = _ellipse_frame(C2)
    scale = np.linalg.norm(C1)

    def form(t):
        t = np.atleast_1d(t)
        z = centre[:, None] + L @ np.vstack([np.cos(t), np.sin(t)])
        u = np.vstack([z, np.ones_like(t)])
        return np.einsum("in,ij,jn->n", u, C1, u) / (scale * (1.0 + (z * z).sum(axis=0)))

    h = 2.0 * math.pi / 4096
    ts = h * np.arange(4096)
    t0 = ts[int(np.argmax(form(ts)))]
    best = minimize_scalar(lambda t: -form(t)[0], bounds=(t0 - h, t0 + h),
                           method="bounded", options={"xatol": 1e-13})
    return max(float(form(t0)[0]), -float(best.fun))


def spectral_gap(C1, C2):
    """Smallest distance between roots of det(l C1 - C2), relative to the
    largest root, from scipy's generalised eigensolver; 0 for a double root."""
    lam = scipy.linalg.eigvals(np.asarray(C2, dtype=float), np.asarray(C1, dtype=float))
    d = [abs(lam[i] - lam[j]) for i in range(3) for j in range(i + 1, 3)]
    return min(d) / max(abs(lam))


# -- homographies and SVG figures, one point at a time --------------------------


def apply_homography(M, p) -> np.ndarray:
    """Fractional-linear action of a 3x3 matrix on an affine point, by one
    numpy product."""
    M = np.asarray(M, dtype=float)
    u = np.array([float(p[0]), float(p[1]), 1.0])
    w = M @ u
    if abs(w[2]) < 1e-13 * np.linalg.norm(M) * np.linalg.norm(u):
        raise HomographySingularity(f"homography denominator vanished at {tuple(p)!r}")
    return w[:2] / w[2]


def homography_rounding_scale(H, pts):
    """|H| |u| (1 + |p|) / |w| at each row (x, y) of pts, with u = (x, y, 1)
    and H u = w (p, 1): the size by which the rounding of H u can move the
    image p, so two evaluations of p that round differently agree within a
    few eps times it."""
    H = np.asarray(H, dtype=float)
    u = np.column_stack([np.asarray(pts, dtype=float), np.ones(len(pts))])
    Hu = u @ H.T
    p = Hu[:, :2] / Hu[:, 2:]
    return (np.linalg.norm(H) * np.linalg.norm(u, axis=1) * (1.0 + np.linalg.norm(p, axis=1))
            / np.abs(Hu[:, 2]))


def member_polyline_pointwise(M, lam, nu, segments=256):
    """Closed polyline on the member nu of the pencil with chart M and
    spectrum lam: in the chart the member is the ellipse
    (nu1 + l1 nu2) x^2 + (nu1 + l2 nu2) y^2 = nu1 + l3 nu2, and each sample
    (a cos s, b sin s) is pushed through M on its own."""
    M = np.asarray(M, dtype=float)
    n = math.hypot(nu[0], nu[1])
    nu1, nu2 = nu[0] / n, nu[1] / n
    l1, l2, l3 = lam
    g = max(nu1 + l3 * nu2, 0.0)
    a, b = math.sqrt(g / (nu1 + l1 * nu2)), math.sqrt(g / (nu1 + l2 * nu2))
    pts = []
    for s in np.linspace(0.0, 2.0 * math.pi, segments + 1):
        u = M @ np.array([a * math.cos(s), b * math.sin(s), 1.0])
        pts.append(u[:2] / u[2])
    pts[-1] = pts[0]
    return np.array(pts)


def svg_document(polylines, orbit=None):
    """Stroke-only SVG text with each coordinate formatted on its own by
    str.format: the first polyline black, the others grey, the orbit blue,
    y negated, and a viewBox that fits everything with a 5% margin."""
    fmt = "{:.8g}".format
    drawn = list(polylines) + ([np.asarray(orbit, dtype=float)] if orbit is not None else [])
    allpts = np.vstack(drawn)
    (xmin, ymin), (xmax, ymax) = allpts.min(axis=0), allpts.max(axis=0)
    margin = 0.05 * max(xmax - xmin, ymax - ymin)
    w, h = xmax - xmin + 2.0 * margin, ymax - ymin + 2.0 * margin
    box = " ".join(fmt(v) for v in (xmin - margin, -(ymax + margin), w, h))
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{box}">',
             f'<g fill="none" stroke-width="{fmt(0.004 * max(w, h))}">']
    colours = ["#000000"] + ["#777777"] * (len(polylines) - 1) + ["#1f77b4"]
    for colour, pts in zip(colours, drawn):
        attr = " ".join(fmt(x) + "," + fmt(-y) for x, y in pts)
        lines.append(f'<polyline stroke="{colour}" points="{attr}"/>')
    return "\n".join(lines + ["</g>", "</svg>"]) + "\n"


# -- the confocal billiard by reflection ----------------------------------------
#
# Boundary parameterization gamma(phi) = (cos phi, sqrt(1-f^2) sin phi)/f;
# states are (phi, r) with r the tangential momentum d . gamma'(phi) of the
# outgoing unit direction d. The annulus is r^2 < |gamma'|^2 and the caustic
# level sets are H = r^2/2 + cos^2(phi)/2 = 1/(2e^2) on the r > 0 sheet.


class OutOfAnnulus(PonceletError):
    """Billiard phase point with |r| at or above the tangent speed."""

    code = "out_of_annulus"


class NoIntersection(PonceletError):
    code = "no_intersection"


class NotInUPlus(PonceletError):
    """Phase point outside the positively-moving elliptic-caustic region."""

    code = "not_in_u_plus"


@dataclass(frozen=True)
class PhasePoint:
    phi: float
    r: float


def boundary_point(f: float, phi: float) -> np.ndarray:
    return np.array([math.cos(phi), math.sqrt(1.0 - f * f) * math.sin(phi)]) / f


def boundary_velocity(f: float, phi: float) -> np.ndarray:
    return np.array([-math.sin(phi), math.sqrt(1.0 - f * f) * math.cos(phi)]) / f


def invariant_H(s: PhasePoint) -> float:
    return 0.5 * s.r * s.r + 0.5 * math.cos(s.phi) ** 2


def caustic_of_state(s: PhasePoint) -> Modulus:
    """Caustic eccentricity 1/sqrt(2H) of a state on the r > 0 sheet."""
    H = invariant_H(s)
    if s.r <= 0.0 or H <= 0.5:
        raise NotInUPlus(f"state (phi={s.phi!r}, r={s.r!r}) has H={H!r}")
    return Modulus(1.0 / math.sqrt(2.0 * H))


def caustic_state(e, phi: float) -> PhasePoint:
    """The state of Lambda(e) over boundary angle phi."""
    e = as_modulus(e).e
    r2 = 1.0 / (e * e) - math.cos(phi) ** 2
    if r2 <= 0.0:
        raise NotInUPlus(f"no caustic state at phi={phi!r} for e={e!r}")
    return PhasePoint(phi, math.sqrt(r2))


def billiard_map(f, s: PhasePoint) -> PhasePoint:
    """One reflection: reconstruct the outgoing chord, hit the boundary.

    Returns the lifted angle phi + dphi with dphi in (0, 2pi), so repeated
    application winds the lift forward monotonically.
    """
    f = as_modulus(f).e
    v = boundary_velocity(f, s.phi)
    speed2 = float(v @ v)
    if s.r * s.r >= speed2:
        raise OutOfAnnulus(f"r^2 = {s.r**2!r} >= |gamma'|^2 = {speed2!r}")
    t_hat = v / math.sqrt(speed2)
    n_in = np.array([-t_hat[1], t_hat[0]])  # +90 degrees: inward for ccw boundary
    a = s.r / math.sqrt(speed2)
    d = a * t_hat + math.sqrt(1.0 - a * a) * n_in
    E = np.array([f * f, f * f / (1.0 - f * f)])
    z0 = boundary_point(f, s.phi)
    qa = float(d * E @ d)
    qb = float(z0 * E @ d)
    t1 = -2.0 * qb / qa
    if not (t1 > 0.0 and math.isfinite(t1)):
        raise NoIntersection(f"chord from phi={s.phi!r} found no second boundary point")
    z1 = z0 + t1 * d
    phi_raw = math.atan2(z1[1] * f / math.sqrt(1.0 - f * f), z1[0] * f)
    dphi = (phi_raw - s.phi) % (2.0 * math.pi)
    phi1 = s.phi + dphi
    r1 = float(d @ boundary_velocity(f, phi1))
    return PhasePoint(phi1, r1)


def confocal_cover(theta: float, e, f=None) -> np.ndarray:
    """Covering map of E(f): theta -> (-sn(4K theta), sqrt(1-f^2) cn(4K theta))/f.

    Period 1 in theta; the billiard with caustic E(e) becomes the rigid
    shift theta -> theta + rho in this chart.
    """
    p = as_ecc_pair(e, f)
    fv = p.f.e
    jv = jacobi(4.0 * ellint_K(p.e) * float(theta), p.e)
    return np.array([-jv.sn, math.sqrt(1.0 - fv * fv) * jv.cn]) / fv


def cover_angle(theta: float, e, f=None) -> float:
    """Boundary angle of the cover point: phi = am(4K theta) + pi/2."""
    p = as_ecc_pair(e, f)
    return jacobi(4.0 * ellint_K(p.e) * float(theta), p.e).am + 0.5 * math.pi


# -- the square-root series of the pencil cubic ---------------------------------


class BadSignature(PonceletError):
    """Characteristic-polynomial constant term not positive; sqrt series undefined."""

    code = "bad_signature"


@dataclass(frozen=True)
class SqrtSeries:
    """Taylor coefficients alpha_0..alpha_m of sqrt(det(l*C1 - C2)) at l=0."""

    alpha: tuple


def sqrt_series(P, order: int) -> SqrtSeries:
    """Formal square root of the pencil cubic of P.C1 and P.C2, seeded at
    sqrt(det(-C2)): alpha_n = (c_n - sum alpha_i alpha_{n-i}) / (2 alpha_0)
    over 0 < i < n, with c_n the coefficient of l^n."""
    order = int(order)
    if order < 2:
        raise InvalidParameter(f"need order >= 2, got {order!r}")
    c = list(pencil_cubic(P.C1.matrix, P.C2.matrix)[::-1]) + [0.0] * order
    if c[0] <= 0.0:
        raise BadSignature(f"constant term det(-C2) = {c[0]!r} is not positive")
    alpha = [math.sqrt(c[0])]
    for n in range(1, order + 1):
        alpha.append((c[n] - math.fsum(alpha[i] * alpha[n - i] for i in range(1, n)))
                     / (2.0 * alpha[0]))
    return SqrtSeries(alpha=tuple(alpha))
