"""Confocal billiards on E(f) and the closed-form rotation number.

Boundary parameterization gamma(phi) = (cos phi, sqrt(1-f^2) sin phi)/f;
states are (phi, r) with r the tangential momentum d . gamma'(phi) of the
outgoing unit direction d. The annulus is r^2 < |gamma'|^2 and the caustic
level sets are H = r^2/2 + cos^2(phi)/2 = 1/(2e^2) on the r > 0 sheet.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import Modulus, as_modulus, ellint_K, jacobi
from .errors import (
    InvalidRotation,
    NoIntersection,
    NotInDelta,
    NotInUPlus,
    OutOfAnnulus,
)
from .maps import _coefficients, _step_count, _winding, rho_from_spectrum


@dataclass(frozen=True)
class PhasePoint:
    phi: float
    r: float


@dataclass(frozen=True)
class EccPair:
    e: Modulus
    f: Modulus

    def __post_init__(self):
        e, f = as_modulus(self.e), as_modulus(self.f)
        if not 0.0 < f.e < e.e:
            raise NotInDelta(f"need 0 < f < e < 1, got e={e.e!r}, f={f.e!r}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)


def as_ecc_pair(e, f=None) -> EccPair:
    if isinstance(e, EccPair):
        return e
    return EccPair(e, f)


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


def rotation_confocal(e, f=None) -> float:
    """Closed-form rotation number on Delta: rho_from_spectrum on the
    confocal spectrum (e^2(1-f^2), e^2(1-e^2), f^2(1-e^2))."""
    p = as_ecc_pair(e, f)
    e2, f2 = p.e.e ** 2, p.f.e ** 2
    return rho_from_spectrum((e2 * (1.0 - f2), e2 * (1.0 - e2), f2 * (1.0 - e2)), (0.0, 1.0))


def porism_f(e, ell: float) -> Modulus:
    """The unique caustic f with rotation number ell: f = e cd(2 K ell, e)."""
    e = as_modulus(e)
    ell = float(ell)
    if not 0.0 < ell < 0.5:
        raise InvalidRotation(f"rotation number must lie in (0, 1/2), got {ell!r}")
    return Modulus(e.e * jacobi(2.0 * ellint_K(e) * ell, e).cd)


def half_rotation(e, f0=None):
    """Caustics halving and half-complementing the rotation number.

    Returns (f1, f2) with rho(e, f1) = rho(e, f0)/2 and
    rho(e, f2) = 1/2 - rho(e, f0)/2.
    """
    p = as_ecc_pair(e, f0)
    ev, fv = p.e.e, p.f.e
    s = math.sqrt((1.0 - ev * ev) * (1.0 - fv * fv))
    f1 = math.sqrt(ev * (ev + fv) / (1.0 + ev * fv + s))
    f2 = math.sqrt(ev * (ev - fv) / (1.0 - ev * fv + s))
    return Modulus(f1), Modulus(f2)


def gauss_transform(e, f=None) -> EccPair:
    """G(e,f) = (2 sqrt(e)/(1+e), 2 sqrt(e) f/(f^2+e)); leaves rho invariant."""
    p = as_ecc_pair(e, f)
    ev, fv = p.e.e, p.f.e
    se = math.sqrt(ev)
    return EccPair(Modulus(2.0 * se / (1.0 + ev)), Modulus(2.0 * se * fv / (fv * fv + ev)))


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


def rotation_estimate(e, f, steps: int = 10000):
    """Winding average of the billiard on Lambda(e) over the given steps.

    Runs in the confocal chart, where E(f) is the unit circle, the caustic
    E(e) is S_e^f and boundary angle phi sits at (sin phi, -cos phi); the
    orbit starts at phi = 0. Broadcasts over numpy arrays of (e, f) pairs,
    which keeps grid sweeps at O(steps) array operations; a single pair
    steps on Python floats and returns a float.
    """
    e = np.asarray(e, dtype=float)
    f = np.asarray(f, dtype=float)
    if not np.all((0.0 < f) & (f < e) & (e < 1.0)):
        raise NotInDelta("rotation estimate needs 0 < f < e < 1 elementwise")
    steps = _step_count(steps, 1)
    if e.ndim == 0 and f.ndim == 0:
        return float(_winding(_coefficients(float(e), float(f)), 0.0, -1.0, steps))
    e, f = np.broadcast_arrays(e, f)
    return _winding(_coefficients(e, f), 0.0, -1.0, steps)
