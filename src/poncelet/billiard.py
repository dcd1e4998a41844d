"""Confocal billiards on E(f) and the closed-form rotation number.

The billiard inside E(f) with caustic E(e) is the Poncelet map of the
confocal pair, so its rotation number is the pencil closed form on the
confocal spectrum, and its orbits step through the chart kernel of maps.
"""

import math
from dataclasses import dataclass

from .elliptic import Modulus, as_modulus, ellint_K, jacobi
from .errors import InvalidRotation, NotInDelta
from .maps import _coefficients, _step_count, _winding, rho_from_spectrum


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


def rotation_estimate(e, f, steps: int = 10000):
    """Winding average of the billiard on Lambda(e) over the given steps.

    Runs in the confocal chart, where E(f) is the unit circle, the caustic
    E(e) is S_e^f and boundary angle phi sits at (sin phi, -cos phi); the
    orbit starts at phi = 0. Broadcasts over numpy arrays of (e, f) pairs,
    which keeps grid sweeps at O(steps) array operations; a float pair
    steps on Python floats and returns a float.
    """
    pair = isinstance(e, float) and isinstance(f, float)
    if not pair:
        import numpy as np

        e, f = np.asarray(e, dtype=float), np.asarray(f, dtype=float)
        pair = e.ndim == 0 and f.ndim == 0
    if not (0.0 < f < e < 1.0 if pair else np.all((0.0 < f) & (f < e) & (e < 1.0))):
        raise NotInDelta("rotation estimate needs 0 < f < e < 1 elementwise")
    steps = _step_count(steps, 1)
    if pair:
        return _winding(_coefficients(float(e), float(f)), 0.0, -1.0, steps)
    return _winding(_coefficients(*np.broadcast_arrays(e, f)), 0.0, -1.0, steps)
