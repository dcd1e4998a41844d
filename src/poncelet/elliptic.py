"""Real elliptic integrals and Jacobi elliptic functions.

Self-contained double-precision kernel, no special-function dependency:

* complete integral K by the arithmetic-geometric mean,
* the incomplete integral F by Carlson's symmetric R_F (duplication),
* sn/cn/dn by the descending Landen transformation, recursing on the
  modulus until it drops below 1e-14 and seeding with circular functions.

Everything takes the modulus e (not the parameter m = e^2). Arguments are
reduced by the real quarter/half periods before evaluation, so large
covering-map arguments stay accurate. Moduli with e > 1 - 1e-9 are rejected
rather than extended asymptotically; the e -> 1 statements are limits, not
evaluation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ModulusOutOfRange

__all__ = ["Modulus", "JacobiValues", "as_modulus", "ellint_F", "ellint_K", "jacobi"]

# evaluation domain for the modulus; the complement sqrt(1-e^2) keeps ~4.5e-5
# of headroom at the top end, enough for every Landen/AGM step to converge
_E_MAX = 1.0 - 1e-9
_LANDEN_CUTOFF = 1e-14


@dataclass(frozen=True)
class Modulus:
    """Elliptic modulus with cached complement, e^2 + ec^2 = 1."""

    e: float
    ec: float = field(init=False, repr=False)

    def __post_init__(self):
        e = float(self.e)
        if not math.isfinite(e) or not 0.0 <= e <= _E_MAX:
            raise ModulusOutOfRange(f"modulus must lie in [0, {_E_MAX}], got {self.e!r}")
        object.__setattr__(self, "e", e)
        # (1-e)(1+e) form keeps precision as e -> 1
        object.__setattr__(self, "ec", math.sqrt((1.0 - e) * (1.0 + e)))


def as_modulus(e) -> Modulus:
    return e if isinstance(e, Modulus) else Modulus(e)


@dataclass(frozen=True)
class JacobiValues:
    """sn, cn, dn, am and cd = cn/dn bundled at one argument/modulus."""

    u: float
    sn: float
    cn: float
    dn: float
    am: float
    cd: float


# -- Carlson symmetric integral R_F ---------------------------------------
#
# Duplication until the arguments nearly coincide, then the fifth-order
# Taylor tail. Double precision saturates after ~10 rounds; the caps are
# generous.

def _rf(x: float, y: float, z: float) -> float:
    A = (x + y + z) / 3.0
    Q = 1.4e5 * max(abs(A - x), abs(A - y), abs(A - z))  # (3*eps)^(-1/6) ~ 1.4e5 at eps=1e-32
    f = 1.0
    for _ in range(60):
        if Q * f < abs(A):
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f *= 0.25
    X = (1.0 - x / A)
    Y = (1.0 - y / A)
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    s = 1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0
    return s / math.sqrt(A)


# -- complete and incomplete integrals ------------------------------------

@lru_cache(maxsize=512)
def _K_agm(e: float, ec: float) -> float:
    # Quadratic convergence: ~8 rounds even at ec ~ 4.5e-5.  The tolerance
    # must stay above one ulp of the mean or a and b can straddle it forever.
    a, b = 1.0, ec
    for _ in range(40):
        if a - b <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def ellint_K(e) -> float:
    """Complete elliptic integral of the first kind, K(e) = F(pi/2, e)."""
    m = as_modulus(e)
    return _K_agm(m.e, m.ec)


def _F_principal(psi: float, m: Modulus) -> float:
    # psi restricted to [-pi/2, pi/2]
    if psi == 0.0:
        return 0.0
    s, c = math.sin(psi), math.cos(psi)
    val = abs(s) * _rf(c * c, (1.0 - m.e * s) * (1.0 + m.e * s), 1.0)
    return math.copysign(val, psi)


def ellint_F(phi, e) -> float:
    """Incomplete elliptic integral of the first kind.

    Defined for any real phi through the quasi-periodic extension
    F(phi + pi) = F(phi) + 2K(e); inside [-pi/2, pi/2] evaluated with the
    Carlson form sin(phi) * R_F(cos^2 phi, 1 - e^2 sin^2 phi, 1).
    """
    m = as_modulus(e)
    phi = float(phi)
    n = round(phi / math.pi)
    psi = phi - n * math.pi
    out = _F_principal(psi, m)
    if n != 0:
        out += 2.0 * n * ellint_K(m)
    return out


# -- Jacobi functions ------------------------------------------------------

def _landen_moduli(m: Modulus):
    ks = []
    k, kc = m.e, m.ec
    while k > _LANDEN_CUTOFF:
        k = (1.0 - kc) / (1.0 + kc)
        ks.append(k)
        kc = math.sqrt((1.0 - k) * (1.0 + k))
    return ks


def jacobi(u, e) -> JacobiValues:
    """Jacobi sn, cn, dn, am, cd at argument u and modulus e.

    The argument is first reduced mod the full period 4K(e). The modulus is
    driven down by k -> (1 - k')/(1 + k') until it is below 1e-14, the
    reduced argument rescaled by prod(1 + k_i), the circular seed
    (sin, cos, 1) evaluated there, and the Landen lifts applied back up.
    """
    m = as_modulus(e)
    u = float(u)
    K = ellint_K(m)
    period = 4.0 * K
    nper = round(u / period)
    ur = u - nper * period

    ks = _landen_moduli(m)
    scale = 1.0
    for k1 in ks:
        scale *= 1.0 + k1
    v = ur / scale
    sn, cn, dn = math.sin(v), math.cos(v), 1.0
    for k1 in reversed(ks):
        # dn lift written via dn^2 = 1 - k1^2 sn^2 at the lower level; the
        # textbook (dn^2-(1-k1))/(1+k1-dn^2) form divides by zero once
        # k1 drops below one ulp of 1.
        den = 1.0 + k1 * sn * sn
        sn, cn, dn = ((1.0 + k1) * sn / den,
                      cn * dn / den,
                      (1.0 - k1 * sn * sn) / den)

    am = math.atan2(sn, cn) + 2.0 * math.pi * nper
    return JacobiValues(u=u, sn=sn, cn=cn, dn=dn, am=am, cd=cn / dn)
