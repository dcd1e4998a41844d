"""Porism certification without rotation numbers: Cayley determinants on the
square-root series of det(l*C1 - C2), closed-form spectral conditions, the
classical confocal polynomial sets, and bicentric circle pairs."""

import math

from .billiard import as_ecc_pair
from .conics import SymmetricConic
from .errors import DegenerateSpectrum, InvalidPeriod, NotNested, UnknownSet
from .maps import rho_from_spectrum, rho_of_nu
from .pencil import Pencil

_TOL_PORISM = 1e-8  # |cayley_condition| below which porism_report certifies


def _unit_series(lam, order: int) -> list:
    """Taylor coefficients a_0..a_order of sqrt((1 - r1 t)(1 - r2 t)(1 - t)),
    r1 = l3/l1, r2 = l3/l2: the square root of det(l*C1 - C2)/det(-C2) at
    l = l3 t, since the normal form makes det(l*C1 - C2) proportional to
    (l1 - l)(l2 - l)(l3 - l)."""
    l1, l2, l3 = lam
    r1, r2 = l3 / l1, l3 / l2
    c = [1.0, -(1.0 + r1 + r2), r1 + r2 + r1 * r2, -r1 * r2] + [0.0] * order
    a = [1.0]
    for n in range(1, order + 1):
        a.append(0.5 * (c[n] - math.fsum(a[i] * a[n - i] for i in range(1, n))))
    return a


def _hankel_det(a, start: int, m: int) -> float:
    """Row-normalized determinant of the m x m Hankel H[i,j] = a[i+j+start].

    Size one skips the row normalization, which would collapse the entry to
    its sign; larger sizes divide by the product of row norms.
    """
    import numpy as np

    H = np.array([[a[i + j + start] for j in range(m)] for i in range(m)])
    if m == 1:
        return float(H[0, 0])
    norms = np.linalg.norm(H, axis=1)
    if np.any(norms == 0.0):
        return 0.0
    return float(np.linalg.det(H / norms[:, None]))


def cayley_condition(P: Pencil, N: int) -> float:
    """Normalized Hankel determinant certifying an N-periodic porism.

    Odd N = 2m+1 uses the m x m matrix of alpha_2..alpha_{2m}; even N = 2m
    the (m-1) x (m-1) matrix of alpha_3..alpha_{2m-1}. Vanishes iff the pair
    admits rotation number k/N for some k.

    The determinants are taken on the dimensionless series a_k of
    sqrt((1 - r1 t)(1 - r2 t)(1 - t)), which the spectrum fixes alone; the
    alpha_k themselves grow like lam3^-k, since the series converges up to
    the smallest eigenvalue. Two normalizations follow, because the raw
    determinant is useless as a residual: each determinant is divided by
    the product of its row norms; and since Hankel determinants of analytic
    coefficient sequences shrink super-exponentially with size even far
    from a porism, the result is divided by the same-size determinant at
    the next offset, which shares that structural decay but not the porism
    zero.
    """
    N = int(N)
    if N < 3:
        raise InvalidPeriod(f"need N >= 3, got {N!r}")
    a = _unit_series(P.lam, N)
    start, m = (2, (N - 1) // 2) if N % 2 else (3, N // 2 - 1)
    det = _hankel_det(a, start, m)
    ref = _hankel_det(a, start + 1, m)
    if ref == 0.0:
        return 0.0 if det == 0.0 else math.inf
    return det / ref


def porism_report(P: Pencil, N: int) -> dict:
    """Classification record for the pair (C1, C2) at period N."""
    residual = cayley_condition(P, N)
    return {
        "N": N,
        "residual": residual,
        "classified_poristic": bool(abs(residual) < _TOL_PORISM),
        "rho": rho_of_nu(P, (0.0, 1.0)),
    }


def lambda_porism(l1: float, l2: float, l3: float, which: str) -> float:
    """Residual of the closed-form spectral porism conditions.

    which = "1/4": l1 l2 - l1 l3 - l2 l3
    which = "1/3": 1/sqrt(l3) - 1/sqrt(l1) - 1/sqrt(l2)
    which = "1/6": sqrt(1 - l3/l1) + sqrt(1 - l3/l2) - 1
    Zero iff the (0,1)-member map has the named rotation number.
    """
    l1, l2, l3 = float(l1), float(l2), float(l3)
    if not l1 > l2 > l3 > 0.0:
        raise DegenerateSpectrum(f"need l1 > l2 > l3 > 0, got {(l1, l2, l3)!r}")
    if which == "1/4":
        return l1 * l2 - l1 * l3 - l2 * l3
    if which == "1/3":
        return 1.0 / math.sqrt(l3) - 1.0 / math.sqrt(l1) - 1.0 / math.sqrt(l2)
    if which == "1/6":
        return math.sqrt(1.0 - l3 / l1) + math.sqrt(1.0 - l3 / l2) - 1.0
    raise UnknownSet(f"no spectral condition named {which!r}")


def bicentric_conics(R: float, r: float, a: float):
    """Circumcircle radius R at the origin, incircle radius r at (a, 0)."""
    R, r, a = float(R), float(r), float(a)
    if not (R > 0.0 and r > 0.0):
        raise NotNested(f"radii must be positive, got R={R!r}, r={r!r}")
    if R <= r + abs(a):
        raise NotNested(f"inner circle not strictly nested: R={R!r}, r={r!r}, a={a!r}")
    C1 = SymmetricConic(1.0, 0.0, 0.0, 1.0, 0.0, -R * R)
    C2 = SymmetricConic(1.0, 0.0, -a, 1.0, 0.0, a * a - r * r)
    return C1, C2


def bicentric_spectrum(R: float, r: float, a: float):
    """Pencil eigenvalues of the circle pair: 1 and the roots of
    R^2 l^2 - b l + r^2 with b = R^2 + r^2 - a^2. Concentric pairs give a
    double eigenvalue at 1 (modulus-zero pencil)."""
    bicentric_conics(R, r, a)  # reuse the nesting validation
    b = R * R + r * r - a * a
    disc = b * b - 4.0 * (R * r) ** 2
    if disc < 0.0:
        raise DegenerateSpectrum(f"complex circle-pencil spectrum at {(R, r, a)!r}")
    big = (b + math.sqrt(disc)) / (2.0 * R * R)
    small = 2.0 * r * r / (b + math.sqrt(disc))
    return (1.0, big, small)


def bicentric_rho(R: float, r: float, a: float) -> float:
    """Rotation number of the circle pair via the spectral formula."""
    return rho_from_spectrum(bicentric_spectrum(R, r, a), (0.0, 1.0))


def bicentric_check(R: float, r: float, a: float, kind: str) -> float:
    """Chapple-Euler (triangle) / Fuss (quadrilateral) porism residual."""
    bicentric_conics(R, r, a)
    if kind == "triangle":
        return 1.0 / (R - a) + 1.0 / (R + a) - 1.0 / r
    if kind == "quadrilateral":
        return 1.0 / (R - a) ** 2 + 1.0 / (R + a) ** 2 - 1.0 / r**2
    raise UnknownSet(f"no bicentric condition named {kind!r}")


# confocal poristic sets as integer monomial lists (coeff, e-power, f-power)
_POLY_SETS = {
    "1/3": ((1, 2, 0), (2, 1, 3), (-2, 1, 1), (-1, 0, 4)),
    "1/4": ((1, 2, 0), (1, 0, 4), (-2, 0, 2)),
    "1/6": ((4, 4, 2), (-3, 4, 0), (-6, 2, 4), (4, 2, 2), (1, 0, 8)),
    "1/5": (
        (1, 6, 0),
        (8, 5, 5),
        (-10, 5, 3),
        (2, 5, 1),
        (-4, 4, 6),
        (5, 4, 4),
        (-4, 4, 2),
        (-12, 3, 7),
        (12, 3, 5),
        (4, 2, 10),
        (-5, 2, 8),
        (4, 2, 6),
        (-2, 1, 11),
        (10, 1, 9),
        (-8, 1, 7),
        (-1, 0, 12),
    ),
}
# the 2/5 set is the 1/5 polynomial under f -> -f
_POLY_SETS["2/5"] = tuple((c * (-1) ** j, i, j) for c, i, j in _POLY_SETS["1/5"])


def confocal_poristic_residual(e, f, which: str) -> float:
    """Evaluate the named poristic polynomial at (e, f) in Delta."""
    if which not in _POLY_SETS:
        raise UnknownSet(f"no poristic polynomial named {which!r}")
    p = as_ecc_pair(e, f)
    ev, fv = p.e.e, p.f.e
    return math.fsum(c * ev**i * fv**j for c, i, j in _POLY_SETS[which])
