"""Homogeneous conics with the ellipse signature (+, +, -).

A conic is u^T C u = 0 with u = (x, y, 1). Only the upper triangle is
stored, so the matrix is symmetric by construction. Points are plain
(x, y) pairs.
"""

from dataclasses import dataclass

from .errors import NotAnEllipse

_KEYS = ("c11", "c12", "c13", "c22", "c23", "c33")


@dataclass(frozen=True)
class SymmetricConic:
    c11: float
    c12: float
    c13: float
    c22: float
    c23: float
    c33: float

    @property
    def entries(self) -> tuple:
        """The stored upper triangle (c11, c12, c13, c22, c23, c33)."""
        return (self.c11, self.c12, self.c13, self.c22, self.c23, self.c33)

    @property
    def matrix(self):
        import numpy as np

        c11, c12, c13, c22, c23, c33 = self.entries
        return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]])

    @staticmethod
    def from_matrix(M) -> "SymmetricConic":
        import numpy as np

        M = np.asarray(M, dtype=float)
        S = 0.5 * (M + M.T)
        return SymmetricConic(S[0, 0], S[0, 1], S[0, 2], S[1, 1], S[1, 2], S[2, 2])

    @staticmethod
    def from_fragment(d: dict) -> "SymmetricConic":
        return SymmetricConic(*(float(d[k]) for k in _KEYS))

    def to_fragment(self) -> dict:
        return dict(zip(_KEYS, self.entries))

    def scaled(self, s: float) -> "SymmetricConic":
        return SymmetricConic(*(s * c for c in self.entries))


def unit_circle() -> SymmetricConic:
    return SymmetricConic(1.0, 0.0, 0.0, 1.0, 0.0, -1.0)


def confocal_ellipse(ecc: float) -> SymmetricConic:
    """E(ecc): ecc^2 x^2 + ecc^2/(1-ecc^2) y^2 = 1, foci at (±1, 0)."""
    if not 0.0 < ecc < 1.0:
        raise NotAnEllipse("degenerate", f"eccentricity {ecc!r} outside (0, 1)")
    e2 = ecc * ecc
    return SymmetricConic(e2, 0.0, 0.0, e2 / (1.0 - e2), 0.0, -1.0)


def determinant(C: SymmetricConic) -> float:
    """det of the conic matrix, by cofactors along the first row."""
    c11, c12, c13, c22, c23, c33 = C.entries
    return (c11 * (c22 * c33 - c23 * c23) - c12 * (c12 * c33 - c23 * c13)
            + c13 * (c12 * c23 - c22 * c13))


def validate_ellipse(C: SymmetricConic) -> SymmetricConic:
    """Check the ordered signature (+, +, -): pd upper-left minor, det < 0."""
    if not (C.c11 > 0.0 and C.c11 * C.c22 - C.c12 * C.c12 > 0.0):
        raise NotAnEllipse("minor_not_pd", "upper-left 2x2 minor is not positive definite")
    if determinant(C) >= 0.0:
        raise NotAnEllipse("det_nonnegative", "conic determinant is not negative")
    return C
