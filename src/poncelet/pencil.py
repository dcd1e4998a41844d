"""Pencils of nested ellipses: simultaneous diagonalization and parameters.

build_pencil turns a nested pair (C1 outer, C2 inner) into the normal form
M^T C1 M = diag(1,1,-1), M^T C2 M = diag(l1,l2,-l3) with l1 > l2 > l3 > 0.
The spectrum and the chart come from one eigendecomposition C1^{-1} C2 =
M diag(l1,l2,l3) M^{-1}: its eigenvectors v, scaled by |v^T C1 v|^{-1/2},
are the columns of M.
Members are nu1*C1 + nu2*C2 on the projective parameter line; the valid
cone is nu2 > 0, nu1 + l3*nu2 > 0, plus the outer representative (1, 0).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .conics import SymmetricConic, validate_ellipse
from .elliptic import Modulus
from .errors import (
    DegenerateSpectrum,
    HomographySingularity,
    InvalidParameter,
    LimitingPoint,
    NotNested,
)

TOL_DEGENERATE = 1e-9
_PARAM_EPS = 1e-12


@dataclass(frozen=True)
class PencilParam:
    nu1: float
    nu2: float

    def canonical(self) -> "PencilParam":
        """Unit norm under positive rescaling; valid members end up nu2 >= 0."""
        n = math.hypot(self.nu1, self.nu2)
        if n == 0.0:
            raise InvalidParameter("zero parameter vector")
        return PencilParam(self.nu1 / n, self.nu2 / n)


def as_param(nu) -> PencilParam:
    if isinstance(nu, PencilParam):
        return nu
    return PencilParam(float(nu[0]), float(nu[1]))


@dataclass(frozen=True, eq=False)
class Pencil:
    """A built pencil. M_entries and Minv_entries are the nine entries of M
    and Minv by rows, and the *_norm fields Frobenius norms, all as floats,
    so that the chart maps and the on-C1 test need no numpy per point."""

    C1: SymmetricConic
    C2: SymmetricConic
    lam: tuple
    M: np.ndarray = field(repr=False)
    Minv: np.ndarray = field(repr=False)
    e: Modulus
    M_entries: tuple = field(repr=False)
    Minv_entries: tuple = field(repr=False)
    M_norm: float = field(repr=False)
    Minv_norm: float = field(repr=False)
    C1_norm: float = field(repr=False)


def _spectrum(C1: SymmetricConic, C2: SymmetricConic):
    """Eigenvalues l1 > l2 > l3 > 0 of C1^{-1} C2, the roots of
    det(l*C1 - C2), and their eigenvectors as the columns of V."""
    validate_ellipse(C1)
    validate_ellipse(C2)
    w, V = np.linalg.eig(np.linalg.solve(C1.matrix, C2.matrix))
    if np.iscomplexobj(w):
        # a double root comes back as a pair split only by rounding
        if np.abs(w.imag).max() <= TOL_DEGENERATE * np.abs(w).max():
            raise DegenerateSpectrum(f"double generalized eigenvalue: {tuple(w.real.tolist())!r}")
        raise NotNested(f"complex generalized eigenvalues {tuple(w.tolist())!r}")
    # sorted and the row sums below, not np.argsort and np.einsum, which
    # would each fault in about 0.1 MiB of numpy code used nowhere else
    order = sorted(range(3), key=w.__getitem__, reverse=True)
    lam, V = w[order], V[:, order]
    if lam[2] <= 0.0:
        raise DegenerateSpectrum(f"nonpositive generalized eigenvalue {float(lam[2])!r}")
    if lam[0] - lam[1] < TOL_DEGENERATE * lam[0] or lam[1] - lam[2] < TOL_DEGENERATE * lam[0]:
        raise DegenerateSpectrum(f"eigenvalue gap below tolerance: {tuple(lam.tolist())!r}")
    return (float(lam[0]), float(lam[1]), float(lam[2])), V


def generalized_eigenvalues(C1: SymmetricConic, C2: SymmetricConic):
    """Roots of det(l*C1 - C2), descending; enforces l1 > l2 > l3 > 0."""
    return _spectrum(C1, C2)[0]


def pencil_eccentricity(lam) -> Modulus:
    l1, l2, l3 = lam
    if not l1 > l2 > l3 > 0.0:
        raise DegenerateSpectrum(f"eigenvalues not strictly ordered positive: {lam!r}")
    return Modulus(math.sqrt((l1 - l2) / (l1 - l3)))


def _off_diagonal(*Ds) -> float:
    """Largest off-diagonal entry of each D, relative to D's largest entry."""
    return max(float(np.abs(D - np.diag(D.diagonal())).max() / np.abs(D).max()) for D in Ds)


def _polish(M, A, B):
    """One Newton step M -> M (I + E) against the off-diagonal parts of
    DA = M^T A M and DB = M^T B M; returns M, DA, DB after the step, or
    before it when the step does not lower them. Every chart computation
    inherits the error of M, and the step takes it from about 1e-11 to
    rounding level, except where l2 - l3 is small against l1: there E is
    mostly rounding in DB over l2 - l3.
    """
    DA, DB = M.T @ A @ M, M.T @ B @ M
    s, d = DA.diagonal(), DB.diagonal()
    # E_ij and E_ji solve s_i E_ij + s_j E_ji = -DA_ij, d_i E_ij + d_j E_ji = -DB_ij;
    # on the diagonal numerator and den are exactly 0, and E_ii stays 0
    den = s[:, None] * d - d[:, None] * s
    E = np.divide(s * DB - d * DA, den, out=np.zeros((3, 3)), where=den != 0.0)
    Mp = M + M @ E
    DAp, DBp = Mp.T @ A @ Mp, Mp.T @ B @ Mp
    if _off_diagonal(DAp, DBp) < _off_diagonal(DA, DB):
        return Mp, DAp, DBp
    return M, DA, DB


def _close(D, T) -> bool:
    """np.allclose(D, T, atol=1e-9 * max|D|), elementwise |D - T| <= atol +
    1e-5 |T|; a non-finite D fails."""
    atol = 1e-9 * float(np.abs(D).max())
    return math.isfinite(atol) and bool((np.abs(D - T) <= atol + 1e-5 * np.abs(T)).all())


def build_pencil(C1: SymmetricConic, C2: SymmetricConic) -> Pencil:
    """Diagonalize the nested pair and package eigenvalues and homography.

    The normal form certifies nesting: u = M (X, Y, W) on C2 has l1 X^2 +
    l2 Y^2 = l3 W^2, so l1 > l2 > l3 > 0 gives u^T C1 u = X^2 + Y^2 - W^2
    <= (l3/l2 - 1) W^2 < 0.
    """
    lam, V = _spectrum(C1, C2)
    M1, M2 = C1.matrix, C2.matrix
    norms = (V * (M1 @ V)).sum(axis=0)
    if not (norms[0] > 0.0 and norms[1] > 0.0 and norms[2] < 0.0):
        # the C1-negative direction must belong to the smallest eigenvalue
        raise NotNested(f"signature mismatch in diagonalization, norms {norms.tolist()!r}")
    M = V / np.sqrt(np.abs(norms))
    # orientation normalization: m33 > 0, det(M) > 0, then a deterministic
    # sign for the first column (joint flip keeps the determinant)
    if M[2, 2] < 0.0:
        M[:, 2] = -M[:, 2]
    if np.linalg.det(M) < 0.0:
        M[:, 1] = -M[:, 1]
    j = int(np.argmax(np.abs(M[:, 0])))
    if M[j, 0] < 0.0:
        M[:, 0] = -M[:, 0]
        M[:, 1] = -M[:, 1]
    M, D1, D2 = _polish(M, M1, M2)
    J, L = np.diag([1.0, 1.0, -1.0]), np.diag([lam[0], lam[1], -lam[2]])
    if not (_close(D1, J) and _close(D2, L)):
        raise NotNested("diagonalization residual above tolerance")
    M.setflags(write=False)
    Minv = np.linalg.inv(M)
    Minv.setflags(write=False)
    return Pencil(
        C1=C1, C2=C2, lam=lam, M=M, Minv=Minv, e=pencil_eccentricity(lam),
        M_entries=tuple(M.ravel().tolist()), Minv_entries=tuple(Minv.ravel().tolist()),
        M_norm=float(np.linalg.norm(M)), Minv_norm=float(np.linalg.norm(Minv)),
        C1_norm=float(np.linalg.norm(M1)),
    )


def _param_kind(lam, nu: PencilParam) -> str:
    """'outer' for (1,0), 'limit' on the boundary ray, 'member' inside;
    nu must be canonical."""
    if nu.nu2 == 0.0:
        if nu.nu1 > 0.0:
            return "outer"
        raise InvalidParameter(f"parameter {nu!r} outside the valid cone")
    if nu.nu2 < 0.0:
        raise InvalidParameter(f"parameter {nu!r} outside the valid cone")
    c = nu.nu1 + lam[2] * nu.nu2
    if abs(c) <= _PARAM_EPS * (abs(nu.nu1) + lam[2] * nu.nu2):
        return "limit"
    if c < 0.0:
        raise InvalidParameter(f"parameter {nu!r} outside the valid cone")
    return "member"


def limiting_point(P: Pencil) -> np.ndarray:
    """M applied to the chart origin: M's third column (m13, m23) / m33."""
    m13, m23, m33 = P.M_entries[2::3]
    if abs(m33) < 1e-13 * P.M_norm:
        raise HomographySingularity("homography denominator vanished at (0.0, 0.0)")
    return np.array([m13 / m33, m23 / m33])


def member(P: Pencil, nu) -> SymmetricConic:
    nu = as_param(nu).canonical()
    kind = _param_kind(P.lam, nu)
    if kind == "outer":
        return P.C1
    if kind == "limit":
        raise LimitingPoint(limiting_point(P))
    C = SymmetricConic.from_matrix(nu.nu1 * P.C1.matrix + nu.nu2 * P.C2.matrix)
    return validate_ellipse(C)


def member_factor(lam, nu: PencilParam) -> float:
    """sqrt((nu1 + l3 nu2)/(nu1 + l2 nu2)), the eccentricity scaling of the
    canonical nu."""
    return math.sqrt((nu.nu1 + lam[2] * nu.nu2) / (nu.nu1 + lam[1] * nu.nu2))


def relative_eccentricity(P: Pencil, nu, mu) -> Modulus:
    """Eccentricity of the sub-pencil with outer member nu (Lemma-invariant
    in the inner member, which only needs to nest strictly inside)."""
    nu, mu = as_param(nu).canonical(), as_param(mu).canonical()
    for p in (nu, mu):
        _param_kind(P.lam, p)
    if nesting_order(P, nu, mu) <= 0.0:
        raise NotNested(f"member {mu!r} is not strictly inside {nu!r}")
    return Modulus(member_factor(P.lam, nu) * P.e.e)


def f_of_nu(P: Pencil, nu) -> float:
    """Standard-pencil parameter of member nu: C_nu maps onto S_e^{f(nu)}."""
    nu = as_param(nu).canonical()
    return _f_of_canonical(P, nu, _param_kind(P.lam, nu))


def _f_of_canonical(P: Pencil, nu: PencilParam, kind: str) -> float:
    return 0.0 if kind == "limit" else member_factor(P.lam, nu) * P.e.e


def dual_formula(lam, nu1, nu2):
    """Raw dual parameter; exact over rationals when inputs are exact."""
    l1, l2, l3 = lam
    return (-l3 * nu1 + (l1 * l2 - l1 * l3 - l2 * l3) * nu2, nu1 + l3 * nu2)


def dual(P: Pencil, nu) -> PencilParam:
    nu = as_param(nu).canonical()
    _param_kind(P.lam, nu)
    d1, d2 = dual_formula(P.lam, nu.nu1, nu.nu2)
    return PencilParam(d1, d2).canonical()


def nesting_order(P: Pencil, nu, mu) -> float:
    """nu1*mu2 - nu2*mu1 on canonical representatives; > 0 iff C_mu is
    strictly inside C_nu."""
    nu, mu = as_param(nu).canonical(), as_param(mu).canonical()
    return nu.nu1 * mu.nu2 - nu.nu2 * mu.nu1


def standard_pencil_member(e, f: float) -> SymmetricConic:
    """S_e^f: ((1-f^2)/(1-e^2)) X^2 + Y^2 = f^2/e^2, the normal-form member."""
    e = e.e if isinstance(e, Modulus) else float(e)
    f = float(f)
    if f < 0.0 or f > e:
        raise InvalidParameter(f"need 0 <= f <= e, got f={f!r}, e={e!r}")
    if f == 0.0:
        raise LimitingPoint(np.zeros(2))
    if f == e:
        return SymmetricConic(1.0, 0.0, 0.0, 1.0, 0.0, -1.0)
    return SymmetricConic(
        (1.0 - f * f) / (1.0 - e * e), 0.0, 0.0, 1.0, 0.0, -(f * f) / (e * e)
    )


def confocal_to_standard(f: float) -> np.ndarray:
    """T_f = [[0, f/sqrt(1-f^2)], [-f, 0]]: sends E(f) to the unit circle
    and every confocal E(e), e > f, to S_e^f."""
    f = float(f)
    if not 0.0 < f < 1.0:
        raise InvalidParameter(f"need 0 < f < 1, got {f!r}")
    return np.array([[0.0, f / math.sqrt(1.0 - f * f)], [-f, 0.0]])
