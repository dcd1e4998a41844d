"""Pencils of nested ellipses: simultaneous diagonalization and parameters.

build_pencil turns a nested pair (C1 outer, C2 inner) into the normal form
M^T C1 M = diag(1,1,-1), M^T C2 M = diag(l1,l2,-l3) with l1 > l2 > l3 > 0.
The spectrum and the chart come from one eigendecomposition C1^{-1} C2 =
M diag(l1,l2,l3) M^{-1}: its eigenvectors v, scaled by |v^T C1 v|^{-1/2},
are the columns of M. For an axis-aligned pair C1^{-1} C2 is diagonal, and
both come from the diagonals on floats.
Members are nu1*C1 + nu2*C2 on the projective parameter line; the valid
cone is nu2 > 0, nu1 + l3*nu2 > 0, plus the outer representative (1, 0).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    so that the chart maps and the on-C1 test need no numpy. M and Minv are
    read-only arrays built from the entries on first access."""

    C1: SymmetricConic
    C2: SymmetricConic
    lam: tuple
    e: Modulus
    M_entries: tuple = field(repr=False)
    Minv_entries: tuple = field(repr=False)
    M_norm: float = field(repr=False)
    Minv_norm: float = field(repr=False)
    C1_norm: float = field(repr=False)

    @cached_property
    def M(self):
        return _read_only(self.M_entries)

    @cached_property
    def Minv(self):
        return _read_only(self.Minv_entries)


def _read_only(entries):
    """The 3x3 array with the nine entries by rows, not writeable."""
    import numpy as np

    A = np.array(entries).reshape(3, 3)
    A.setflags(write=False)
    return A


def _homography(h, norm: float, x: float, y: float):
    """Fractional-linear action of a 3x3 matrix on the affine point (x, y):
    h holds the nine entries of the matrix by rows and norm its Frobenius
    norm. The denominator must not fall below 1e-13 * norm * |(x, y, 1)|."""
    h11, h12, h13, h21, h22, h23, h31, h32, h33 = h
    w = h31 * x + h32 * y + h33
    if abs(w) < 1e-13 * norm * math.sqrt(x * x + y * y + 1.0):
        raise HomographySingularity(f"homography denominator vanished at {(x, y)!r}")
    return (h11 * x + h12 * y + h13) / w, (h21 * x + h22 * y + h23) / w


def _axis_aligned(C1: SymmetricConic, C2: SymmetricConic) -> bool:
    """Both conics diagonal, so that C1^{-1} C2 is diagonal too."""
    return C1.c12 == C1.c13 == C1.c23 == C2.c12 == C2.c13 == C2.c23 == 0.0


def _ordered(w):
    """Indices of the three eigenvalues w from largest to smallest, and the
    sorted eigenvalues, which must be positive and apart by more than
    TOL_DEGENERATE relative to the largest."""
    order = sorted(range(3), key=w.__getitem__, reverse=True)
    lam = tuple(float(w[i]) for i in order)
    if lam[2] <= 0.0:
        raise DegenerateSpectrum(f"nonpositive generalized eigenvalue {lam[2]!r}")
    if lam[0] - lam[1] < TOL_DEGENERATE * lam[0] or lam[1] - lam[2] < TOL_DEGENERATE * lam[0]:
        raise DegenerateSpectrum(f"eigenvalue gap below tolerance: {lam!r}")
    return lam, order


def _spectrum(C1: SymmetricConic, C2: SymmetricConic):
    """Eigenvalues l1 > l2 > l3 > 0 of C1^{-1} C2, the roots of
    det(l*C1 - C2), and their eigenvectors: for an axis-aligned pair the
    axis of each eigenvalue (the ratio of the diagonals along it), else the
    columns of an array V."""
    validate_ellipse(C1)
    validate_ellipse(C2)
    if _axis_aligned(C1, C2):
        return _ordered((C2.c11 / C1.c11, C2.c22 / C1.c22, C2.c33 / C1.c33))
    return _eig_spectrum(C1, C2)


def _eig_spectrum(C1: SymmetricConic, C2: SymmetricConic):
    """_spectrum of a general pair, from np.linalg.eig."""
    import numpy as np

    try:
        w, V = np.linalg.eig(np.linalg.solve(C1.matrix, C2.matrix))
    except np.linalg.LinAlgError:  # C1 singular, or C1^{-1} C2 overflows
        raise DegenerateSpectrum("C1^{-1} C2 is not finite in double precision") from None
    if np.iscomplexobj(w):
        # a double root comes back as a pair split only by rounding
        if np.abs(w.imag).max() <= TOL_DEGENERATE * np.abs(w).max():
            raise DegenerateSpectrum(f"double generalized eigenvalue: {tuple(w.real.tolist())!r}")
        raise NotNested(f"complex generalized eigenvalues {tuple(w.tolist())!r}")
    # sorted and the row sums in _eig_chart, not np.argsort and np.einsum,
    # which would each fault in about 0.1 MiB of numpy code used nowhere else
    lam, order = _ordered(w.tolist())
    return lam, V[:, order]


def generalized_eigenvalues(C1: SymmetricConic, C2: SymmetricConic):
    """Roots of det(l*C1 - C2), descending; enforces l1 > l2 > l3 > 0."""
    return _spectrum(C1, C2)[0]


def pencil_eccentricity(lam) -> Modulus:
    l1, l2, l3 = lam
    if not l1 > l2 > l3 > 0.0:
        raise DegenerateSpectrum(f"eigenvalues not strictly ordered positive: {lam!r}")
    return Modulus(math.sqrt((l1 - l2) / (l1 - l3)))


def _require_signature(norms):
    """The C1-negative direction must belong to the smallest eigenvalue."""
    if not (norms[0] > 0.0 and norms[1] > 0.0 and norms[2] < 0.0):
        raise NotNested(f"signature mismatch in diagonalization, norms {list(map(float, norms))!r}")


def _require_normal_form(D1, D2, lam):
    """D1 and D2, the nine entries of M^T C1 M and M^T C2 M by rows, must be
    diag(1, 1, -1) and diag(l1, l2, -l3) by np.allclose's rule with atol =
    1e-9 max|D|: |D - T| <= atol + 1e-5 |T| entrywise; a non-finite D fails."""
    L = (lam[0], 0.0, 0.0, 0.0, lam[1], 0.0, 0.0, 0.0, -lam[2])
    for D, T in ((D1, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0)), (D2, L)):
        atol = 1e-9 * max(map(abs, D))
        close = all(abs(d - t) <= atol + 1e-5 * abs(t) for d, t in zip(D, T))
        if not (math.isfinite(atol) and close):
            raise NotNested("diagonalization residual above tolerance")


def _off_diagonal(*Ds) -> float:
    """Largest off-diagonal entry of each D, relative to D's largest entry."""
    import numpy as np

    return max(float(np.abs(D - np.diag(D.diagonal())).max() / np.abs(D).max()) for D in Ds)


def _polish(M, A, B):
    """One Newton step M -> M (I + E) against the off-diagonal parts of
    DA = M^T A M and DB = M^T B M; returns M, DA, DB after the step, or
    before it when the step does not lower them. Raw eig columns already
    meet the normal form of a general pair (off-diagonal parts about 3e-15
    of the diagonal); the step is what lets close top pairs l1 = l2 (1 + gap)
    through: of 300 random congruences, 294 build at gap 1e-6 and 152 at
    1e-7, against 252 and 47 without it."""
    import numpy as np

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


def _eig_chart(C1: SymmetricConic, C2: SymmetricConic, lam, V):
    """M and Minv, each as nine entries by rows, from the eigenvectors V:
    each column scaled by |v^T C1 v|^{-1/2}, oriented, then polished."""
    import numpy as np

    M1, M2 = C1.matrix, C2.matrix
    norms = (V * (M1 @ V)).sum(axis=0)
    _require_signature(norms)
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
    _require_normal_form(D1.ravel().tolist(), D2.ravel().tolist(), lam)
    return tuple(M.ravel().tolist()), tuple(np.linalg.inv(M).ravel().tolist())


def _axis_chart(C1: SymmetricConic, C2: SymmetricConic, lam, order):
    """_eig_chart of an axis-aligned pair on floats. Column k of M is the
    axis order[k] scaled by 1/sqrt|c_ii| of C1; its orientation rules leave
    every scale positive except column 1's, which carries the sign of the
    permutation. M is then already diagonalizing, and the polish a no-op."""
    a, b = (C1.c11, C1.c22, C1.c33), (C2.c11, C2.c22, C2.c33)
    _require_signature([a[i] for i in order])
    m = [1.0 / math.sqrt(abs(a[i])) for i in order]
    if order[0] == 1:
        m[1] = -m[1]
    M, Minv, D1, D2 = ([0.0] * 9 for _ in range(4))
    for k, i in enumerate(order):
        # zeros carry the sign of their column of M and row of Minv, as from eig
        M[k::3] = Minv[3 * k:3 * k + 3] = [math.copysign(0.0, m[k])] * 3
        M[3 * i + k], Minv[3 * k + i] = m[k], 1.0 / m[k]
        D1[4 * k], D2[4 * k] = m[k] * a[i] * m[k], m[k] * b[i] * m[k]
    _require_normal_form(D1, D2, lam)
    return tuple(M), tuple(Minv)


def build_pencil(C1: SymmetricConic, C2: SymmetricConic) -> Pencil:
    """Diagonalize the nested pair and package eigenvalues and homography.

    The normal form certifies nesting: u = M (X, Y, W) on C2 has l1 X^2 +
    l2 Y^2 = l3 W^2, so l1 > l2 > l3 > 0 gives u^T C1 u = X^2 + Y^2 - W^2
    <= (l3/l2 - 1) W^2 < 0. An axis-aligned pair takes its spectrum and M
    from the diagonals, with no numpy; any other pair one eigendecomposition.
    """
    lam, V = _spectrum(C1, C2)
    chart = _axis_chart if _axis_aligned(C1, C2) else _eig_chart
    M, Minv = chart(C1, C2, lam, V)
    return Pencil(
        C1=C1, C2=C2, lam=lam, e=pencil_eccentricity(lam), M_entries=M, Minv_entries=Minv,
        M_norm=math.hypot(*M), Minv_norm=math.hypot(*Minv),
        C1_norm=math.hypot(*C1.entries, C1.c12, C1.c13, C1.c23),
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


def limiting_point(P: Pencil):
    """M applied to the chart origin: M's third column (m13, m23) / m33."""
    import numpy as np

    return np.array(_homography(P.M_entries, P.M_norm, 0.0, 0.0))


def member(P: Pencil, nu) -> SymmetricConic:
    nu = as_param(nu).canonical()
    kind = _param_kind(P.lam, nu)
    if kind == "outer":
        return P.C1
    if kind == "limit":
        raise LimitingPoint(limiting_point(P))
    C = zip(P.C1.entries, P.C2.entries)
    return validate_ellipse(SymmetricConic(*(nu.nu1 * a + nu.nu2 * b for a, b in C)))


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
        import numpy as np

        raise LimitingPoint(np.zeros(2))
    if f == e:
        return SymmetricConic(1.0, 0.0, 0.0, 1.0, 0.0, -1.0)
    return SymmetricConic(
        (1.0 - f * f) / (1.0 - e * e), 0.0, 0.0, 1.0, 0.0, -(f * f) / (e * e)
    )


def confocal_to_standard(f: float):
    """T_f = [[0, f/sqrt(1-f^2)], [-f, 0]]: sends E(f) to the unit circle
    and every confocal E(e), e > f, to S_e^f."""
    import numpy as np

    f = float(f)
    if not 0.0 < f < 1.0:
        raise InvalidParameter(f"need 0 < f < 1, got {f!r}")
    return np.array([[0.0, f / math.sqrt(1.0 - f * f)], [-f, 0.0]])
