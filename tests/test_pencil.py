"""Pencil diagonalization, parameter cone, duality, standard pencil."""

import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_homography, ellipse_matrix, nesting_margin, pencil_cubic, spectral_gap
from poncelet import pencil
from poncelet.conics import (
    SymmetricConic,
    confocal_ellipse,
    validate_ellipse,
)
from poncelet.errors import (
    DegenerateSpectrum,
    HomographySingularity,
    InvalidParameter,
    LimitingPoint,
    NotAnEllipse,
    NotNested,
    PonceletError,
)
from poncelet.pencil import (
    TOL_DEGENERATE,
    PencilParam,
    build_pencil,
    confocal_to_standard,
    dual,
    dual_formula,
    f_of_nu,
    generalized_eigenvalues,
    limiting_point,
    member,
    nesting_order,
    pencil_eccentricity,
    relative_eccentricity,
    standard_pencil_member,
)

DIAG_OUTER = SymmetricConic.from_matrix(np.diag([1.0, 1.0, -1.0]))
DIAG_INNER = SymmetricConic.from_matrix(np.diag([0.2, 0.125, -1.0 / 9.0]))
E_REF = math.sqrt(27.0 / 32.0)  # 0.9185586535436918


def diag_pencil():
    return build_pencil(DIAG_OUTER, DIAG_INNER)


def random_nested_pair(rng, gap=None):
    """Random SA-valid pair by congruence of an ordered diagonal pair; a
    given gap sets l1 = l2 (1 + gap)."""
    while True:
        lam = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
        if gap is not None:
            lam[0] = lam[1] * (1.0 + gap)
        elif lam[0] - lam[1] < 1e-2:
            continue
        if lam[1] - lam[2] < 1e-2:
            continue
        S = rng.normal(size=(3, 3))
        if abs(np.linalg.det(S)) < 0.3:
            continue
        C1 = SymmetricConic.from_matrix(S.T @ np.diag([1.0, 1.0, -1.0]) @ S)
        C2 = SymmetricConic.from_matrix(S.T @ np.diag([lam[0], lam[1], -lam[2]]) @ S)
        try:
            validate_ellipse(C1)
            validate_ellipse(C2)
        except NotAnEllipse:
            continue
        return C1, C2, lam


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


PAIR_KINDS = ("inside", "near_tangent", "crossing", "containing", "disjoint")


@st.composite
def ellipse_pairs(draw, kinds=PAIR_KINDS):
    """Plain-matrix pairs (C1, C2) of ellipses by centre, axes, angle and scale.

    The inner ellipse is placed against the unit disk as its kind says, and
    the affine map of a random outer ellipse carries both into place. A
    near-tangent inner ellipse has its major axis on a radius and its far
    vertex at 1 - delta, |delta| from 1e-12 to 1e-2, inside or across.
    """
    kind = draw(st.sampled_from(kinds))
    phi, psi = (draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2))
    a = draw(st.floats(0.05, 0.95))
    b = a * draw(st.floats(0.05, 1.0))
    if kind == "inside":
        d = (1.0 - a) * draw(st.floats(0.0, 0.99))
    elif kind == "near_tangent":
        delta = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** -draw(st.floats(2.0, 12.0))
        d, psi = 1.0 - delta - a, phi
    elif kind == "crossing":
        # centre on the unit circle; semi-axes below 2 cannot cover the disk
        d, a, b = 1.0, 2.0 * a, 2.0 * b
    elif kind == "containing":
        # minor semi-axis longer than the distance to the far side of the disk
        d = draw(st.floats(0.0, 1.5))
        k = (1.0 + d) * draw(st.floats(1.05, 3.0)) / b
        a, b = k * a, k * b
    else:
        d = 1.0 + a + draw(st.floats(0.02, 2.0))
    inner = ellipse_matrix(
        d * np.array([math.cos(phi), math.sin(phi)]), _rotation(psi) @ np.diag([a, b])
    )
    centre = np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    axes = draw(st.floats(0.2, 3.0)) * np.array([1.0, draw(st.floats(0.1, 1.0))])
    T = np.eye(3)
    T[:2, :2] = _rotation(draw(st.floats(0.0, math.pi))) @ np.diag(axes)
    T[:2, 2] = centre
    Tinv = np.linalg.inv(T)
    s1, s2 = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    C1 = s1 * Tinv.T @ np.diag([1.0, 1.0, -1.0]) @ Tinv
    C2 = s2 * Tinv.T @ inner @ Tinv
    return C1, C2


nested_pairs = ellipse_pairs(kinds=("inside",))


def test_eigenvalues_diagonal_fixture():
    lam = generalized_eigenvalues(DIAG_OUTER, DIAG_INNER)
    assert lam == pytest.approx((0.2, 0.125, 1.0 / 9.0), abs=1e-13)


def test_eigenvalues_circle_pencil():
    # concentric-offset circle pair R=1, r=0.3, a=0.2: quadratic-formula
    # reference (1, (b+s)/2, (b-s)/2), b = 1.05, s = sqrt(b^2 - 0.36)
    C2 = SymmetricConic.from_matrix(
        np.array([[1.0, 0.0, -0.2], [0.0, 1.0, 0.0], [-0.2, 0.0, 0.04 - 0.09]])
    )
    lam = generalized_eigenvalues(DIAG_OUTER, C2)
    assert lam == pytest.approx(
        (1.0, 0.9558421984903522, 0.09415780150964786), abs=1e-12
    )


def test_eigenvalues_homogeneity():
    rng = np.random.default_rng(2)
    C1, C2, _ = random_nested_pair(rng)
    lam = generalized_eigenvalues(C1, C2)
    lam_scaled = generalized_eigenvalues(C1.scaled(0.7), C2.scaled(2.3))
    assert lam_scaled == pytest.approx(tuple((2.3 / 0.7) * l for l in lam), rel=1e-10)


def test_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrum):
        generalized_eigenvalues(DIAG_OUTER, DIAG_OUTER)


@pytest.mark.parametrize("gap", [1e-8, 1e-6, 1e-4])
def test_eigenvalues_small_gap_congruences(gap):
    # a close top pair is a well-conditioned eigenvalue of C1^{-1} C2, though
    # an ill-conditioned root of det(l C1 - C2)
    rng = np.random.default_rng(17)
    for _ in range(20):
        C1, C2, lam_ref = random_nested_pair(rng, gap=gap)
        lam = generalized_eigenvalues(C1, C2)
        assert np.abs(np.subtract(lam, lam_ref)).max() <= 1e-12 * lam_ref[0]


def test_double_root_congruences_are_degenerate():
    # congruent concentric circles have spectrum (0.5, 0.5, 0.25): a double
    # root, which is degenerate and never a failure of nesting
    rng = np.random.default_rng(5)
    valid = complex_pairs = 0
    while valid < 18:
        S = rng.normal(size=(3, 3))
        if abs(np.linalg.det(S)) < 0.3:
            continue
        C1 = SymmetricConic.from_matrix(S.T @ np.diag([1.0, 1.0, -1.0]) @ S)
        C2 = SymmetricConic.from_matrix(S.T @ np.diag([0.5, 0.5, -0.25]) @ S)
        try:
            validate_ellipse(C1)
            validate_ellipse(C2)
        except NotAnEllipse:
            continue
        valid += 1
        # eig may split the double root into a pair with a rounding-level
        # imaginary part
        w = np.linalg.eigvals(np.linalg.solve(C1.matrix, C2.matrix))
        complex_pairs += np.iscomplexobj(w)
        with pytest.raises(DegenerateSpectrum):
            build_pencil(C1, C2)
    assert complex_pairs >= 1


def test_pencil_eccentricity_values():
    assert pencil_eccentricity((0.2, 0.125, 1.0 / 9.0)).e == pytest.approx(E_REF, abs=1e-13)
    # near-coincident top pair drives e to 0
    assert pencil_eccentricity((1.0, 1.0 - 1e-6, 0.5)).e < 2e-3
    # standard-pencil eigenvalues recover the eccentricity
    e, f = 0.8, 0.5
    lam = ((1 - f * f) / (1 - e * e), 1.0, f * f / (e * e))
    assert pencil_eccentricity(lam).e == pytest.approx(e, abs=1e-13)


def test_build_pencil_diagonal():
    P = diag_pencil()
    assert P.e.e == pytest.approx(E_REF, abs=1e-12)
    # for an already-diagonal pair M is the identity
    assert P.M == pytest.approx(np.eye(3), abs=1e-12)
    assert np.linalg.det(P.M) * P.M[2, 2] > 0


def test_build_pencil_random_reconstruction():
    rng = np.random.default_rng(31)
    for _ in range(100):
        C1, C2, lam_ref = random_nested_pair(rng)
        P = build_pencil(C1, C2)
        assert P.lam == pytest.approx(tuple(lam_ref), rel=1e-8)
        assert_reconstructs(P, C1, C2)


def assert_reconstructs(P, C1, C2):
    Minv = P.Minv
    R1 = Minv.T @ np.diag([1.0, 1.0, -1.0]) @ Minv
    R2 = Minv.T @ np.diag([P.lam[0], P.lam[1], -P.lam[2]]) @ Minv
    assert R1 == pytest.approx(C1.matrix, rel=1e-8, abs=1e-8 * np.linalg.norm(C1.matrix))
    assert R2 == pytest.approx(C2.matrix, rel=1e-8, abs=1e-8 * np.linalg.norm(C2.matrix))
    assert np.linalg.det(P.M) * P.M[2, 2] > 0


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_build_pencil_small_gap_congruences(gap):
    # raw null vectors of a small top gap miss the 1e-9 residual tolerance,
    # which the check therefore applies to the polished M
    rng = np.random.default_rng(61)
    for _ in range(20):
        C1, C2, lam_ref = random_nested_pair(rng, gap=gap)
        P = build_pencil(C1, C2)
        assert P.lam == pytest.approx(tuple(lam_ref), rel=1e-8)
        assert_reconstructs(P, C1, C2)


def test_eccentricity_congruence_invariant():
    rng = np.random.default_rng(43)
    C1, C2, _ = random_nested_pair(rng)
    e0 = build_pencil(C1, C2).e.e
    for _ in range(10):
        S = rng.normal(size=(3, 3))
        if abs(np.linalg.det(S)) < 0.3:
            continue
        D1 = SymmetricConic.from_matrix(S.T @ C1.matrix @ S)
        D2 = SymmetricConic.from_matrix(S.T @ C2.matrix @ S)
        try:
            validate_ellipse(D1)
            validate_ellipse(D2)
        except NotAnEllipse:
            continue
        assert build_pencil(D1, D2).e.e == pytest.approx(e0, abs=1e-10)


def test_build_pencil_rejects_crossing():
    wide = SymmetricConic.from_matrix(np.diag([4.0, 0.3, -1.0]))
    with pytest.raises((NotNested, DegenerateSpectrum)):
        build_pencil(DIAG_OUTER, wide)


def test_build_pencil_keeps_raw_null_vectors_when_polish_adds_rounding():
    # a needle 1e-3 inside an elongated outer ellipse: l1 is about 1e4 times
    # l2 - l3, so the Newton step there is rounding in D2 over that gap and
    # would push the residual past the tolerance the raw null vectors meet
    T = np.eye(3)
    T[:2, :2] = _rotation(1.0) @ np.diag([2.0, 0.2])
    T[:2, 2] = (1.0, -2.0)
    Tinv = np.linalg.inv(T)
    needle = ellipse_matrix((0.5 - 1e-3, 0.0), np.diag([0.5, 0.025]))
    C1 = SymmetricConic.from_matrix(Tinv.T @ np.diag([1.0, 1.0, -1.0]) @ Tinv)
    C2 = SymmetricConic.from_matrix(Tinv.T @ needle @ Tinv)
    assert nesting_margin(C1.matrix, C2.matrix) < -1e-6
    assert_reconstructs(build_pencil(C1, C2), C1, C2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=ellipse_pairs())
def test_normal_form_certifies_nesting(pair):
    # the sampling oracle never disagrees with the normal form outside the
    # +-1e-6 band around tangency, where a double root makes both unsure
    C1, C2 = pair
    margin = nesting_margin(C1, C2)
    try:
        build_pencil(SymmetricConic.from_matrix(C1), SymmetricConic.from_matrix(C2))
        accepted = True
    except (NotNested, DegenerateSpectrum):
        accepted = False
    if margin >= 0.0:
        assert not accepted, margin
    elif margin < -1e-6 and spectral_gap(C1, C2) > 1e-6:
        assert accepted, margin


def test_member_endpoints():
    P = diag_pencil()
    assert member(P, (1, 0)) == P.C1
    assert member(P, (3.7, 0)) == P.C1
    m = member(P, (0, 1)).matrix
    assert m / m[0, 0] == pytest.approx(P.C2.matrix / P.C2.matrix[0, 0], abs=1e-12)


def test_member_limiting_ray():
    P = diag_pencil()
    with pytest.raises(LimitingPoint) as ei:
        member(P, (-1.0 / 9.0, 1.0))
    assert ei.value.point == pytest.approx((0.0, 0.0), abs=1e-12)
    assert limiting_point(P) == pytest.approx((0.0, 0.0), abs=1e-12)
    # M's third column is the image of the chart origin, to the last bit
    rng = np.random.default_rng(29)
    for _ in range(10):
        Q = build_pencil(*random_nested_pair(rng)[:2])
        assert tuple(limiting_point(Q)) == tuple(apply_homography(Q.M, (0.0, 0.0)))
    flat = P.M_entries[:8] + (0.5e-13 * P.M_norm,)
    with pytest.raises(HomographySingularity):
        limiting_point(dataclasses.replace(P, M_entries=flat))


def test_member_outside_cone():
    P = diag_pencil()
    for bad in ((-1, 0), (0, -1), (-0.2, 0.1), (-1, -0.5)):
        with pytest.raises(InvalidParameter):
            member(P, bad)


def test_member_closure():
    # every valid member makes a nested pair with C1 of the same eccentricity
    rng = np.random.default_rng(57)
    P = diag_pencil()
    l3 = P.lam[2]
    for _ in range(100):
        nu = PencilParam(rng.uniform(-l3 + 1e-3, 2.0), 1.0)
        Pm = build_pencil(P.C1, member(P, nu))
        assert Pm.e.e == pytest.approx(P.e.e, abs=1e-9)


def test_relative_eccentricity_fixture():
    P = diag_pencil()
    nu, mu = (0, 1), (-1.0 / 90.0, 1.0 / 9.0)
    assert relative_eccentricity(P, nu, mu).e == pytest.approx(
        math.sqrt(8.0 / 9.0) * E_REF, abs=1e-12
    )
    # outer nu keeps the pencil eccentricity regardless of mu
    assert relative_eccentricity(P, (1, 0), mu).e == pytest.approx(E_REF, abs=1e-12)
    with pytest.raises(NotNested):
        relative_eccentricity(P, nu, (0.0, 2.0))


def test_f_of_nu_fixture():
    P = diag_pencil()
    assert f_of_nu(P, (0, 1)) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert f_of_nu(P, (1, 0)) == pytest.approx(P.e.e, abs=1e-15)
    assert f_of_nu(P, (-1.0 / 9.0, 1.0)) == 0.0


def test_dual_fixture_and_involution():
    P = diag_pencil()
    d = dual(P, (0, 1))
    ref = PencilParam(-1.0 / 90.0, 1.0 / 9.0).canonical()
    assert (d.nu1, d.nu2) == pytest.approx((ref.nu1, ref.nu2), abs=1e-12)
    # exact rational involution: dual(dual(nu)) = delta * nu
    lam = (Fraction(1, 5), Fraction(1, 8), Fraction(1, 9))
    nu = (Fraction(0), Fraction(1))
    dd = dual_formula(lam, *dual_formula(lam, *nu))
    delta = (lam[0] - lam[2]) * (lam[1] - lam[2])
    assert dd == (delta * nu[0], delta * nu[1])
    # floating double dual stays parallel to nu
    for nu in ((0.3, 1.0), (1.0, 0.0), (-0.05, 1.0)):
        d2 = dual(P, dual(P, nu))
        c = PencilParam(*nu).canonical()
        assert d2.nu1 * c.nu2 - d2.nu2 * c.nu1 == pytest.approx(0.0, abs=1e-10)


def test_dual_of_outer_is_limiting_ray():
    P = diag_pencil()
    d = dual(P, (1, 0))
    assert d.nu1 / d.nu2 == pytest.approx(-P.lam[2], abs=1e-12)


def test_nesting_order():
    P = diag_pencil()
    assert nesting_order(P, (1, 0), (0, 1)) > 0
    nu = PencilParam(0.3, 1.0)
    assert nesting_order(P, nu, PencilParam(0.6, 2.0)) == pytest.approx(0.0, abs=1e-15)
    # the dual of the inner member sits inside it when rho < 1/4 territory
    assert nesting_order(P, (0, 1), (-1.0 / 90.0, 1.0 / 9.0)) > 0


def test_apply_homography():
    assert apply_homography(np.eye(3), (0.3, 0.4)) == pytest.approx((0.3, 0.4))
    P = diag_pencil()
    z = apply_homography(P.M, (1.0, 0.0))
    assert abs(z @ P.C1.matrix[:2, :2] @ z + 2 * P.C1.matrix[:2, 2] @ z + P.C1.c33) < 1e-9
    M = np.eye(3)
    M[2] = [1.0, 0.0, -1.0]  # denominator x - 1
    with pytest.raises(HomographySingularity):
        apply_homography(M, (1.0, 0.5))


def test_homography_round_trip():
    rng = np.random.default_rng(3)
    P = build_pencil(*random_nested_pair(rng)[:2])
    for _ in range(20):
        w = rng.uniform(-0.9, 0.9, size=2)
        z = apply_homography(P.M, w)
        assert apply_homography(P.Minv, z) == pytest.approx(w, abs=1e-11)


def test_standard_pencil_member():
    assert standard_pencil_member(0.8, 0.8) == SymmetricConic(1, 0, 0, 1, 0, -1)
    S = standard_pencil_member(0.8, math.sqrt(0.4))
    assert (S.c11, S.c22, S.c33) == pytest.approx((0.6 / 0.36, 1.0, -0.625), abs=1e-14)
    with pytest.raises(InvalidParameter):
        standard_pencil_member(0.8, 0.9)
    with pytest.raises(InvalidParameter):
        standard_pencil_member(0.8, -0.1)
    with pytest.raises(LimitingPoint):
        standard_pencil_member(0.8, 0.0)


def test_confocal_to_standard():
    f = math.sqrt(0.4)
    T = confocal_to_standard(f)
    assert T @ np.array([1 / f, 0.0]) == pytest.approx((0.0, -1.0), abs=1e-14)
    assert np.linalg.det(confocal_to_standard(0.3)) == pytest.approx(
        0.09 / math.sqrt(0.91), abs=1e-15
    )
    # T_{0.5} carries E(0.8) onto S_{0.8}^{0.5}
    T, e = confocal_to_standard(0.5), 0.8
    S = standard_pencil_member(e, 0.5)
    for t in np.linspace(0, 2 * math.pi, 8, endpoint=False):
        p = T @ np.array([math.cos(t) / e, math.sin(t) * math.sqrt(1 - e * e) / e])
        assert S.c11 * p[0] ** 2 + S.c22 * p[1] ** 2 + S.c33 == pytest.approx(0.0, abs=1e-12)


def test_confocal_pair_builds_standard_transform():
    # (E(f) outer, E(e) inner) diagonalizes through exactly T_f^{-1}
    f, e = 0.5, 0.8
    P = build_pencil(confocal_ellipse(f), confocal_ellipse(e))
    assert P.e.e == pytest.approx(e, abs=1e-12)
    assert f_of_nu(P, (0, 1)) == pytest.approx(f, abs=1e-12)
    for w in ((0.3, 0.4), (1.0, 0.0), (-0.2, 0.9)):
        z = apply_homography(P.M, w)
        ref = (-w[1] / f, math.sqrt(1 - f * f) * w[0] / f)
        assert z == pytest.approx(ref, abs=1e-10)


def test_pencil_cubic_matches_expansion():
    # det(l C1 - C2) = det(C1) (l-l1)(l-l2)(l-l3): check endpoints and roots
    c = pencil_cubic(DIAG_OUTER.matrix, DIAG_INNER.matrix)
    assert c[0] == pytest.approx(np.linalg.det(DIAG_OUTER.matrix), abs=1e-15)
    assert c[3] == pytest.approx(np.linalg.det(-DIAG_INNER.matrix), abs=1e-15)
    roots = np.sort(np.roots(c))[::-1]
    assert roots == pytest.approx((0.2, 0.125, 1.0 / 9.0), abs=1e-12)


def _eig_route(C1, C2):
    """build_pencil's general branch, taken on any pair, with the modulus
    check that build_pencil makes last."""
    validate_ellipse(C1)
    validate_ellipse(C2)
    lam, V = pencil._eig_spectrum(C1, C2)
    M, Minv = pencil._eig_chart(C1, C2, lam, V)
    return lam, M, Minv, pencil_eccentricity(lam)


def _no_eig(*args):
    raise AssertionError("an axis-aligned pair reached the eigendecomposition")


def _diagonal(d):
    return SymmetricConic(d[0], 0.0, 0.0, d[1], 0.0, d[2])


def axis_aligned_pairs(rng):
    """(C1, C2) diagonal pairs: unit C1 with the top two of the spectrum in
    either axis order, confocal pairs both ways round (swapped axes),
    non-unit C1, a gap within 0.1% of TOL_DEGENERATE on either side of it,
    and random diagonals, most of them not nested."""
    pairs = []
    for _ in range(100):
        lam = np.sort(rng.uniform(0.01, 3.0, size=3))[::-1]
        lam[:2] = rng.permutation(lam[:2])
        pairs.append((_diagonal((1.0, 1.0, -1.0)), _diagonal((lam[0], lam[1], -lam[2]))))
        e = rng.uniform(0.05, 0.95)
        f = e * rng.uniform(0.05, 0.95)
        pairs.append((confocal_ellipse(f), confocal_ellipse(e)))
        pairs.append((confocal_ellipse(e), confocal_ellipse(f)))
        a = rng.uniform(0.1, 5.0, size=3) * (1.0, 1.0, -1.0)
        w = np.sort(rng.uniform(0.05, 2.0, size=3))[::-1]
        pairs.append((_diagonal(a), _diagonal(rng.permutation(w) * a)))
        top, mid = rng.uniform(1.0, 2.0), rng.uniform(0.5, 0.9)
        gap = TOL_DEGENERATE * top * (1.0 + rng.choice((-1e-3, 1e-3)))
        w = (top, top - gap, 0.3) if rng.uniform() < 0.5 else (top, mid, mid - gap)
        pairs.append((_diagonal(a), _diagonal(rng.permutation(w) * a)))
        b = rng.uniform(0.1, 5.0, size=3) * (1.0, 1.0, -1.0)
        pairs.append((_diagonal(a), _diagonal(b)))
    return pairs


def test_axis_aligned_branch_matches_the_eigendecomposition(monkeypatch):
    pairs = axis_aligned_pairs(np.random.default_rng(71))
    expected = []
    for C1, C2 in pairs:
        try:
            expected.append(_eig_route(C1, C2))
        except PonceletError as ex:
            expected.append(type(ex))
    monkeypatch.setattr(pencil, "_eig_spectrum", _no_eig)
    monkeypatch.setattr(pencil, "_eig_chart", _no_eig)
    outcomes = collections.Counter()
    for (C1, C2), want in zip(pairs, expected):
        try:
            P = build_pencil(C1, C2)
        except PonceletError as ex:
            assert type(ex) is want, (C1, C2)
            outcomes[want.__name__] += 1
            continue
        assert not isinstance(want, type), (C1, C2, want)
        lam, M, Minv, _ = want
        unit = C1 == _diagonal((1.0, 1.0, -1.0))
        for got, ref in ((P.lam, lam), (P.M_entries, M), (P.Minv_entries, Minv)):
            if unit:
                assert got == ref
            else:
                assert all(abs(g - r) <= 1e-15 * abs(r) for g, r in zip(got, ref)), (got, ref)
        assert np.array_equal(P.M, np.reshape(M, (3, 3)))
        assert np.array_equal(P.Minv, np.reshape(Minv, (3, 3)))
        outcomes["built, unit C1" if unit else "built"] += 1
    assert outcomes["built, unit C1"] >= 90 and outcomes["built"] >= 100, outcomes
    assert outcomes["NotNested"] >= 100 and outcomes["DegenerateSpectrum"] >= 20, outcomes


def test_pencil_matrices_are_read_only_arrays_of_the_entries():
    for P in (diag_pencil(), build_pencil(*random_nested_pair(np.random.default_rng(3))[:2])):
        for A, entries in ((P.M, P.M_entries), (P.Minv, P.Minv_entries)):
            assert isinstance(A, np.ndarray) and A.shape == (3, 3) and A.dtype == float
            assert not A.flags.writeable
            assert tuple(A.ravel().tolist()) == entries
        assert P.M is P.M and P.Minv is P.Minv
        assert np.allclose(P.M @ P.Minv, np.eye(3), atol=1e-12)
