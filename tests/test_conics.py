"""Conic primitives: signature validation; point classification and
tangents of the oracle route in oracles.py."""

import numpy as np
import pytest

from oracles import (
    PointClass,
    PointNotOutside,
    adjugate,
    classify_point,
    tangency_point,
    tangent_lines_from_point,
)
from poncelet.conics import (
    SymmetricConic,
    confocal_ellipse,
    determinant,
    unit_circle,
    validate_ellipse,
)
from poncelet.errors import NotAnEllipse, PonceletError
from poncelet.pencil import as_param, build_pencil, member

SQRT3_2 = 0.8660254037844386


def test_validate_signature():
    validate_ellipse(unit_circle())
    validate_ellipse(SymmetricConic.from_matrix(np.diag([0.2, 0.125, -1 / 9])))
    with pytest.raises(NotAnEllipse) as ei:
        validate_ellipse(SymmetricConic.from_matrix(np.diag([1.0, -1.0, -1.0])))
    assert ei.value.reason == "minor_not_pd"
    with pytest.raises(NotAnEllipse) as ei:
        validate_ellipse(SymmetricConic.from_matrix(np.diag([1.0, 1.0, 1.0])))
    assert ei.value.reason == "det_nonnegative"


def test_classify_circle():
    C = unit_circle().matrix
    assert classify_point(C, (0, 0)) is PointClass.INSIDE
    assert classify_point(C, (1, 0)) is PointClass.ON
    assert classify_point(C, (2, 0)) is PointClass.OUTSIDE


def test_classify_confocal_member():
    # f^2 x^2 + f^2/(1-f^2) y^2 = 1 at (1.25, -0.75) with f = sqrt(0.4):
    # 0.4*1.5625 + (2/3)*0.5625 = 1 exactly
    assert classify_point(confocal_ellipse(np.sqrt(0.4)).matrix, (1.25, -0.75)) is PointClass.ON


def test_classify_scale_invariant():
    C = unit_circle()
    for s in (37.0, 1e-7, 3e5):
        Cs = C.scaled(s).matrix
        for z, want in (((0.3, 0.2), PointClass.INSIDE), ((2, 0), PointClass.OUTSIDE), ((0, 1), PointClass.ON)):
            assert classify_point(Cs, z) is want


def test_circle_tangents_from_axis_point():
    C = unit_circle().matrix
    l1, l2 = tangent_lines_from_point(C, (2, 0))
    touches = sorted((tuple(tangency_point(C, l)) for l in (l1, l2)), key=lambda t: t[1])
    assert touches[0] == pytest.approx((0.5, -SQRT3_2), abs=1e-12)
    assert touches[1] == pytest.approx((0.5, SQRT3_2), abs=1e-12)


def test_confocal_tangents_horizontal_case():
    # from (1.25, -0.75) the tangents to E(0.8) are x = 1.25 and y = -0.75;
    # the latter touches at (0, -0.75) since b_e = sqrt(1-e^2)/e = 0.75
    E = confocal_ellipse(0.8).matrix
    lines = tangent_lines_from_point(E, (1.25, -0.75))
    touches = sorted((tuple(tangency_point(E, l)) for l in lines), key=lambda t: t[0])
    assert touches[0] == pytest.approx((0.0, -0.75), abs=1e-12)
    assert touches[1] == pytest.approx((1.25, 0.0), abs=1e-12)


def test_tangent_requires_outside_point():
    C = unit_circle().matrix
    with pytest.raises(PointNotOutside):
        tangent_lines_from_point(C, (0, 0))
    with pytest.raises(PointNotOutside):
        tangent_lines_from_point(C, (1, 0))


def test_adjugate_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        C = SymmetricConic.from_matrix(rng.normal(size=(3, 3)))
        M = C.matrix
        assert M @ adjugate(M) == pytest.approx(np.linalg.det(M) * np.eye(3), abs=1e-12)


def test_tangency_residuals_random():
    # random ellipses via congruence of diag(1,1,-1), random outside points
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 120:
        A = rng.normal(size=(3, 3))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        C = SymmetricConic.from_matrix(A.T @ np.diag([1.0, 1.0, -1.0]) @ A)
        try:
            validate_ellipse(C)
        except NotAnEllipse:
            continue
        C = C.matrix
        z = rng.uniform(-6, 6, size=2)
        if classify_point(C, z) is not PointClass.OUTSIDE:
            continue
        adj = adjugate(C)
        uz = np.array([z[0], z[1], 1.0])
        for l in tangent_lines_from_point(C, z):
            assert abs(l @ adj @ l) / (l @ l * np.linalg.norm(adj)) < 1e-10
            assert np.hypot(l[0], l[1]) == pytest.approx(1.0, abs=1e-14)
            # line passes through z and its pole lies on the conic
            assert abs(l @ uz) < 1e-9 * np.linalg.norm(uz)
            assert classify_point(C, tangency_point(C, l)) is PointClass.ON
        checked += 1


def test_single_intersection_of_tangent():
    # restrict the conic to each tangent line: the quadratic in the line
    # parameter must have (nearly) vanishing discriminant
    rng = np.random.default_rng(23)
    C = M = confocal_ellipse(0.7).matrix
    for _ in range(40):
        z = rng.uniform(-5, 5, size=2)
        if classify_point(C, z) is not PointClass.OUTSIDE:
            continue
        uz = np.array([z[0], z[1], 1.0])
        for l in tangent_lines_from_point(C, z):
            d = np.array([-l[1], l[0], 0.0])  # direction of the line
            a = d @ M @ d
            b = uz @ M @ d
            c = uz @ M @ uz
            assert b * b - a * c == pytest.approx(0.0, abs=1e-9 * max(abs(b * b), abs(a * c), 1e-30))


def test_fragment_round_trip():
    C = confocal_ellipse(0.8)
    assert SymmetricConic.from_fragment(C.to_fragment()) == C


def test_cofactor_determinant_agrees_in_sign_with_lapack():
    # validate_ellipse takes det by cofactors on the six floats; away from
    # |det| at rounding level its sign is np.linalg.det's
    rng = np.random.default_rng(41)
    checked = {True: 0, False: 0}
    while min(checked.values()) < 300:
        A = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
        C = SymmetricConic.from_matrix(A + A.T)
        if not (C.c11 > 0.0 and C.c11 * C.c22 - C.c12 * C.c12 > 0.0):
            continue
        det = np.linalg.det(C.matrix)
        if abs(det) < 1e-12 * np.linalg.norm(C.matrix) ** 3:
            continue
        assert determinant(C) == pytest.approx(det, rel=1e-9)
        try:
            validate_ellipse(C)
            accepted = True
        except NotAnEllipse as ex:
            assert ex.reason == "det_nonnegative"
            accepted = False
        assert accepted == (det < 0.0)
        checked[accepted] += 1


def test_member_is_the_matrix_sum_to_the_bit():
    # member forms nu1 C1 + nu2 C2 entry by entry, as from_matrix of the sum
    rng = np.random.default_rng(43)
    pencils = [build_pencil(unit_circle(), SymmetricConic(0.2, 0.0, 0.0, 0.125, 0.0, -1.0 / 9.0))]
    while len(pencils) < 20:
        S = rng.normal(size=(3, 3))
        lam = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
        try:
            pencils.append(build_pencil(
                SymmetricConic.from_matrix(S.T @ np.diag([1.0, 1.0, -1.0]) @ S),
                SymmetricConic.from_matrix(S.T @ np.diag([lam[0], lam[1], -lam[2]]) @ S)))
        except PonceletError:
            continue
    for P in pencils:
        for _ in range(10):
            nu = (rng.uniform(-0.9, 3.0) * P.lam[2], 1.0)
            can = as_param(nu).canonical()
            want = SymmetricConic.from_matrix(can.nu1 * P.C1.matrix + can.nu2 * P.C2.matrix)
            got = member(P, nu)
            assert [float(v).hex() for v in got.entries] == [float(v).hex() for v in want.entries]
