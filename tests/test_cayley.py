"""Cayley determinants, spectral conditions, confocal sets, bicentric pairs."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import BadSignature, pencil_cubic, random_spd_congruence, sqrt_series
from poncelet.billiard import gauss_transform, porism_f
from poncelet.cayley import (
    _unit_series,
    bicentric_check,
    bicentric_conics,
    bicentric_rho,
    bicentric_spectrum,
    cayley_condition,
    confocal_poristic_residual,
    lambda_porism,
    porism_report,
)
from poncelet.conics import SymmetricConic, unit_circle, validate_ellipse
from poncelet.errors import (
    DegenerateSpectrum,
    InvalidParameter,
    InvalidPeriod,
    ModulusOutOfRange,
    NotAnEllipse,
    NotInDelta,
    NotNested,
    UnknownSet,
)
from poncelet.maps import invert_rho, rho_from_spectrum
from poncelet.pencil import build_pencil, member
from test_pencil import diag_pencil

# named confocal sets and the rotation number each certifies
SET_ROTATION = {"1/3": 1 / 3, "1/4": 1 / 4, "1/5": 1 / 5, "2/5": 2 / 5, "1/6": 1 / 6}


def spectrum_pencil(l1, l2, l3):
    return build_pencil(unit_circle(), SymmetricConic(l1, 0.0, 0.0, l2, 0.0, -l3))


def member_pencil(P, rho):
    return build_pencil(P.C1, member(P, invert_rho(P, rho)))


def test_sqrt_series_squares_back_to_the_cubic():
    P = diag_pencil()
    alpha = sqrt_series(P, 12).alpha
    assert len(alpha) == 13
    # constant term is det(-C2) = 1/360 on this fixture
    assert alpha[0] == pytest.approx(math.sqrt(1.0 / 360.0), rel=1e-15)
    c = list(pencil_cubic(P.C1.matrix, P.C2.matrix)[::-1])
    l3 = P.lam[2]
    for n in range(13):
        cn = c[n] if n < 4 else 0.0
        conv = math.fsum(alpha[i] * alpha[n - i] for i in range(n + 1))
        # compare after the l -> lam3*l rescale that makes the series O(1)
        assert conv * l3**n == pytest.approx(cn * l3**n, rel=1e-10, abs=1e-13)
    # the unit series, taken from the spectrum alone, squares to the
    # expanded cubic at l = l3 t over its value at t = 0
    a = _unit_series(P.lam, 12)
    q = [c[n] * l3**n / c[0] if n < 4 else 0.0 for n in range(13)]
    for n in range(13):
        conv = math.fsum(a[i] * a[n - i] for i in range(n + 1))
        assert conv == pytest.approx(q[n], rel=1e-10, abs=1e-13)
        assert a[n] == pytest.approx(alpha[n] * l3**n / alpha[0], rel=1e-12, abs=1e-15)


def test_sqrt_series_guards():
    with pytest.raises(InvalidParameter):
        sqrt_series(diag_pencil(), 1)
    # a sign-flipped inner matrix makes det(-C2) negative
    neg = SymmetricConic(-0.2, 0.0, 0.0, -0.125, 0.0, 1.0 / 9.0)
    with pytest.raises(BadSignature):
        sqrt_series(SimpleNamespace(C1=unit_circle(), C2=neg), 4)


def test_cayley_rejects_short_periods():
    for N in (0, 1, 2):
        with pytest.raises(InvalidPeriod):
            cayley_condition(diag_pencil(), N)


def test_cayley_vanishes_exactly_on_porism_members():
    P = diag_pencil()
    for N in range(3, 13):
        for k in range(1, N):
            if math.gcd(k, N) != 1 or 2 * k >= N:
                continue
            on = cayley_condition(member_pencil(P, k / N), N)
            off = cayley_condition(member_pencil(P, k / N + 0.01), N)
            assert abs(on) < 1e-8, (N, k, on)
            assert abs(off) > 1e-4, (N, k, off)


def ellipse_congruence(rng, C):
    """A random congruence S that keeps the ellipse C an ellipse, so that it
    keeps every conic nested inside C one too."""
    while True:
        S = random_spd_congruence(rng)
        try:
            validate_ellipse(SymmetricConic.from_matrix(S.T @ C.matrix @ S))
        except NotAnEllipse:
            continue
        return S


def test_cayley_sees_only_the_spectrum():
    # a congruence S^T C S and a joint positive rescale keep the spectrum,
    # so they keep the classification and, off the porism, the residual
    rng = np.random.default_rng(5)
    P = diag_pencil()
    for N in range(3, 11):
        for k in range(1, N):
            if math.gcd(k, N) != 1 or 2 * k >= N:
                continue
            S = ellipse_congruence(rng, P.C1)
            c = float(rng.uniform(0.1, 10.0))
            for rho in (k / N, k / N + 0.01):
                Cm = member(P, invert_rho(P, rho))
                moved = [
                    SymmetricConic.from_matrix(c * S.T @ C.matrix @ S) for C in (P.C1, Cm)
                ]
                diag = cayley_condition(build_pencil(P.C1, Cm), N)
                cong = cayley_condition(build_pencil(*moved), N)
                if rho == k / N:
                    assert abs(diag) < 1e-8 and abs(cong) < 1e-8, (N, k, diag, cong)
                else:
                    assert abs(diag) > 1e-4 and abs(cong) > 1e-4, (N, k, diag, cong)
                    assert cong == pytest.approx(diag, rel=1e-9), (N, k)


def test_cayley_covers_unreduced_rotations():
    # Cay_10 vanishes on a pentagonal member too: the zero set is the
    # union over every rotation number k/N, reduced or not
    P = diag_pencil()
    assert abs(cayley_condition(member_pencil(P, 1 / 5), 10)) < 1e-8


def test_cayley_on_the_hexagonal_fixture():
    # the fixture pair itself carries rho = 1/6
    P = diag_pencil()
    assert abs(cayley_condition(P, 6)) < 1e-10
    assert abs(cayley_condition(P, 5)) > 1e-4
    assert abs(cayley_condition(P, 7)) > 1e-4


def test_cayley_three_is_the_discriminant_condition():
    # Cay_3, the b2^2 = 4 b1 b3 relation on the descending cubic, the
    # closed-form 1/3 condition, and rho = 1/3 all pick the same spectra
    rng = np.random.default_rng(7)
    for trial in range(50):
        l1 = rng.uniform(0.5, 3.0)
        l2 = rng.uniform(0.2, 0.9) * l1
        if trial % 2 == 0:
            l3 = 1.0 / (1.0 / math.sqrt(l1) + 1.0 / math.sqrt(l2)) ** 2
        else:
            l3 = rng.uniform(0.05, 0.8) * l2
        P = spectrum_pencil(l1, l2, l3)
        b0, b1, b2, b3 = pencil_cubic(P.C1.matrix, P.C2.matrix)
        rho = rho_from_spectrum((l1, l2, l3), (0.0, 1.0))
        on = abs(rho - 1 / 3) < 1e-9
        assert (abs(cayley_condition(P, 3)) < 1e-8) == on
        assert (abs(b2 * b2 - 4.0 * b1 * b3) < 1e-8) == on
        assert (abs(lambda_porism(l1, l2, l3, "1/3")) < 1e-8) == on


def test_lambda_porism_fixtures():
    assert lambda_porism(0.5, 1 / 3, 0.2, "1/4") == pytest.approx(0.0, abs=1e-15)
    assert lambda_porism(0.2, 0.125, 1 / 9, "1/6") == pytest.approx(0.0, abs=1e-15)
    ref = 3.0 - math.sqrt(5.0) - math.sqrt(8.0)
    assert lambda_porism(0.2, 0.125, 1 / 9, "1/3") == pytest.approx(ref, rel=1e-12)


def test_lambda_porism_matches_rotation_for_quarter():
    rng = np.random.default_rng(3)
    for _ in range(10):
        l1 = rng.uniform(0.5, 3.0)
        l2 = rng.uniform(0.3, 0.9) * l1
        l3 = l1 * l2 / (l1 + l2)
        assert abs(lambda_porism(l1, l2, l3, "1/4")) < 1e-14
        rho = rho_from_spectrum((l1, l2, l3), (0.0, 1.0))
        assert rho == pytest.approx(0.25, abs=1e-10)


def test_lambda_porism_guards():
    with pytest.raises(DegenerateSpectrum):
        lambda_porism(0.2, 0.2, 0.1, "1/4")
    with pytest.raises(DegenerateSpectrum):
        lambda_porism(0.1, 0.2, 0.3, "1/4")
    with pytest.raises(DegenerateSpectrum):
        lambda_porism(0.3, 0.2, 0.0, "1/4")
    with pytest.raises(UnknownSet):
        lambda_porism(0.5, 0.3, 0.1, "2/7")


def test_bicentric_conics_and_nesting_guard():
    C1, C2 = bicentric_conics(1.0, 0.3, 0.2)
    assert np.allclose(C1.matrix, np.diag([1.0, 1.0, -1.0]))
    ref = np.array([[1.0, 0.0, -0.2], [0.0, 1.0, 0.0], [-0.2, 0.0, 0.04 - 0.09]])
    assert np.allclose(C2.matrix, ref)
    with pytest.raises(NotNested):
        bicentric_conics(1.0, 0.2, 0.9)
    with pytest.raises(NotNested):
        bicentric_conics(1.0, -0.2, 0.0)
    with pytest.raises(NotNested):
        bicentric_conics(0.5, 0.5, 0.0)


def test_bicentric_spectrum_values():
    lam = bicentric_spectrum(1.0, 0.3, 0.2)
    assert lam[0] == 1.0
    assert lam[1] == pytest.approx(0.9558421984903522, rel=1e-12)
    assert lam[2] == pytest.approx(0.09415780150964786, rel=1e-12)
    # the two quadratic roots multiply to (r/R)^2
    assert lam[1] * lam[2] == pytest.approx(0.09, rel=1e-14)
    # concentric pair: double eigenvalue at 1, third at (r/R)^2, all exact
    assert bicentric_spectrum(1.0, 0.5, 0.0) == (1.0, 1.0, 0.25)


def test_bicentric_triangle_and_quadrilateral_fixtures():
    assert bicentric_check(1.0, 0.5, 0.0, "triangle") == 0.0
    assert bicentric_rho(1.0, 0.5, 0.0) == pytest.approx(1 / 3, abs=1e-12)
    # 1/sqrt(2) squares to 0.5000000000000001, so the Fuss residual at the
    # concentric quadrilateral pair is one ulp shy of zero
    assert bicentric_check(1.0, 1.0 / math.sqrt(2.0), 0.0, "quadrilateral") == pytest.approx(
        0.0, abs=5e-16
    )
    assert bicentric_rho(1.0, 1.0 / math.sqrt(2.0), 0.0) == pytest.approx(0.25, abs=1e-10)
    with pytest.raises(UnknownSet):
        bicentric_check(1.0, 0.5, 0.0, "pentagon")


def test_bicentric_generic_pair_is_not_poristic():
    assert bicentric_check(1.0, 0.3, 0.2, "triangle") == pytest.approx(-1.25, rel=1e-12)
    assert bicentric_check(1.0, 0.3, 0.2, "quadrilateral") == pytest.approx(
        -8.854166666666666, rel=1e-12
    )
    rho = bicentric_rho(1.0, 0.3, 0.2)
    assert abs(rho - 1 / 3) > 0.05 and abs(rho - 0.25) > 0.05


def test_bicentric_checks_classify_like_the_rotation_number():
    rng = np.random.default_rng(11)
    for trial in range(60):
        kind = trial % 3
        R = rng.uniform(0.6, 2.0)
        if kind == 0:
            r = rng.uniform(0.15, 0.45) * R
            a = math.sqrt(R * (R - 2.0 * r))
        elif kind == 1:
            a = rng.uniform(0.05, 0.4) * R
            r = 1.0 / math.sqrt(1.0 / (R - a) ** 2 + 1.0 / (R + a) ** 2)
        else:
            r = rng.uniform(0.15, 0.6) * R
            a = rng.uniform(0.0, 0.9) * (R - r)
        rho = bicentric_rho(R, r, a)
        tri = bicentric_check(R, r, a, "triangle")
        quad = bicentric_check(R, r, a, "quadrilateral")
        assert (abs(tri) < 1e-6) == (abs(rho - 1 / 3) < 1e-6), (trial, R, r, a)
        assert (abs(quad) < 1e-6) == (abs(rho - 0.25) < 1e-6), (trial, R, r, a)


def test_confocal_polynomials_vanish_on_porisms():
    for name, ell in SET_ROTATION.items():
        for e in (0.4, 0.6, 0.8, 0.95):
            f = porism_f(e, ell)
            assert abs(confocal_poristic_residual(e, f, name)) < 1e-12, (name, e)


def test_confocal_polynomial_quarter_fixture():
    # e^2 + f^4 - 2 f^2 at the square pair, exact up to rounding
    res = confocal_poristic_residual(0.8, math.sqrt(0.4), "1/4")
    assert res == pytest.approx(0.0, abs=1e-15)


def test_confocal_polynomials_reject_off_porism():
    for name in SET_ROTATION:
        assert abs(confocal_poristic_residual(0.8, 0.5, name)) > 1e-3, name


def test_confocal_sets_are_gauss_invariant():
    # the zero sets are carried to themselves by the e <-> f symmetry flow
    for name, ell in SET_ROTATION.items():
        f = porism_f(0.7, ell)
        g = gauss_transform(0.7, f)
        assert abs(confocal_poristic_residual(g.e, g.f, name)) < 1e-10, name


def test_confocal_residual_guards():
    with pytest.raises(UnknownSet):
        confocal_poristic_residual(0.8, 0.4, "1/7")
    with pytest.raises(NotInDelta):
        confocal_poristic_residual(0.4, 0.8, "1/4")
    with pytest.raises(ModulusOutOfRange):
        confocal_poristic_residual(1.2, 0.4, "1/4")


def test_porism_report_shape():
    P = diag_pencil()
    rep = porism_report(member_pencil(P, 0.25), 4)
    assert set(rep) == {"N", "residual", "classified_poristic", "rho"}
    assert rep["N"] == 4
    assert rep["classified_poristic"] is True
    assert rep["rho"] == pytest.approx(0.25, abs=1e-10)
    rep = porism_report(member_pencil(P, 0.26), 4)
    assert rep["classified_poristic"] is False
    assert abs(rep["residual"]) > 1e-4
