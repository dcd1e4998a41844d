"""Billiard map on E(f), invariant, closed-form rotation number, porisms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NotInUPlus,
    OutOfAnnulus,
    PhasePoint,
    billiard_map,
    boundary_point,
    boundary_velocity,
    caustic_of_state,
    caustic_state,
    confocal_cover,
    cover_angle,
    invariant_H,
    winding_rotation,
)
from poncelet.billiard import (
    EccPair,
    gauss_transform,
    half_rotation,
    porism_f,
    rotation_confocal,
    rotation_estimate,
)
from poncelet.errors import InvalidParameter, InvalidRotation, NotInDelta

F_SQ = math.sqrt(0.4)


def state_toward(f, z0, z1):
    """Phase point at boundary position z0 with the chord aimed at z1."""
    phi = math.atan2(z0[1] * f / math.sqrt(1 - f * f), z0[0] * f)
    d = np.subtract(z1, z0)
    d = d / np.linalg.norm(d)
    return PhasePoint(phi, float(d @ boundary_velocity(f, phi)))


def test_square_orbit_step():
    # chord of the rho = 1/4 caustic e = 0.8 inside E(sqrt(0.4))
    s = state_toward(F_SQ, (1.25, -0.75), (-1.25, -0.75))
    s1 = billiard_map(F_SQ, s)
    assert boundary_point(F_SQ, s1.phi) == pytest.approx((-1.25, -0.75), abs=1e-12)
    assert invariant_H(s1) == pytest.approx(invariant_H(s), abs=1e-12)


def test_vertical_period_two():
    s1 = billiard_map(F_SQ, PhasePoint(math.pi / 2, 0.0))
    assert s1.phi == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert s1.r == pytest.approx(0.0, abs=1e-12)
    s2 = billiard_map(F_SQ, s1)
    assert s2.phi == pytest.approx(math.pi / 2 + 2 * math.pi, abs=1e-12)


def test_invariant_values():
    assert invariant_H(PhasePoint(math.pi / 2, 0.0)) == pytest.approx(0.0, abs=1e-30)
    assert invariant_H(PhasePoint(0.0, 1.0)) == 1.0
    assert invariant_H(caustic_state(0.8, 0.3)) == pytest.approx(0.78125, abs=1e-13)


def test_H_conservation_long_runs():
    rng = np.random.default_rng(13)
    for f in (0.3, F_SQ, 0.8):
        for _ in range(8):
            phi = rng.uniform(0, 2 * math.pi)
            vmax = math.sqrt(1 - f * f * math.cos(phi) ** 2) / f
            s = PhasePoint(phi, rng.uniform(-0.95, 0.95) * vmax)
            H0 = invariant_H(s)
            worst = 0.0
            for _ in range(1500):
                s = billiard_map(f, s)
                worst = max(worst, abs(invariant_H(s) - H0))
            assert worst < 1e-8


def test_caustic_of_state():
    assert caustic_of_state(caustic_state(0.8, 0.3)).e == pytest.approx(0.8, abs=1e-13)
    with pytest.raises(NotInUPlus):
        caustic_of_state(PhasePoint(0.3, -0.5))  # lower sheet
    with pytest.raises(NotInUPlus):
        caustic_of_state(PhasePoint(math.pi / 2, 1.0))  # H = 1/2 separatrix


def test_annulus_guard():
    with pytest.raises(OutOfAnnulus):
        billiard_map(0.5, PhasePoint(0.0, 5.0))


def test_rotation_closed_form_captions():
    # figure-caption pairs are printed to 6 significant digits
    assert rotation_confocal(0.8, 0.572851) == pytest.approx(2.0 / 7.0, abs=5e-6)
    assert rotation_confocal(0.6, 0.503246) == pytest.approx(0.2, abs=5e-6)
    # the quarter rotation caustic is an exact algebraic point
    assert rotation_confocal(0.8, F_SQ) == pytest.approx(0.25, abs=1e-12)


def test_rotation_domain():
    with pytest.raises(NotInDelta):
        EccPair(0.5, 0.8)
    with pytest.raises(NotInDelta):
        EccPair(0.5, 0.5)
    r = rotation_confocal(0.9, 0.2)
    assert 0.0 < r < 0.5


def test_porism_f_round_trip():
    for e in (0.4, 0.8, 0.95):
        for ell in (0.05, 0.2, 0.25, 1.0 / 3.0, 0.45):
            f = porism_f(e, ell)
            assert 0.0 < f.e < e
            assert rotation_confocal(e, f) == pytest.approx(ell, abs=1e-11)


def test_porism_f_quarter_closed_form():
    # rho = 1/4 caustic satisfies f^2 = 1 - sqrt(1 - e^2)
    assert porism_f(0.8, 0.25).e == pytest.approx(F_SQ, abs=1e-13)
    assert porism_f(0.8, 2.0 / 7.0).e == pytest.approx(0.572851, abs=5e-7)
    # small rotation pushes the caustic to the boundary
    assert porism_f(0.5, 1e-5).e == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(InvalidRotation):
        porism_f(0.8, 0.6)
    with pytest.raises(InvalidRotation):
        porism_f(0.8, 0.0)


def test_half_rotation():
    f1, f2 = half_rotation(0.8, 0.572851)
    assert f2.e == pytest.approx(0.419316, abs=5e-6)
    rho0 = rotation_confocal(0.8, 0.572851)
    assert rotation_confocal(0.8, f1) == pytest.approx(rho0 / 2, abs=1e-10)
    assert rotation_confocal(0.8, f2) == pytest.approx(0.5 - rho0 / 2, abs=1e-10)
    # halving the rho = 1/3 porism lands on the rho = 1/6 porism
    for e in (0.55, 0.9):
        f0 = porism_f(e, 1.0 / 3.0)
        f1, _ = half_rotation(e, f0)
        assert f1.e == pytest.approx(porism_f(e, 1.0 / 6.0).e, abs=1e-10)


def test_half_rotation_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(25):
        e = rng.uniform(0.2, 0.95)
        f0 = rng.uniform(0.05, 0.98) * e
        if f0 <= 0.01:
            continue
        rho0 = rotation_confocal(e, f0)
        f1, f2 = half_rotation(e, f0)
        assert rotation_confocal(e, f1) == pytest.approx(rho0 / 2, abs=1e-10)
        assert rotation_confocal(e, f2) == pytest.approx(0.5 - rho0 / 2, abs=1e-10)


def test_gauss_transform():
    g = gauss_transform(0.6, 0.503246)
    assert (g.e.e, g.f.e) == pytest.approx((0.968246, 0.913706), abs=5e-7)
    assert rotation_confocal(g) == pytest.approx(rotation_confocal(0.6, 0.503246), abs=1e-10)
    # diagonal f = e maps to the diagonal: 2 sqrt(e) e/(e^2+e) = 2 sqrt(e)/(1+e)
    e = 0.37
    ge = 2 * math.sqrt(e) / (1 + e)
    gf = 2 * math.sqrt(e) * e / (e * e + e)
    assert ge == pytest.approx(gf, abs=1e-15)
    # iterating G preserves rho while marching toward the corner (1,1)
    p = EccPair(0.6, 0.503246)
    rho0 = rotation_confocal(p)
    for _ in range(3):
        p = gauss_transform(p)
        assert rotation_confocal(p) == pytest.approx(rho0, abs=1e-9)


def rho_rounding_scale(e, f):
    """eps e sqrt(1 - f^2) / (f (1 - e^2)), a bound on how far rounding
    moves the closed-form rotation number on Delta. That is
    rho_from_spectrum on the confocal spectrum, F(asin sqrt(1 - l3/l1)) / 2K
    with l3/l1 = f^2 (1 - e^2) / (e^2 (1 - f^2)); asin near pi/2 amplifies
    the rounding of 1 - l3/l1 by sqrt(l1/l3), and the slope of F is at
    most 1/k' = 1/sqrt(1 - e^2)."""
    return 2.0**-52 * e * math.sqrt(1.0 - f * f) / (f * (1.0 - e * e))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=st.floats(0.001, 0.999), q=st.floats(0.001, 0.999))
def test_gauss_and_half_rotation_identities_over_delta(e, q):
    # Tolerances are 10 rounding scales of the rotation numbers involved,
    # capped at 1e-10 (Gauss) and 1e-13 (halving). Over 20,000 seeded draws
    # of (e, q) uniform on [0.001, 0.999]^2 and over these draws the worst
    # errors were 1.9e-11 (Gauss) and 1.0e-14 (halving), at most 5.8 and
    # 0.33 scales. The scale alone grows to 1.2e-8 near e -> 1, where
    # rho_from_spectrum no longer loses digits to an arcsin near pi/2
    f = q * e
    rho = rotation_confocal(e, f)
    g = gauss_transform(e, f)
    tol = min(10.0 * (rho_rounding_scale(e, f) + rho_rounding_scale(g.e.e, g.f.e)), 1e-10)
    assert abs(rotation_confocal(g) - rho) <= tol
    f1, f2 = half_rotation(e, f)
    tol = min(10.0 * sum(rho_rounding_scale(e, fk) for fk in (f, f1.e, f2.e)), 1e-13)
    assert abs(rotation_confocal(e, f1) - rho / 2) <= tol
    assert abs(rotation_confocal(e, f2) - (0.5 - rho / 2)) <= tol


def test_gauss_identity_at_the_near_circular_corner():
    # G(e) = 1 - 1.3e-7 here, so the image's omega sits next to pi/2; an
    # arcsin of sqrt(sin^2 omega) lost 4.8e-9 of the rotation number
    e, f = 0.999, 0.000999
    g = gauss_transform(e, f)
    assert abs(rotation_confocal(g) - rotation_confocal(e, f)) < 1e-10


def test_confocal_cover_anchors():
    p = EccPair(0.8, F_SQ)
    bf = math.sqrt(1 - 0.4) / F_SQ
    assert confocal_cover(0.0, p) == pytest.approx((0.0, bf), abs=1e-14)
    assert confocal_cover(1.0, p) == pytest.approx(confocal_cover(0.0, p), abs=1e-12)
    assert confocal_cover(0.25, p) == pytest.approx((-1 / F_SQ, 0.0), abs=1e-13)


def test_cover_conjugates_billiard_to_shift():
    p = EccPair(0.8, F_SQ)
    rho = rotation_confocal(p)
    for theta in np.linspace(0.02, 0.98, 17):
        z = confocal_cover(theta, p)
        phi = cover_angle(theta, p)
        assert boundary_point(F_SQ, phi) == pytest.approx(z, abs=1e-12)
        s1 = billiard_map(F_SQ, caustic_state(0.8, phi))
        assert boundary_point(F_SQ, s1.phi) == pytest.approx(
            confocal_cover(theta + rho, p), abs=1e-9
        )


def test_rotation_estimate_matches_closed_form():
    for e, f in ((0.8, F_SQ), (0.6, 0.3), (0.95, 0.7)):
        assert rotation_estimate(e, f, steps=4000) == pytest.approx(
            rotation_confocal(e, f), abs=2e-4
        )


def test_rotation_estimate_matches_billiard_map_winding():
    # the chart kernel and repeated reflections from the same start state
    n = 2000
    for e, f in ((0.8, F_SQ), (0.6, 0.3), (0.95, 0.7), (0.3, 0.05)):
        s = caustic_state(e, 0.0)
        phis = [s.phi]
        for _ in range(n):
            s = billiard_map(f, s)
            phis.append(s.phi)
        assert rotation_estimate(e, f, steps=n) == pytest.approx(
            winding_rotation(phis, n), abs=1.0 / n
        )


def test_rotation_estimate_broadcasts():
    e = np.array([0.8, 0.9])
    f = np.array([0.4, 0.2])
    est = rotation_estimate(e, f, steps=2000)
    assert est.shape == (2,)
    for i in range(2):
        assert est[i] == pytest.approx(rotation_confocal(e[i], f[i]), abs=5e-4)
    with pytest.raises(NotInDelta):
        rotation_estimate(np.array([0.8, 0.5]), np.array([0.4, 0.6]), steps=10)
    with pytest.raises(InvalidParameter):
        rotation_estimate(e, f, steps=0)


def test_rotation_estimate_rejects_non_finite_steps():
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            rotation_estimate(0.8, 0.4, bad)


def test_rotation_monotone_in_each_slot():
    es = np.linspace(0.55, 0.9, 8)
    assert all(np.diff([rotation_confocal(e, 0.5) for e in es]) > 0)
    fs = np.linspace(0.1, 0.5, 8)
    assert all(np.diff([rotation_confocal(0.55, f) for f in fs]) < 0)
