"""End-to-end acceptance criteria, one test per criterion.

Each test states its tolerances inline and enforces a wall-clock budget.
conftest.py turns the outcomes into a PASS/FAIL table after the run.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from poncelet import (
    SymmetricConic,
    bicentric_check,
    bicentric_rho,
    bicentric_spectrum,
    billiard_map,
    build_pencil,
    caustic_state,
    cayley_condition,
    confocal_ellipse,
    confocal_poristic_residual,
    covering,
    dual,
    ellint_K,
    f_of_nu,
    gauss_transform,
    half_rotation,
    invert_rho,
    lambda_porism,
    member,
    nesting_order,
    polygon,
    poncelet_step,
    porism_f,
    rho_of_nu,
    rotation_confocal,
    rotation_estimate,
    run_composition,
    standard_map,
    unit_circle,
)
from oracles import geometric_step, pencil_cubic
from poncelet.billiard import boundary_point
from poncelet.maps import from_chart, to_chart
from poncelet.verify import run_suite

LAM = (0.2, 0.125, 1.0 / 9.0)


def diag_pencil():
    inner = SymmetricConic(LAM[0], 0.0, 0.0, LAM[1], 0.0, -LAM[2])
    return build_pencil(unit_circle(), inner)


def spectrum_pencil(lam):
    l1, l2, l3 = lam
    return build_pencil(unit_circle(), SymmetricConic(l1, 0.0, 0.0, l2, 0.0, -l3))


def confocal_pair(e, f):
    # boundary is the less eccentric ellipse of the confocal pair
    return build_pencil(confocal_ellipse(f), confocal_ellipse(e))


def test_criterion_01_caption_rotation_numbers():
    t0 = time.perf_counter()
    assert rotation_confocal(0.8, 0.572851) == pytest.approx(2.0 / 7.0, abs=5e-6)
    _, f2 = half_rotation(0.8, 0.572851)
    assert f2.e == pytest.approx(0.419316, abs=5e-6)
    assert rotation_confocal(0.8, f2) == pytest.approx(5.0 / 14.0, abs=5e-6)
    assert rotation_confocal(0.6, 0.503246) == pytest.approx(0.2, abs=5e-6)
    g = gauss_transform(0.6, 0.503246)
    assert g.e.e == pytest.approx(0.968246, abs=5e-6)
    assert g.f.e == pytest.approx(0.913706, abs=5e-6)
    assert rotation_confocal(g.e, g.f) == pytest.approx(0.2, abs=5e-6)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_pencil_fixture_and_conjugacy():
    t0 = time.perf_counter()
    P = diag_pencil()
    e = P.e.e
    assert e == pytest.approx(math.sqrt(27.0 / 32.0), abs=1e-12)
    assert rho_of_nu(P, (0.0, 1.0)) == pytest.approx(1.0 / 6.0, abs=1e-12)
    f = f_of_nu(P, (0.0, 1.0))
    assert f == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    Pc = confocal_pair(e, f)
    worst = 0.0
    for k in range(32):
        th = (k + 0.37) / 32.0
        # tangent-line step vs the standard map seen through the chart
        zP = covering(P, th)
        z1 = geometric_step(P.C1.matrix, P.C2.matrix, zP)
        z2 = from_chart(P, standard_map(e, f, to_chart(P, zP)))
        worst = max(worst, float(np.hypot(*(z1 - z2))))
        # billiard map on the confocal pair vs both other routes
        phi = 2.0 * math.pi * th
        zB = boundary_point(f, phi)
        s1 = billiard_map(f, caustic_state(e, phi))
        zb1 = boundary_point(f, s1.phi)
        zb2 = geometric_step(Pc.C1.matrix, Pc.C2.matrix, zB)
        zb3 = from_chart(Pc, standard_map(e, f, to_chart(Pc, zB)))
        worst = max(worst, float(np.hypot(*(zb1 - zb2))))
        worst = max(worst, float(np.hypot(*(zb1 - zb3))))
    assert worst < 1e-8
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_rotation_grid():
    t0 = time.perf_counter()
    es = np.linspace(0.05, 0.95, 20)
    ts = np.linspace(0.05, 0.95, 20)
    E = np.repeat(es, ts.size)
    F = E * np.tile(ts, es.size)
    closed = np.array([rotation_confocal(float(ev), float(fv)) for ev, fv in zip(E, F)])
    numeric = rotation_estimate(E, F, 10000)
    assert float(np.max(np.abs(closed - numeric))) < 2e-4
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_porism_closure_and_polynomials():
    t0 = time.perf_counter()
    for s in ("1/3", "1/4", "1/5", "2/7", "2/5", "1/6", "1/10", "3/10"):
        ell = Fraction(s)
        f = porism_f(0.8, float(ell))
        P = confocal_pair(0.8, f.e)
        for j in range(16):
            orb = polygon(P, (0.0, 1.0), covering(P, (j + 0.3) / 16.0))
            assert orb.steps == ell.denominator
            assert orb.winding == ell.numerator
            assert orb.closure_residual < 1e-7
    for name in ("1/3", "1/4", "1/5", "2/5", "1/6"):
        ell = float(Fraction(name))
        for e in (0.6, 0.85):
            f = porism_f(e, ell)
            assert abs(confocal_poristic_residual(e, f, name)) < 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_duality_and_monotonicity():
    t0 = time.perf_counter()
    P = diag_pencil()
    rng = np.random.default_rng(17)
    nus = [(float(rng.uniform(-LAM[2] + 1e-3, 3.0)), 1.0) for _ in range(100)]
    for nu in nus:
        total = rho_of_nu(P, nu) + rho_of_nu(P, dual(P, nu))
        assert total == pytest.approx(0.5, abs=1e-10)
    for i in range(0, 100, 2):
        nu, mu = nus[i], nus[i + 1]
        cross = nu[0] * mu[1] - nu[1] * mu[0]
        drho = rho_of_nu(P, mu) - rho_of_nu(P, nu)
        assert math.copysign(1.0, cross) == math.copysign(1.0, drho)
    # projectively equal parameters classify as the same member
    nu = (0.1, 1.0)
    for mu in ((0.3, 3.0), (0.05, 0.5), (0.3 + 1e-13, 3.0)):
        assert abs(nu[0] * mu[1] - nu[1] * mu[0]) < 1e-12
        assert abs(nesting_order(P, nu, mu)) < 1e-12
        assert rho_of_nu(P, mu) == pytest.approx(rho_of_nu(P, nu), abs=1e-10)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_cayley_classification():
    t0 = time.perf_counter()
    P = diag_pencil()
    for N in range(3, 11):
        for k in range(1, N):
            if math.gcd(k, N) != 1 or 2 * k >= N:
                continue
            Pon = build_pencil(P.C1, member(P, invert_rho(P, k / N)))
            off = k / N + (0.017 if k / N + 0.017 < 0.49 else -0.017)
            Poff = build_pencil(P.C1, member(P, invert_rho(P, off)))
            assert abs(cayley_condition(Pon, N)) < 1e-8
            assert abs(cayley_condition(Poff, N)) > 1e-4
    # Cay_3, the cubic discriminant pairing and the spectrum condition agree
    rng = np.random.default_rng(7)
    for trial in range(50):
        l1 = float(rng.uniform(0.5, 3.0))
        l2 = float(rng.uniform(0.25, 0.9)) * l1
        if trial % 2 == 0:
            l3 = 1.0 / (1.0 / math.sqrt(l1) + 1.0 / math.sqrt(l2)) ** 2
        else:
            l3 = float(rng.uniform(0.15, 0.8)) * l2
            if abs(lambda_porism(l1, l2, l3, "1/3")) < 1e-3:
                continue
        Ps = spectrum_pencil((l1, l2, l3))
        _, b1, b2, b3 = pencil_cubic(Ps.C1.matrix, Ps.C2.matrix)
        small_cay = abs(cayley_condition(Ps, 3)) < 1e-8
        small_disc = abs(b2 * b2 - 4.0 * b1 * b3) < 1e-6
        small_lam = abs(lambda_porism(l1, l2, l3, "1/3")) < 1e-6
        assert small_cay == small_disc == small_lam == (trial % 2 == 0)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_composed_schedules():
    t0 = time.perf_counter()
    P = diag_pencil()
    n1, n2 = invert_rho(P, 0.2), invert_rho(P, 0.3)
    schedule = [(n1, 1), (n2, -1), (n1, 1), (n1, 1), (n2, -1)]
    for j in range(8):
        orb = run_composition(P, schedule, covering(P, (j + 0.45) / 8.0))
        assert orb.steps == 5 and orb.winding == 0
        assert orb.closure_residual < 1e-7
    # rotation numbers 3x^3, 2x^2, x at the root of 21x^3+14x^2+7x-8 sum to 8/7
    x = 0.45312020569808
    for _ in range(4):
        x -= (21 * x**3 + 14 * x**2 + 7 * x - 8) / (63 * x**2 + 28 * x + 7)
    ells = (3 * x**3, 2 * x**2, x)
    assert sum(ells) == pytest.approx(8.0 / 7.0, abs=1e-14)
    nus = [invert_rho(P, l) for l in ells]
    triple = [(nu, 1) for nu in nus] * 7
    for j in range(8):
        orb = run_composition(P, triple, covering(P, (j + 0.2) / 8.0))
        assert orb.steps == 21 and orb.winding == 8
        assert orb.closure_residual < 1e-6
    # alternating any two of the three maps must stay open
    for i, j in ((0, 1), (0, 2), (1, 2)):
        z0 = covering(P, 0.11)
        w0 = to_chart(P, z0)
        z = z0
        for step in range(1, 10001):
            z = poncelet_step(P, nus[i] if step % 2 else nus[j], z)
            assert float(np.hypot(*(to_chart(P, z) - w0))) > 1e-7
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_bicentric_formulas():
    t0 = time.perf_counter()
    assert bicentric_check(1.0, 0.5, 0.0, "triangle") == 0.0
    # fl(1/sqrt(2))^2 lands one ulp above 0.5, so allow that much
    fuss_r = 1.0 / math.sqrt(2.0)
    assert bicentric_check(1.0, fuss_r, 0.0, "quadrilateral") == pytest.approx(0.0, abs=5e-16)
    R, r = 1.0, 0.32
    a = math.sqrt(R * (R - 2.0 * r))
    assert abs(bicentric_check(R, r, a, "triangle")) < 1e-12
    assert bicentric_rho(R, r, a) == pytest.approx(1.0 / 3.0, abs=1e-10)
    a2 = 0.21
    r2 = 1.0 / math.sqrt(1.0 / (R - a2) ** 2 + 1.0 / (R + a2) ** 2)
    assert abs(bicentric_check(R, r2, a2, "quadrilateral")) < 1e-12
    assert bicentric_rho(R, r2, a2) == pytest.approx(0.25, abs=1e-10)
    lam = bicentric_spectrum(1.0, 0.3, 0.2)
    assert lam[0] == 1.0
    assert lam[1] == pytest.approx(0.9558421984903522, rel=1e-12)
    assert lam[2] == pytest.approx(0.09415780150964784, rel=1e-12)
    assert lam[1] * lam[2] == pytest.approx(0.09, rel=1e-12)
    assert bicentric_check(1.0, 0.3, 0.2, "triangle") == pytest.approx(-1.25, rel=1e-12)
    assert bicentric_check(1.0, 0.3, 0.2, "quadrilateral") == pytest.approx(
        -8.854166666666666, rel=1e-12
    )
    assert bicentric_spectrum(1.0, 0.5, 0.0) == (1.0, 1.0, 0.25)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_09_elliptic_identities():
    # the identities and tolerances live in `poncelet verify --suite elliptic`
    t0 = time.perf_counter()
    report = run_suite("elliptic")
    assert report["checks"]
    for c in report["checks"]:
        assert c["pass"], f"{c['name']}: residual {c['residual']!r} against tol {c['tol']!r}"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_10_singular_limits():
    t0 = time.perf_counter()
    # frozen reference for the near-circular boundary limit at f = 0.5
    rho_lim = rotation_confocal(0.999999, 0.5)
    assert rho_lim == pytest.approx(0.465441450122, abs=1e-9)
    # the gap to 1/2 stays inside the elliptic-integral bound
    e = 0.999999
    omega = math.asin(math.sqrt((e * e - 0.25) / (e * e * 0.75)))
    bound = (math.pi / 2.0 - omega) / (2.0 * ellint_K(e) * math.sqrt(1.0 - e * e))
    assert abs(0.5 - rho_lim) <= bound
    seq = [rotation_confocal(ee, 0.5) for ee in (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    for ell in (1.0 / 3.0, 0.1):
        gaps = [ee - porism_f(ee, ell).e for ee in (0.9, 0.99, 0.999, 0.9999)]
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
    # caustic approaching the boundary drives the rotation number to zero
    assert rotation_confocal(0.5, 0.5 - 1e-6) < 0.01
    assert time.perf_counter() - t0 < 1.0
