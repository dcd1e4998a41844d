"""End-to-end acceptance criteria, one test per criterion.

Identities that `poncelet verify` also checks are stated once, in the
suites of poncelet.verify, with their inputs and tolerances; a criterion
asserts its suite through assert_suite. What stays here needs a test-only
oracle or is too slow for every `verify` run, and states its tolerance
inline. Each criterion enforces a wall-clock budget. conftest.py turns the
outcomes into a PASS/FAIL table after the run.
"""

import inspect
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from poncelet import (
    SymmetricConic,
    build_pencil,
    cayley_condition,
    confocal_ellipse,
    covering,
    ellint_K,
    f_of_nu,
    invert_rho,
    lambda_porism,
    polygon,
    poncelet_step,
    porism_f,
    rotation_confocal,
    rotation_estimate,
    standard_map,
    unit_circle,
)
from oracles import billiard_map, boundary_point, caustic_state, geometric_step, pencil_cubic
from poncelet.maps import from_chart, to_chart
from poncelet.verify import SUITES, cubic_field_rhos, fig3_pencil, run_suite


def assert_suite(name):
    """Every check of `poncelet verify --suite name` passes."""
    report = run_suite(name)
    assert report["suite"] == name and report["checks"]
    for c in report["checks"]:
        assert c["pass"], (
            f"{c['name']}: residual {c['residual']!r} against {c['bound']} tol {c['tol']!r}"
        )


def confocal_pair(e, f):
    """The confocal pencil with boundary E(f) and caustic E(e), f < e."""
    return build_pencil(confocal_ellipse(f), confocal_ellipse(e))


def spectrum_pencil(lam):
    l1, l2, l3 = lam
    return build_pencil(unit_circle(), SymmetricConic(l1, 0.0, 0.0, l2, 0.0, -l3))


def test_criterion_01_caption_rotation_numbers():
    t0 = time.perf_counter()
    assert_suite("confocal")
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_pencil_fixture_and_conjugacy():
    t0 = time.perf_counter()
    assert_suite("pencil")
    P = fig3_pencil()
    e, f = P.e.e, f_of_nu(P, (0.0, 1.0))
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
    assert_suite("confocal")
    # the 128 closures stay here: in the suite they would add about a fifth
    # to every `verify --suite all` run
    for s in ("1/3", "1/4", "1/5", "2/7", "2/5", "1/6", "1/10", "3/10"):
        ell = Fraction(s)
        f = porism_f(0.8, float(ell))
        P = confocal_pair(0.8, f.e)
        for j in range(16):
            orb = polygon(P, (0.0, 1.0), covering(P, (j + 0.3) / 16.0))
            assert orb.steps == ell.denominator
            assert orb.winding == ell.numerator
            assert orb.closure_residual < 1e-7
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_duality_and_monotonicity():
    t0 = time.perf_counter()
    assert_suite("pencil")
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_cayley_classification():
    t0 = time.perf_counter()
    assert_suite("cayley")
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
    assert_suite("composition")
    # alternating any two of the three maps must stay open: 30,000 steps,
    # about ten `verify --suite all` runs
    P = fig3_pencil()
    nus = [invert_rho(P, l) for l in cubic_field_rhos()]
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
    assert_suite("cayley")
    assert time.perf_counter() - t0 < 1.0


def test_criterion_09_elliptic_identities():
    t0 = time.perf_counter()
    assert_suite("elliptic")
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


def test_check_registry_invariants():
    # check names are unique, every suite is asserted by some criterion, and
    # the whole registry stays cheap enough for every `poncelet verify` run
    t0 = time.perf_counter()
    report = run_suite("all")
    elapsed = time.perf_counter() - t0
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    asserted = set()
    for name, fn in list(globals().items()):
        if name.startswith("test_criterion_"):
            asserted.update(re.findall(r'assert_suite\("(\w+)"\)', inspect.getsource(fn)))
    assert asserted == set(SUITES) - {"all"}
    assert elapsed < 0.25
