"""Poncelet stepping, rotation numbers, compositions, closure."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    PointClass,
    adjugate,
    apply_homography,
    classify_point,
    geometric_step,
    homography_rounding_scale,
    spectral_gap,
    winding_rotation,
)
from poncelet.conics import SymmetricConic, confocal_ellipse
from poncelet.errors import (
    HomographySingularity,
    InvalidParameter,
    InvalidRotation,
    OffCircle,
    OffOuterConic,
)
from poncelet.maps import (
    _coefficients,
    _require_on_outer,
    _step,
    _winding,
    covering,
    estimate_rotation,
    from_chart,
    invert_rho,
    polygon,
    poncelet_step,
    rho_of_nu,
    run_composition,
    standard_map,
    symmetry_flow,
    to_chart,
)
from poncelet.pencil import (
    build_pencil,
    dual,
    f_of_nu,
    member,
    nesting_order,
)
from test_pencil import diag_pencil, nested_pairs, random_nested_pair

LAM = (0.2, 0.125, 1.0 / 9.0)


def on_circle(rng):
    t = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(t), math.sin(t)])


def test_standard_map_degenerate_members():
    rng = np.random.default_rng(2)
    for _ in range(8):
        p = on_circle(rng)
        e = rng.uniform(0.2, 0.95)
        assert standard_map(e, 0.0, p) == pytest.approx(-p, abs=1e-14)
        assert standard_map(e, e, p) == pytest.approx(p, abs=1e-14)


def test_standard_map_guards():
    with pytest.raises(InvalidParameter):
        standard_map(0.5, 0.6, (1.0, 0.0))
    with pytest.raises(InvalidParameter):
        standard_map(1.0, 0.5, (1.0, 0.0))
    with pytest.raises(OffCircle):
        standard_map(0.8, 0.5, (1.0, 0.1))


def test_standard_map_rejects_non_finite_points():
    for p in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)):
        with pytest.raises(InvalidParameter):
            standard_map(0.5, 0.2, p)


def test_standard_map_quarter_porism():
    # (e, f) = (0.8, sqrt(0.4)) has rotation number exactly 1/4
    e, f = 0.8, math.sqrt(0.4)
    p = np.array([1.0, 0.0])
    expected = [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
    for q in expected:
        p = standard_map(e, f, p)
        assert p == pytest.approx(q, abs=1e-9)


def test_standard_map_stays_on_circle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        e = rng.uniform(0.15, 0.97)
        f = rng.uniform(0.0, e)
        p = standard_map(e, f, on_circle(rng))
        assert p[0] ** 2 + p[1] ** 2 == pytest.approx(1.0, abs=1e-12)


def confocal_pair_pencil(e=0.8, f=math.sqrt(0.4)):
    return build_pencil(confocal_ellipse(f), confocal_ellipse(e))


def test_step_square_orbit_orientation():
    # sides x = +-1.25, y = -+0.75 tangent to E(0.8); the positive step from
    # (1.25, -0.75) runs up the right side (inner conic on the left), the
    # printed reverse image (-1.25, -0.75) belongs to the inverse step
    P = confocal_pair_pencil()
    z = np.array([1.25, -0.75])
    assert poncelet_step(P, (0, 1), z) == pytest.approx((1.25, 0.75), abs=1e-9)
    assert poncelet_step(P, (0, 1), z, inverse=True) == pytest.approx(
        (-1.25, -0.75), abs=1e-9
    )
    for _ in range(4):
        z = poncelet_step(P, (0, 1), z)
    assert z == pytest.approx((1.25, -0.75), abs=1e-9)


def test_step_inverse_roundtrip():
    P = diag_pencil()
    rng = np.random.default_rng(9)
    for _ in range(20):
        nu = invert_rho(P, rng.uniform(0.02, 0.48))
        z = covering(P, rng.uniform(0.0, 1.0))
        z1 = poncelet_step(P, nu, z)
        assert poncelet_step(P, nu, z1, inverse=True) == pytest.approx(z, abs=1e-9)


def test_step_limit_ray_half_turn():
    P = diag_pencil()
    nu_lim = (-LAM[2], 1.0)
    z = covering(P, 0.4)
    z1 = poncelet_step(P, nu_lim, z)
    assert z1 == pytest.approx(from_chart(P, -to_chart(P, z)), abs=1e-12)
    assert poncelet_step(P, nu_lim, z1) == pytest.approx(z, abs=1e-12)
    assert rho_of_nu(P, nu_lim) == 0.5


def test_step_guards():
    P = diag_pencil()
    with pytest.raises(OffOuterConic):
        poncelet_step(P, (0, 1), (0.5, 0.5))
    with pytest.raises(InvalidParameter):
        poncelet_step(P, (1, 0), covering(P, 0.1))
    with pytest.raises(InvalidParameter):
        poncelet_step(P, (0, 1), (math.nan, 0.0))


def test_step_matches_standard_map_conjugacy():
    # tangent-line stepping (the oracle) == M(P_e^f(M^-1 z)) through the
    # standardized chart
    rng = np.random.default_rng(23)
    pencils = [diag_pencil(), confocal_pair_pencil()]
    for _ in range(6):
        C1, C2, _ = random_nested_pair(rng)
        pencils.append(build_pencil(C1, C2))
    worst = 0.0
    for P in pencils:
        for _ in range(8):
            nu = invert_rho(P, rng.uniform(0.03, 0.47))
            z = covering(P, rng.uniform(0.0, 1.0))
            z_geo = geometric_step(P.C1.matrix, member(P, nu).matrix, z)
            z_std = from_chart(P, standard_map(P.e, f_of_nu(P, nu), to_chart(P, z)))
            worst = max(worst, float(np.linalg.norm(z_geo - z_std)))
            worst = max(worst, float(np.linalg.norm(z_geo - poncelet_step(P, nu, z))))
    assert worst < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ell=st.floats(0.02, 0.48),
    theta=st.floats(0.0, 1.0),
)
def test_kernel_matches_tangent_line_oracle(seed, ell, theta):
    # every vertex of a chart-iterated orbit is the oracle's tangent-line
    # step of the previous one, both ways round, and sits on C1
    C1, C2, _ = random_nested_pair(np.random.default_rng(seed))
    P = build_pencil(C1, C2)
    nu = invert_rho(P, ell)
    C = member(P, nu).matrix
    orb = polygon(P, nu, covering(P, theta), max_steps=25)
    pts = [np.array(p) for p in orb.points]
    for z, z1 in zip(pts, pts[1:]):
        assert np.linalg.norm(z1 - geometric_step(C1.matrix, C, z)) < 1e-8
        assert classify_point(C1.matrix, z1) is PointClass.ON
        back = poncelet_step(P, nu, z1, inverse=True)
        assert np.linalg.norm(back - geometric_step(C1.matrix, C, z1, inverse=True)) < 1e-8


def test_kernel_does_not_drift_off_circle():
    # without renormalisation the iterate collapses onto the origin within
    # 100 steps and the public map raises OffCircle by step 30
    e, f = 0.9, 0.5
    c = _coefficients(e, f)
    X, Y = 1.0, 0.0
    worst = 0.0
    for _ in range(100_000):
        X, Y = _step(c, X, Y)
        worst = max(worst, abs(X * X + Y * Y - 1.0))
    assert worst < 1e-12
    p = np.array([1.0, 0.0])
    for _ in range(10_000):
        p = standard_map(e, f, p)


MATH_PRIMITIVES = (math.sqrt, max, math.hypot)
NUMPY_PRIMITIVES = (np.sqrt, np.maximum, np.hypot)


def unexpanded_step(e, f, X, Y, inverse=False, primitives=NUMPY_PRIMITIVES):
    """The chord step with a1..a4 written out and multiplied in place."""
    sqrt, maximum, hypot = primitives
    e2, f2 = e * e, f * f
    a1 = 2.0 * f * sqrt((1.0 - f2) * (e2 - f2))
    if inverse:
        a1 = -a1
    a2, a3, a4 = e2 - f2 * f2, e2 + f2 * f2 - 2.0 * f2, e2 * (1.0 - 2.0 * f2) + f2 * f2
    root = sqrt(maximum(1.0 - e2 * Y * Y, 0.0))
    X1 = -(a1 * a4 * Y * root + a2 * a3 * X)
    Y1 = a1 * a2 * X * root - a3 * a4 * Y
    n = hypot(X1, Y1)
    return X1 / n, Y1 / n


def test_step_products_match_unexpanded_kernel():
    # _coefficients hands _step the products a1 a4, a2 a3, a1 a2, a3 a4, and
    # Python multiplies left to right, so orbits are bit-identical to the
    # unexpanded expression on the same primitives: numpy's on arrays,
    # math's on floats. The two differ only in hypot, which numpy does not
    # round correctly: a 1-ulp error in the norm n moves X1 / n by less than
    # 2 ulps of the quotient when n's mantissa is near 1 and the quotient's
    # near 2, so one step of either agrees within 2 ulps per coordinate.
    rng = np.random.default_rng(13)
    e = rng.uniform(0.05, 0.999, 400)
    f = rng.uniform(0.0, 1.0, 400) * e
    t = rng.uniform(0.0, 2.0 * math.pi, 400)
    for inverse in (False, True):
        c = _coefficients(e, f, inverse)
        X, Y = Xr, Yr = np.cos(t), np.sin(t)
        for _ in range(50):
            X, Y = _step(c, X, Y)
            Xr, Yr = unexpanded_step(e, f, Xr, Yr, inverse)
            assert np.array_equal(X, Xr) and np.array_equal(Y, Yr)
        for k in range(20):
            ek, fk = float(e[k]), float(f[k])
            ck = _coefficients(ek, fk, inverse)
            c1 = _coefficients(e[k : k + 1], f[k : k + 1], inverse)
            x, y = math.cos(t[k]), math.sin(t[k])
            for _ in range(50):
                ref = unexpanded_step(ek, fk, x, y, inverse, MATH_PRIMITIVES)
                one = _step(c1, np.array([x]), np.array([y]))
                x, y = _step(ck, x, y)
                assert (x, y) == ref
                for got, arr in zip((x, y), one):
                    assert abs(got - float(arr[0])) <= 2.0 * math.ulp(got)


def test_float_input_gives_python_floats():
    # np.float64 subclasses float, so it takes the math primitives too
    c = _coefficients(np.float64(0.8), 0.5)
    assert all(type(v) is float for v in c[:5])
    assert all(type(v) is float for v in _step(c, 0.6, 0.8))
    P = diag_pencil()
    z = covering(P, 0.3)
    orbits = (
        polygon(P, invert_rho(P, 0.2), z),
        run_composition(P, [(invert_rho(P, 0.2), 2), (invert_rho(P, 0.3), -1)], z),
    )
    for orb in orbits:
        assert all(type(v) is float for pt in orb.points for v in pt)


def kernel_angles(c, X, Y, steps):
    """arctan2 angles of the start and of `steps` kernel iterates."""
    phis = [np.arctan2(Y, X)]
    for _ in range(steps):
        X, Y = _step(c, X, Y)
        phis.append(np.arctan2(Y, X))
    return phis


def test_winding_matches_angle_sum_of_the_same_iterates():
    # the crossing count plus the net angle equals the sum of arctan2 turns,
    # on arrays and on floats, from next to the limiting ray (f = 1e-12 e)
    # to next to the outer conic (f = e)
    n = 400
    ratios = np.array([1e-12, 1e-6, 0.01, 0.3, 0.7, 0.99, 1.0 - 1e-9])
    rng = np.random.default_rng(29)
    e = rng.uniform(0.05, 0.999, (len(ratios), 6))
    f = ratios[:, None] * e
    t = rng.uniform(0.0, 2.0 * math.pi, e.shape)
    c = _coefficients(e, f)
    got = _winding(c, np.cos(t), np.sin(t), n)
    ref = winding_rotation(kernel_angles(c, np.cos(t), np.sin(t), n), n)
    assert np.max(np.abs(got - ref)) < 1e-13
    for ek, fk, tk in zip(e.ravel().tolist(), f.ravel().tolist(), t.ravel().tolist()):
        ck = _coefficients(ek, fk)
        got = _winding(ck, math.cos(tk), math.sin(tk), n)
        assert got == pytest.approx(
            winding_rotation(kernel_angles(ck, math.cos(tk), math.sin(tk), n), n), abs=1e-13
        )


def test_winding_on_the_limiting_ray_is_one_half():
    # f = 0 is the antipodal map: every step turns by exactly pi
    rng = np.random.default_rng(31)
    e = rng.uniform(0.05, 0.999, 8)
    t = rng.uniform(0.0, 2.0 * math.pi, 8)
    c = _coefficients(e, np.zeros(8))
    for n in (100, 101):
        assert np.all(_winding(c, np.cos(t), np.sin(t), n) == 0.5)
        ref = winding_rotation(kernel_angles(c, np.cos(t), np.sin(t), n), n)
        assert np.max(np.abs(ref - 0.5)) < 1e-13
        for ek, tk in zip(e.tolist(), t.tolist()):
            assert _winding(_coefficients(ek, 0.0), math.cos(tk), math.sin(tk), n) == 0.5


def chart_test_pencils(rng, n):
    return [diag_pencil(), confocal_pair_pencil()] + [
        build_pencil(*random_nested_pair(rng)[:2]) for _ in range(n)
    ]


def test_chart_maps_match_apply_homography():
    # the float chart maps round differently from numpy's product; they
    # agree within 1e-15 of the homography's rounding scale, and exactly on
    # the two fixture pencils
    rng = np.random.default_rng(19)
    worst = 0.0
    for k, P in enumerate(chart_test_pencils(rng, 10)):
        ws = rng.uniform(-1.5, 1.5, size=(50, 2))
        zs = np.array([apply_homography(P.M, w) for w in ws])
        for H, chart_map, pts in ((P.M, from_chart, ws), (P.Minv, to_chart, zs)):
            for p, scale in zip(pts, homography_rounding_scale(H, pts)):
                got, ref = chart_map(P, p), apply_homography(H, p)
                assert type(got) is np.ndarray and got.shape == (2,)
                if k < 2:
                    assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
                worst = max(worst, float(np.linalg.norm(got - ref)) / scale)
    assert worst < 1e-15


def test_chart_maps_raise_where_apply_homography_does():
    rng = np.random.default_rng(23)
    for P in chart_test_pencils(rng, 10)[2:]:
        for H, chart_map in ((P.M, from_chart), (P.Minv, to_chart)):
            h31, h32, h33 = H[2]
            for x in (-2.0, 0.3, 5.0):
                # on the line that H sends to infinity, then moved off it
                # until the denominator is s |H| |u|, either side of 1e-13
                y = -(h33 + h31 * x) / h32
                size = np.linalg.norm(H) * math.sqrt(x * x + y * y + 1.0) / h32
                for s in (0.0, 1e-14):
                    with pytest.raises(HomographySingularity):
                        apply_homography(H, (x, y + s * size))
                    with pytest.raises(HomographySingularity):
                        chart_map(P, (x, y + s * size))
                for s in (1e-12, 0.1):
                    q = (x, y + s * size)
                    err = np.linalg.norm(chart_map(P, q) - apply_homography(H, q))
                    assert err <= 1e-15 * homography_rounding_scale(H, [q])[0]


ON_OUTER_CALLS = {
    "poncelet_step": lambda P, nu, z: poncelet_step(P, nu, z),
    "polygon": lambda P, nu, z: polygon(P, nu, z, max_steps=3),
    "run_composition": lambda P, nu, z: run_composition(P, [(nu, 2), (nu, -1)], z),
    "symmetry_flow": lambda P, nu, z: symmetry_flow(P, 0.1, z),
}


@pytest.mark.parametrize("name", sorted(ON_OUTER_CALLS))
def test_float_chart_path_guards(name):
    call = ON_OUTER_CALLS[name]
    for P in chart_test_pencils(np.random.default_rng(3), 2):
        nu, z = invert_rho(P, 0.3), covering(P, 0.2)
        call(P, nu, z)
        X, Y = to_chart(P, z)
        for r in (0.5, 1.0 + 1e-6, 1.5):
            with pytest.raises(OffOuterConic):
                call(P, nu, from_chart(P, (r * X, r * Y)))
        for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)):
            with pytest.raises(InvalidParameter):
                call(P, nu, bad)
        if name != "symmetry_flow":
            for outer in ((1.0, 0.0), (2.5, 0.0)):
                with pytest.raises(InvalidParameter):
                    call(P, outer, z)


def test_on_outer_tolerance_matches_matrix_form():
    # the expanded form accepts the points the matrix form u^T C1 u accepts,
    # with the same tolerance relative to |C1| |u|^2
    rng = np.random.default_rng(29)
    for P in chart_test_pencils(rng, 6):
        scale = np.linalg.norm(P.C1.matrix)
        for _ in range(10):
            X, Y = to_chart(P, covering(P, rng.uniform()))
            for k in range(4, 15):
                for r in (1.0 - 10.0**-k, 1.0 + 10.0**-k):
                    z = from_chart(P, (r * X, r * Y))
                    u = np.array([z[0], z[1], 1.0])
                    accepted = abs(u @ P.C1.matrix @ u) <= 1e-9 * scale * (u @ u)
                    try:
                        assert _require_on_outer(P, z) == (z[0], z[1])
                        assert accepted
                    except OffOuterConic:
                        assert not accepted


def test_covering_basics():
    P = diag_pencil()  # M is the identity here
    assert covering(P, 0.0) == pytest.approx((1.0, 0.0), abs=1e-15)
    for th in (-0.7, 0.13, 0.37, 2.2):
        assert covering(P, th + 1.0) == pytest.approx(covering(P, th), abs=1e-11)


def test_covering_conjugacy_random_triples():
    # rigid-rotation path vs geometric path at 100 (pencil, nu, theta) triples
    rng = np.random.default_rng(31)
    pencils = [diag_pencil(), confocal_pair_pencil()]
    for _ in range(8):
        C1, C2, _ = random_nested_pair(rng)
        pencils.append(build_pencil(C1, C2))
    worst = 0.0
    for k in range(100):
        P = pencils[k % len(pencils)]
        nu = invert_rho(P, rng.uniform(0.03, 0.47))
        th = rng.uniform(-1.0, 2.0)
        z1 = poncelet_step(P, nu, covering(P, th))
        z2 = covering(P, th + rho_of_nu(P, nu))
        worst = max(worst, float(np.linalg.norm(z1 - z2)))
    assert worst < 1e-8


def test_rho_endpoints_and_fixture():
    P = diag_pencil()
    assert rho_of_nu(P, (1, 0)) == 0.0
    assert rho_of_nu(P, (-LAM[2], 1)) == 0.5
    assert f_of_nu(P, (0, 1)) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-13)
    # the (0,1) member closes as a hexagon: rho is exactly 1/6
    assert rho_of_nu(P, (0, 1)) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_rho_ray_invariance():
    P = diag_pencil()
    rng = np.random.default_rng(41)
    for _ in range(20):
        nu = invert_rho(P, rng.uniform(0.02, 0.48))
        c = rng.uniform(0.1, 50.0)
        assert rho_of_nu(P, (c * nu.nu1, c * nu.nu2)) == pytest.approx(
            rho_of_nu(P, nu), abs=1e-13
        )


def test_rho_quarter_parameter():
    P = diag_pencil()
    nu_star = (math.sqrt((LAM[0] - LAM[2]) * (LAM[1] - LAM[2])) - LAM[2], 1.0)
    assert rho_of_nu(P, nu_star) == pytest.approx(0.25, abs=1e-11)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=nested_pairs, q=st.floats(0.01, 0.99), r=st.floats(0.01, 0.99))
def test_duality_and_nesting_over_random_pencils(pair, q, r):
    # criterion 5 on random pencils: nu and mu sit at fractions q and r of
    # the valid cone's angle, from the outer conic to the limiting ray
    C1, C2 = pair
    assume(spectral_gap(C1, C2) > 1e-6 and abs(q - r) > 1e-3)
    P = build_pencil(SymmetricConic.from_matrix(C1), SymmetricConic.from_matrix(C2))
    top = math.atan2(1.0, -P.lam[2])
    nu, mu = ((math.cos(t * top), math.sin(t * top)) for t in (q, r))
    assert rho_of_nu(P, nu) + rho_of_nu(P, dual(P, nu)) == pytest.approx(0.5, abs=1e-10)
    drho = rho_of_nu(P, mu) - rho_of_nu(P, nu)
    assert math.copysign(1.0, nesting_order(P, nu, mu)) == math.copysign(1.0, drho)


def test_invert_rho_contract():
    P = diag_pencil()
    for ell in np.linspace(0.01, 0.49, 25):
        nu = invert_rho(P, float(ell))
        assert nu.nu1 + LAM[0] * nu.nu2 == pytest.approx(LAM[0] - LAM[2], abs=1e-12)
        assert rho_of_nu(P, nu) == pytest.approx(float(ell), abs=1e-11)


def test_invert_rho_endpoints_and_quarter():
    P = diag_pencil()
    nu = invert_rho(P, 1e-9)
    assert nu.nu2 / nu.nu1 == pytest.approx(0.0, abs=1e-8)
    nu = invert_rho(P, 0.25)
    ref = math.sqrt(1.0 / 810.0) - 1.0 / 9.0
    assert nu.nu1 / nu.nu2 == pytest.approx(ref, abs=1e-9)
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(InvalidRotation):
            invert_rho(P, bad)


def test_invert_rho_duality():
    P = diag_pencil()
    for ell in (0.05, 0.11, 0.2, 0.31, 0.45):
        a = dual(P, invert_rho(P, ell))
        b = invert_rho(P, 0.5 - ell)
        cross = a.nu1 * b.nu2 - a.nu2 * b.nu1
        scale = math.hypot(a.nu1, a.nu2) * math.hypot(b.nu1, b.nu2)
        assert abs(cross) / scale < 1e-10


def test_rho_duality_sum():
    rng = np.random.default_rng(47)
    pencils = [diag_pencil()]
    for _ in range(4):
        C1, C2, _ = random_nested_pair(rng)
        pencils.append(build_pencil(C1, C2))
    for P in pencils:
        for _ in range(10):
            nu = invert_rho(P, rng.uniform(0.02, 0.48))
            s = rho_of_nu(P, nu) + rho_of_nu(P, dual(P, nu))
            assert s == pytest.approx(0.5, abs=1e-10)


def test_symmetry_flow_group_laws():
    P = diag_pencil()
    z = covering(P, 0.11)
    assert symmetry_flow(P, 0.0, z) == pytest.approx(z, abs=1e-12)
    assert symmetry_flow(P, 1.0, z) == pytest.approx(z, abs=1e-11)
    a = symmetry_flow(P, 0.2, symmetry_flow(P, 0.35, z))
    b = symmetry_flow(P, 0.55, z)
    assert a == pytest.approx(b, abs=1e-11)


def test_symmetry_flow_equivariance():
    rng = np.random.default_rng(53)
    pencils = [diag_pencil(), confocal_pair_pencil()]
    worst = 0.0
    for P in pencils:
        for _ in range(15):
            nu = invert_rho(P, rng.uniform(0.03, 0.47))
            t = rng.uniform(-1.0, 1.0)
            z = covering(P, rng.uniform(0.0, 1.0))
            a = poncelet_step(P, nu, symmetry_flow(P, t, z))
            b = symmetry_flow(P, t, poncelet_step(P, nu, z))
            worst = max(worst, float(np.linalg.norm(a - b)))
    assert worst < 1e-8


def test_symmetry_flow_translates_closed_orbits():
    P = diag_pencil()
    nu = invert_rho(P, 0.2)
    orb = polygon(P, nu, covering(P, 0.05))
    assert orb.steps == 5 and orb.closed
    for t in (0.25, 0.75):
        z0 = symmetry_flow(P, t, np.array(orb.points[0]))
        shifted = polygon(P, nu, z0)
        assert shifted.steps == 5
        assert shifted.closure_residual < 1e-7


def test_commutativity_and_monotonicity():
    P = diag_pencil()
    rng = np.random.default_rng(11)
    for _ in range(40):
        nu = invert_rho(P, rng.uniform(0.03, 0.47))
        mu = invert_rho(P, rng.uniform(0.03, 0.47))
        z = covering(P, rng.uniform(0.0, 1.0))
        a = poncelet_step(P, nu, poncelet_step(P, mu, z))
        b = poncelet_step(P, mu, poncelet_step(P, nu, z))
        assert np.linalg.norm(a - b) < 1e-8
        gap = rho_of_nu(P, mu) - rho_of_nu(P, nu)
        order = nesting_order(P, nu, mu)
        if abs(gap) > 1e-12:
            assert math.copysign(1.0, order) == math.copysign(1.0, gap)


def test_polygon_quadrilateral():
    P = diag_pencil()
    nu = invert_rho(P, 0.25)
    for th in (0.0, 0.17, 0.52, 0.9):
        orb = polygon(P, nu, covering(P, th))
        assert orb.steps == 4
        assert orb.winding == 1
        assert orb.closure_residual < 1e-8
        assert orb.closed


def test_polygon_heptagon_winding_two():
    P = diag_pencil()
    orb = polygon(P, invert_rho(P, 2.0 / 7.0), covering(P, 0.11))
    assert orb.steps == 7
    assert orb.winding == 2
    assert orb.closure_residual < 1e-7


def test_polygon_open_orbit():
    P = diag_pencil()
    orb = polygon(P, (0.05, 1.0), covering(P, 0.07), max_steps=700)
    assert orb.steps == 700
    assert not orb.closed


def test_polygon_porism_universality():
    P = diag_pencil()
    nu = invert_rho(P, 0.2)
    for th in np.linspace(0.0, 0.95, 16):
        orb = polygon(P, nu, covering(P, float(th)))
        assert orb.closure_residual < 1e-7
        assert orb.steps == 5


def test_polygon_sides_tangent_to_member():
    # each directed side must touch the declared inner conic: the side's
    # line lies on the dual conic, and the step is counterclockwise in chart
    P = diag_pencil()
    nu = invert_rho(P, 0.25)
    C = member(P, nu)
    A = adjugate(C.matrix)
    orb = polygon(P, nu, covering(P, 0.29))
    pts = [np.array([x, y, 1.0]) for x, y in orb.points]
    for u, v in zip(pts[:-1], pts[1:]):
        line = np.cross(u, v)
        res = abs(line @ A @ line) / (np.linalg.norm(A) * line @ line)
        assert res < 1e-12
        w1, w2 = to_chart(P, u[:2]), to_chart(P, v[:2])
        assert w1[0] * w2[1] - w1[1] * w2[0] > 0.0


def test_polygon_json_shape():
    P = diag_pencil()
    orb = polygon(P, invert_rho(P, 0.25), covering(P, 0.4))
    d = orb.to_json_dict()
    assert sorted(d) == ["closure_residual", "points", "rho", "steps", "winding"]
    assert len(d["points"]) == d["steps"] + 1
    assert d["winding"] == 1 and d["steps"] == 4
    assert isinstance(d["points"][0][0], float)


def test_composition_five_step_schedule():
    P = diag_pencil()
    n1, n2 = invert_rho(P, 0.2), invert_rho(P, 0.3)
    schedule = [(n1, 1), (n2, -1), (n1, 1), (n1, 1), (n2, -1)]
    rng = np.random.default_rng(61)
    for th in rng.uniform(0.0, 1.0, 8):
        orb = run_composition(P, schedule, covering(P, float(th)))
        assert orb.steps == 5
        assert orb.winding == 0
        assert abs(orb.rho) < 1e-10
        assert orb.closure_residual < 1e-7


def test_composition_cubic_field_schedule():
    # rotation numbers 3x^3, 2x^2, x at the real root of 21x^3+14x^2+7x-8
    # sum to 8/7, so seven triples close up with winding 8
    x = 0.45312020569808
    for _ in range(4):
        x -= (21 * x**3 + 14 * x**2 + 7 * x - 8) / (63 * x**2 + 28 * x + 7)
    ells = (3 * x**3, 2 * x**2, x)
    assert sum(ells) == pytest.approx(8.0 / 7.0, abs=1e-15)
    P = diag_pencil()
    schedule = [(invert_rho(P, l), 1) for l in ells] * 7
    orb = run_composition(P, schedule, covering(P, 0.31))
    assert orb.steps == 21
    assert orb.winding == 8
    assert orb.rho == pytest.approx(8.0, abs=1e-9)
    assert orb.closure_residual < 1e-7


def test_composition_rejects_outer():
    P = diag_pencil()
    with pytest.raises(InvalidParameter):
        run_composition(P, [((1, 0), 2)], covering(P, 0.1))


def test_estimate_rotation_converges():
    P = diag_pencil()
    est = estimate_rotation(P, (0, 1), 10000)
    assert abs(est - 1.0 / 6.0) < 2e-4


def test_estimate_rotation_near_limit():
    P = diag_pencil()
    est = estimate_rotation(P, (-LAM[2] + 1e-9, 1.0), 2000)
    assert abs(est - 0.5) < 1e-3


def test_step_counts_must_be_finite():
    P = diag_pencil()
    nu, z = invert_rho(P, 0.25), covering(P, 0.1)
    for bad in (math.nan, math.inf, -math.inf, 2.7):
        with pytest.raises(InvalidParameter):
            polygon(P, nu, z, max_steps=bad)
        with pytest.raises(InvalidParameter):
            estimate_rotation(P, nu, bad)
        for k in (bad, -bad):
            with pytest.raises(InvalidParameter):
                run_composition(P, [(nu, k)], z)
    # integral floats count as their integers
    assert (run_composition(P, [(nu, 2.0), (nu, -1.0)], z).points
            == run_composition(P, [(nu, 2), (nu, -1)], z).points)


def test_estimate_rotation_guards():
    P = diag_pencil()
    with pytest.raises(InvalidParameter):
        estimate_rotation(P, (1, 0), 1000)
    with pytest.raises(InvalidParameter):
        estimate_rotation(P, (0, 1), 50)
