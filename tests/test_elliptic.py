"""Tests for the elliptic kernel: AGM, Carlson reduction, Landen lifts.

Reference values were produced once with adaptive quadrature of the
defining integrals (see oracles.py) and are frozen here as literals.
"""

import math

import numpy as np
import pytest

from oracles import jacobi_epsilon
from poncelet.elliptic import (
    Modulus,
    as_modulus,
    ellint_F,
    ellint_K,
    jacobi,
)
from poncelet.errors import ModulusOutOfRange

E_GRID = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)

# adaptive quadrature of 1/sqrt(1 - e^2 sin^2 t), epsabs 1e-14
K_FROZEN = {
    0.5: 1.6857503548125963,
    0.6: 1.7507538029157526,
    0.8: 1.9953027776647294,
}
# quadrature of sqrt(1 - 0.36 sin^2 t) over [0, pi/2]
E_COMPLETE_06 = 1.4180833944487243


def test_complete_first_kind_frozen():
    for e, ref in K_FROZEN.items():
        assert ellint_K(e) == pytest.approx(ref, abs=1e-13)
    # circular limit
    assert ellint_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_complete_equals_incomplete_at_half_pi():
    for e in E_GRID:
        assert ellint_F(math.pi / 2, e) == pytest.approx(ellint_K(e), abs=1e-14)


def test_incomplete_first_kind_where_scipy_misreports():
    # scipy.special.ellipkinc(1.1841840469188336, 0.06674588223709507) returns
    # K(m) = 1.5980395336099553 here; the frozen value is mpmath's ellipf
    phi, m = 1.1841840469188336, 0.06674588223709507
    assert ellint_F(phi, Modulus(math.sqrt(m))) == pytest.approx(1.1985296502074665, abs=1e-14)


def test_modulus_domain():
    m = as_modulus(0.8)
    assert isinstance(m, Modulus)
    assert m.ec == pytest.approx(0.6, abs=1e-15)
    assert as_modulus(m) is m
    with pytest.raises(ModulusOutOfRange):
        as_modulus(-0.1)
    with pytest.raises(ModulusOutOfRange):
        as_modulus(1.0)
    with pytest.raises(ModulusOutOfRange):
        as_modulus(1.0 - 1e-10)
    # top of the admissible range must still work
    assert math.isfinite(ellint_K(1.0 - 1e-9))


def test_circular_limit_of_jacobi():
    for u in (-2.0, 0.3, 5.1):
        jv = jacobi(u, 0.0)
        assert jv.sn == pytest.approx(math.sin(u), abs=1e-15)
        assert jv.cn == pytest.approx(math.cos(u), abs=1e-15)
        assert jv.dn == 1.0
        assert jv.am == pytest.approx(u, abs=1e-14)


def test_pythagorean_identities():
    rng = np.random.default_rng(7)
    for e in E_GRID:
        K = ellint_K(e)
        for u in rng.uniform(-8 * K, 8 * K, size=60):
            jv = jacobi(u, e)
            assert jv.sn**2 + jv.cn**2 == pytest.approx(1.0, abs=1e-13)
            assert jv.dn**2 + e * e * jv.sn**2 == pytest.approx(1.0, abs=1e-13)
            assert jv.sn == pytest.approx(math.sin(jv.am), abs=1e-13)
            assert jv.cn == pytest.approx(math.cos(jv.am), abs=1e-13)
            assert jv.cd == jv.cn / jv.dn


def test_amplitude_roundtrip():
    # F(am(u, e), e) must reproduce u; this is the inverse pair the
    # rotation-number code leans on.
    rng = np.random.default_rng(11)
    for e in E_GRID:
        K = ellint_K(e)
        for u in rng.uniform(-8 * K, 8 * K, size=60):
            assert ellint_F(jacobi(u, e).am, e) == pytest.approx(u, abs=1e-10)


def test_quarter_period_values():
    for e in E_GRID:
        m = as_modulus(e)
        jv = jacobi(ellint_K(e), e)
        assert jv.sn == pytest.approx(1.0, abs=1e-14)
        assert jv.cn == pytest.approx(0.0, abs=1e-13)
        assert jv.dn == pytest.approx(m.ec, abs=1e-13)


def test_half_quarter_period_closed_forms():
    # sn^2(K/2) = 1/(1+e'), cn^2(K/2) = e'/(1+e'), dn(K/2) = sqrt(e')
    jv = jacobi(ellint_K(0.8) / 2, 0.8)
    assert jv.sn**2 == pytest.approx(0.625, abs=1e-13)
    assert jv.cn**2 == pytest.approx(0.375, abs=1e-13)
    assert jv.dn**2 == pytest.approx(0.6, abs=1e-13)


def test_landen_descending_complete():
    for e in (0.4, 0.8, 0.9, 0.999):
        ec = math.sqrt((1 - e) * (1 + e))
        k1 = (1 - ec) / (1 + ec)
        assert ellint_K(e) == pytest.approx((1 + k1) * ellint_K(k1), abs=1e-11)


def test_gauss_ascending_complete():
    # K(2 sqrt(e)/(1+e)) = (1+e) K(e); frozen right side at e = 0.3
    e = 0.3
    g = 2 * math.sqrt(e) / (1 + e)
    assert ellint_K(g) == pytest.approx(2.090463205909666, abs=1e-12)
    assert ellint_K(g) == pytest.approx((1 + e) * ellint_K(e), abs=1e-12)


def test_quasi_periodicity():
    e = 0.55
    K = ellint_K(e)
    for phi, n in ((0.7, 3), (-1.2, -2), (0.0, 5)):
        assert ellint_F(phi + n * math.pi, e) == pytest.approx(
            ellint_F(phi, e) + 2 * n * K, abs=1e-12
        )
    for u in (0.3, -2.7, 1.9):
        a, b = jacobi(u, e), jacobi(u + 4 * K, e)
        assert b.sn == pytest.approx(a.sn, abs=5e-13)
        assert b.cn == pytest.approx(a.cn, abs=5e-13)
        assert b.am == pytest.approx(a.am + 2 * math.pi, abs=5e-12)


def test_cd_double_argument_identity():
    # cd(2v) = (cd^2(v) - sn^2(v)) / (1 - e^2 cd^2(v) sn^2(v))
    rng = np.random.default_rng(3)
    for e in (0.2, 0.6, 0.9):
        K = ellint_K(e)
        for v in rng.uniform(-2 * K, 2 * K, size=40):
            jv = jacobi(v, e)
            u, w = jv.cd**2, jv.sn**2
            lhs = jacobi(2 * v, e).cd
            assert lhs == pytest.approx((u - w) / (1 - e * e * u * w), abs=1e-10)


def test_epsilon_frozen_and_periodic():
    e = 0.6
    K = ellint_K(e)
    assert jacobi_epsilon(K, e) == pytest.approx(E_COMPLETE_06, abs=1e-12)
    # quasi-period: adds 4 E(pi/2) per 4K
    for u in (0.4, -1.3):
        assert jacobi_epsilon(u + 4 * K, e) == pytest.approx(
            jacobi_epsilon(u, e) + 4 * E_COMPLETE_06, abs=1e-11
        )
    # midpoint has the closed form (1 - e')/2
    assert jacobi_epsilon(K / 2, e) - 0.5 * jacobi_epsilon(K, e) == pytest.approx(
        0.1, abs=1e-13
    )


def test_epsilon_convexity_gap():
    # g(z) = eps(zK) - z eps(K) is strictly positive on (0,1); this gap is
    # what makes the rotation number move monotonically in the modulus.
    for e in (0.1, 0.5, 0.9):
        K = ellint_K(e)
        eK = jacobi_epsilon(K, e)
        for z in np.linspace(0.02, 0.98, 25):
            assert jacobi_epsilon(z * K, e) - z * eK > 0.0


def test_derivative_of_K_in_modulus():
    # dK/de = (eps(K) - (1-e^2) K) / (e (1-e^2))
    h = 1e-6
    for e in (0.3, 0.6, 0.85):
        K = ellint_K(e)
        closed = (jacobi_epsilon(K, e) - (1 - e * e) * K) / (e * (1 - e * e))
        fd = (ellint_K(e + h) - ellint_K(e - h)) / (2 * h)
        assert closed == pytest.approx(fd, rel=1e-6)


def test_cd_partial_derivatives():
    h = 1e-6
    for e, t in ((0.4, 0.9), (0.7, 1.7), (0.85, 0.35)):
        jv = jacobi(t, e)
        # d/dt cd = -(1-e^2) sn / dn^2
        fd_t = (jacobi(t + h, e).cd - jacobi(t - h, e).cd) / (2 * h)
        assert -(1 - e * e) * jv.sn / jv.dn**2 == pytest.approx(fd_t, rel=1e-6, abs=1e-9)
        # d/de cd = sn/(e dn^2) * (eps(t) - (1-e^2) t)
        fd_e = (jacobi(t, e + h).cd - jacobi(t, e - h).cd) / (2 * h)
        closed = jv.sn / (e * jv.dn**2) * (jacobi_epsilon(t, e) - (1 - e * e) * t)
        assert closed == pytest.approx(fd_e, rel=1e-6, abs=1e-9)


def test_epsilon_derivative_is_dn2():
    # d/du eps(u) = dn^2(u) by centred differences, over the moduli 0.05..0.95
    # and 13 arguments in [-1.8K, 1.8K]
    h = 1e-5
    der = 0.0
    for e in [0.05 * k for k in range(1, 20)]:
        K = ellint_K(e)
        for u in np.linspace(-1.8 * K, 1.8 * K, 13):
            diff = (jacobi_epsilon(u + h, e) - jacobi_epsilon(u - h, e)) / (2.0 * h)
            der = max(der, abs(diff - jacobi(u, e).dn ** 2))
    assert der < 1e-8
