"""SVG figures: member polylines against the pointwise oracle, and the
document bytes."""

import numpy as np
import pytest

from oracles import homography_rounding_scale, member_polyline_pointwise, svg_document
from poncelet.maps import covering, invert_rho, polygon
from poncelet.pencil import as_param, build_pencil, limiting_point
from poncelet.svg import member_polyline, svg_figure
from test_maps import chart_test_pencils, confocal_pair_pencil
from test_pencil import diag_pencil, random_nested_pair


def fixture_pencils():
    return [diag_pencil(), confocal_pair_pencil()]


def test_member_polyline_matches_pointwise_oracle():
    # the one product by M rounds like M applied to each point, within
    # 1e-15 of the homography's rounding scale at that point
    worst = 0.0
    for P in chart_test_pencils(np.random.default_rng(17), 8):
        members = [(1.0, 0.0), (0.0, 1.0), (-P.lam[2], 1.0)]
        members += [invert_rho(P, ell) for ell in (0.03, 0.2, 2.0 / 7.0, 0.45)]
        for nu in members:
            nu = as_param(nu)
            got = member_polyline(P, nu)
            ref = member_polyline_pointwise(P.M, P.lam, (nu.nu1, nu.nu2))
            assert got.shape == ref.shape == (257, 2)
            assert (got[-1] == got[0]).all()
            chart = np.column_stack([ref, np.ones(257)]) @ P.Minv.T
            scale = homography_rounding_scale(P.M, chart[:, :2] / chart[:, 2:])
            worst = max(worst, float((np.linalg.norm(got - ref, axis=1) / scale).max()))
    assert worst < 1e-15


def test_member_polyline_on_fixtures_is_the_pointwise_polyline():
    for P in fixture_pencils():
        for nu in [(1.0, 0.0), (0.0, 1.0)] + [invert_rho(P, ell) for ell in (0.1, 0.3, 0.49)]:
            nu = as_param(nu)
            ref = member_polyline_pointwise(P.M, P.lam, (nu.nu1, nu.nu2))
            got = member_polyline(P, nu)
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_limiting_member_polyline_is_the_limiting_point():
    # nu1 + l3 nu2 on the canonical limiting ray can round below 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        P = build_pencil(*random_nested_pair(rng)[:2])
        pts = member_polyline(P, (-P.lam[2], 1.0))
        assert pts == pytest.approx(np.tile(limiting_point(P), (257, 1)), rel=1e-15, abs=0.0)


def test_svg_figure_matches_oracle_document():
    # Fig. 3: the hexagonal member (0, 1) with its orbit, and the 2/7 member
    P = diag_pencil()
    members = [(0.0, 1.0), invert_rho(P, 2.0 / 7.0)]
    orbit = polygon(P, members[0], covering(P, 0.1)).points
    polylines = [member_polyline_pointwise(P.M, P.lam, nu)
                 for nu in [(1.0, 0.0), (0.0, 1.0), (members[1].nu1, members[1].nu2)]]
    assert svg_figure(P, members, orbit=orbit) == svg_document(polylines, orbit)
    assert svg_figure(P, members) == svg_document(polylines)
