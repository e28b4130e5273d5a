import math

import numpy as np
import pytest

from marlift.catalog import catalog_lookup
from marlift.constructor import (
    lift_palmer,
    support_route_lift,
)
from marlift.core import Chart
from marlift.verifier import assemble_report


def chart():
    return Chart(2, [-0.8, 0.25], [0.8, 0.9], (7, 7))


def test_expr_preset_gradient_matches_analytic():
    # f = u3 is a first spherical harmonic: grad = e3 - u3 u, lap = -2 u3
    _, sf = catalog_lookup("palmer-sphere", {"preset": "expr", "f": "u3"})
    e3 = np.array([0.0, 0.0, 1.0])
    points = chart().grid(margin=0.01)[::7]
    u = sf.at(points)[0]
    assert np.allclose(sf.gradient(points), e3 - u[:, 2:] * u, rtol=0.0, atol=1e-12)
    assert sf.laplacian(points) == pytest.approx(-2.0 * u[:, 2], abs=1e-12)


def test_support_function_rows_do_not_depend_on_their_batch():
    _, sf = catalog_lookup("palmer-sphere", {"preset": "expr",
                                             "f": "1+0.2*sin(u3)*exp(u3)"})
    points = chart().grid()
    rows = sf.at(points)
    assert np.array_equal(sf.gradient(points), rows[2])
    assert np.array_equal(sf.laplacian(points), rows[3])
    for i in range(len(points)):
        for whole, alone in zip(rows, sf.at(points[i:i + 1])):
            assert len(whole) == len(points)
            assert np.array_equal(whole[i], alone[0])


def test_quadric_rows_keep_the_one_point_arithmetic():
    # the one-point formulas on Python floats, as the preset had them before
    # it took stacked vectors: the rows must keep their bits
    _, sf = catalog_lookup("palmer-sphere")   # quadric preset, axes 1.3/1.0/0.8
    m2 = np.array([1.3, 1.0, 0.8]) ** 2
    points = sf.chart.grid()
    for u, f, grad, lap in zip(*sf.at(points)):
        fv = math.sqrt(float(u @ (m2 * u)))
        m2u = m2 * u
        assert f == fv
        assert np.array_equal(grad, m2 * u / fv - fv * u)
        assert lap == float(np.sum(m2)) / fv - float(m2u @ m2u) / fv ** 3 - 2.0 * fv


def test_quadric_support_reconstructs_ellipsoid():
    _, sf = catalog_lookup("palmer-sphere")   # quadric preset, axes 1.3/1.0/0.8
    rec = sf.reconstruction()
    inv_sq = 1.0 / np.array([1.3, 1.0, 0.8]) ** 2
    for x in chart().grid(margin=0.01)[::9]:
        p = rec(x)
        assert float(p ** 2 @ inv_sq) == pytest.approx(1.0, abs=1e-7)


def test_routes_agree_on_convex_support():
    _, sf = catalog_lookup("palmer-sphere")
    direct = lift_palmer(sf)
    route = support_route_lift(sf)
    gap = max(np.max(np.abs(direct(x) - route(x)))
              for x in sf.chart.grid(margin=0.01)[::5])
    assert gap <= 1e-6


def test_both_routes_verify_trapped_on_convex_support():
    _, sf = catalog_lookup("palmer-sphere")
    rep1 = assemble_report(lift_palmer(sf), resolution=(5, 5))
    rep2 = assemble_report(support_route_lift(sf), resolution=(5, 5))
    assert rep1.verdict == "marginally_trapped"
    assert rep2.verdict == "marginally_trapped"


def test_offset_support_is_a_translated_sphere():
    # first-harmonic perturbations only translate the front: the
    # reconstruction is a round unit sphere centered at eps * e3
    _, sf = catalog_lookup("palmer-sphere",
                           {"preset": "offset", "c": 1.0, "eps": 0.1})
    rec = sf.reconstruction()
    center = np.array([0.0, 0.0, 0.1])
    for x in sf.chart.grid(margin=0.01)[::9]:
        assert np.linalg.norm(rec(x) - center) == pytest.approx(1.0, abs=1e-9)


def test_offset_support_lift_degenerates_to_focal_point():
    # umbilic front: the height equals the curvature radius everywhere, the
    # induced metric collapses, and the image is the single focal point
    _, sf = catalog_lookup("palmer-sphere",
                           {"preset": "offset", "c": 1.0, "eps": 0.1})
    lift = lift_palmer(sf)
    vals = np.array([lift(x) for x in sf.chart.grid(margin=0.01)[::5]])
    assert np.max(vals.max(axis=0) - vals.min(axis=0)) <= 1e-12
    assert np.allclose(vals[0], [0.0, 0.0, 0.1, -1.0], atol=1e-12)
    rep = assemble_report(lift, resolution=(5, 5))
    assert rep.verdict == "inconclusive"
    assert rep.excluded_count == rep.total


def test_route_height_matches_support_formula():
    # tau = H/K of the front equals -(f + lap f / 2)
    _, sf = catalog_lookup("palmer-sphere")
    route = support_route_lift(sf)
    points = sf.chart.grid(margin=0.01)[::9]
    _, f, _, lap = sf.at(points)
    tau_route = route.evaluate(points).values[:, -1]
    assert tau_route == pytest.approx(-f - 0.5 * lap, abs=1e-6)


def test_constant_support_route_height():
    # f = c: the curvature-pipeline height is -c (the focal distance)
    _, sf = catalog_lookup("palmer-sphere", {"preset": "round", "c": 2.0})
    route = support_route_lift(sf)
    val = route(np.array([0.2, 0.5]))
    assert val[-1] == pytest.approx(-2.0, abs=1e-7)
    assert np.allclose(val[:3], 0.0, atol=1e-7)


@pytest.mark.parametrize("field", ["1.06+0.136136*u3**2", "1.0+0.1*u3**2"])
@pytest.mark.parametrize("grid", [(9, 9), (17, 17)])
def test_both_routes_verify_trapped_on_expr_fields(field, grid):
    # with finite differences of f nested under the verifier's, lift_palmer
    # on the first field (both grids) and the route on the second (17x17)
    # went over tol_marginal; exact support derivatives trap both
    _, sf = catalog_lookup("palmer-sphere", {"preset": "expr", "f": field})
    direct, route = lift_palmer(sf), support_route_lift(sf)
    rep1 = assemble_report(direct, resolution=grid)
    rep2 = assemble_report(route, resolution=grid)
    for rep in (rep1, rep2):
        assert rep.verdict == "marginally_trapped"
        assert rep.excluded_count == 0
    gap = max(np.max(np.abs(np.array(r1.position) - np.array(r2.position)))
              for r1, r2 in zip(rep1.records, rep2.records))
    assert gap <= 1e-5
