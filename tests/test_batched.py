"""The array pipeline against its one-row calls.

Stacked evaluation must give, row by row, what evaluating each point alone
gives, and a failing row must fail alone with the error its one-row call
raises.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlift import shapes
from marlift.core import Chart, GeometryError, OutOfDomainError, Rows, jet2_of, looped
from marlift.constructor import (
    AmbientKind,
    ConstructionError,
    PatternChangeError,
    flat_slice,
    graph_lift,
    lift_antidesitter,
    lift_desitter,
    lift_hyperbolic_product,
    lift_minkowski,
    lift_sphere_product,
    null_lift,
    product_lifts,
    thread_root_fields,
)
from marlift.hypersurface import (
    HypersurfaceImmersion,
    SpaceForm,
    frame_rows,
    mean_gauss_at,
    spectrum_at,
    spectrum_rows,
)


def _s4_rotational():
    alpha = 0.9
    ca, sa = math.cos(alpha), math.sin(alpha)
    ch = Chart(3, [0.0, -0.8, -0.8], [2.0, 0.8, 0.8], (5, 5, 5))

    def fn(x):
        return np.concatenate([[ca * math.cos(x[0]), ca * math.sin(x[0])],
                               sa * shapes.sphere_chart(x[1:])])

    imm = HypersurfaceImmersion(SpaceForm.sphere(4), ch, fn, name="s4-rotational")
    return product_lifts(imm, AmbientKind.SPHERE_PRODUCT)[0]


def _mean_over_gauss(frames):
    heights = np.full(len(frames.x), np.nan)
    for i, err in enumerate(frames.errors):
        if err is None:
            hmean, kgauss = mean_gauss_at(frames.row(i))
            heights[i] = hmean / kgauss
    return Rows(heights, list(frames.errors))


LIFTS = {
    "torus-minkowski": lambda: lift_minkowski(shapes.torus(2.2, 0.8)),
    "sphere-torus-desitter": lambda: lift_desitter(shapes.clifford_torus(1.0)),
    "sphere-torus-product-0": lambda: lift_sphere_product(shapes.clifford_torus(1.0), 0),
    "sphere-torus-product-1": lambda: lift_sphere_product(shapes.clifford_torus(1.0), 1),
    "tube-antidesitter": lambda: lift_antidesitter(shapes.geodesic_tube_h3(0.8)),
    "equidistant-hyperbolic-product":
        lambda: lift_hyperbolic_product(shapes.equidistant_h3(0.8)),
    "s4-rotational": _s4_rotational,
    "graph-lift": lambda: graph_lift(shapes.ellipsoid(), AmbientKind.MINKOWSKI,
                                     _mean_over_gauss),
    "null-lift": lambda: null_lift(flat_slice(Chart(2, [-1.0, -1.0], [1.0, 1.0], (9, 9))),
                                   lambda x: x[0] ** 2 + x[0] * x[1]),
}


@functools.lru_cache(maxsize=None)
def _lift(name):
    return LIFTS[name]()


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= 1e-13 * (1.0 + np.abs(b))))


def _interior(chart, fractions):
    frac = np.asarray(fractions, dtype=float)[:, :chart.dim]
    return chart.lower + (0.05 + 0.9 * frac) * (chart.upper - chart.lower)


@pytest.mark.parametrize("name", sorted(LIFTS))
@settings(max_examples=8, deadline=None)
@given(fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3),
                          min_size=1, max_size=6))
def test_array_evaluation_equals_one_row_calls(name, fractions):
    lift = _lift(name)
    points = _interior(lift.chart, fractions)
    rows = lift.evaluate(points)
    for i, x in enumerate(points):
        assert rows.errors[i] is None
        assert _close(rows.values[i], lift(x))
        assert _close(rows.null_normal(i), lift.null_normal(x))
        ctx, one = rows.context(i), lift.context(x)
        assert (ctx is None) == (one is None)
        if one is not None:
            assert _close(ctx.tau, one.tau)
            assert (ctx.s is None and one.s is None) or _close(ctx.s, one.s)
            assert _close(ctx.frame.normal, one.frame.normal)


def _check_mixed(lift, points):
    rows = lift.evaluate(points)
    kinds = set()
    for i, x in enumerate(points):
        try:
            value = lift(x)
        except GeometryError as exc:
            assert type(rows.errors[i]) is type(exc)
            assert np.all(np.isnan(rows.values[i]))
            kinds.add(type(exc))
            continue
        assert rows.errors[i] is None
        assert _close(rows.values[i], value)
    return kinds


def test_mixed_batch_pattern_change_fails_its_rows_alone():
    # a torus glued to a round sphere: the lift keeps the torus pattern, so
    # every sample on the sphere part fails, and only those
    ch = Chart(2, [-1.0, 0.5], [1.0, 2.5], (9, 9))
    t1 = shapes.torus(2.0, 1.0)
    sph = shapes.round_sphere(1.0)
    glued = HypersurfaceImmersion(
        SpaceForm.euclidean(3), ch,
        lambda x: t1(x) if x[1] < 2.0 else sph(x * 0.3))
    lift = lift_minkowski(glued)
    points = np.array([[0.1, 0.8], [0.2, 2.3], [-0.3, 1.2], [0.4, 2.2], [0.0, 1.6]])
    assert _check_mixed(lift, points) == {PatternChangeError}


def test_mixed_batch_filtered_root_fails_its_rows_alone():
    # an equidistant surface of H^3 (curvature tanh d < 1, kept root 1/tanh d)
    # glued to a geodesic sphere of H^3 (curvature coth r > 1, whose root
    # tanh r has |s| <= 1 and is filtered): the root count drops to 0 there
    ch = Chart(2, [0.3, 0.0], [1.3, 2.0], (9, 9))
    eq = shapes.equidistant_h3(0.8)
    shr, chr_ = math.sinh(0.7), math.cosh(0.7)

    def fn(x):
        if x[1] < 1.2:
            return eq(x)
        return np.append(shr * shapes.sphere_chart(x - 1.0), chr_)

    glued = HypersurfaceImmersion(SpaceForm.hyperbolic(3), ch, fn)
    lift = lift_hyperbolic_product(glued)
    points = np.array([[0.5, 0.4], [0.9, 1.6], [1.1, 0.9], [0.6, 1.9]])
    assert _check_mixed(lift, points) == {PatternChangeError}
    with pytest.raises(PatternChangeError, match="root count changed from 1 to 0"):
        lift(points[1])


def test_stencil_row_outside_the_chart_fails_its_point_alone():
    lift = _lift("torus-minkowski")
    lo = lift.chart.lower
    points = np.array([[0.1, 1.0], [lo[0] + 0.5e-4, 1.0], [0.3, 2.0]])
    jets = jet2_of(lift.evaluate, points, h=1e-4, chart=lift.chart)
    assert isinstance(jets.errors[1], OutOfDomainError)
    with pytest.raises(OutOfDomainError):
        jet2_of(lift.evaluate, points[1][None], h=1e-4, chart=lift.chart).row(0)
    alone = jet2_of(lift.evaluate, points[[0, 2]], h=1e-4, chart=lift.chart)
    for i, j in ((0, 0), (2, 1)):
        assert jets.errors[i] is None
        assert _close(jets.row(i).d2, alone.row(j).d2)
        assert _close(jets.row(i).value, lift(points[i]))


def test_point_with_its_whole_stencil_outside_the_chart():
    chart = Chart(1, [0.0], [1.0], (5,))
    fn = looped(lambda x: np.array([x[0] ** 2]))
    jets = jet2_of(fn, np.array([[0.5], [5.0]]), h=0.1, chart=chart)
    assert jets.errors[0] is None
    assert isinstance(jets.errors[1], OutOfDomainError)
    alone = jet2_of(fn, np.array([[5.0]]), h=0.1, chart=chart)
    assert isinstance(alone.errors[0], OutOfDomainError)


def test_a_chart_with_every_point_excluded_has_no_rows_to_solve():
    ch = Chart(2, [-1.0, 0.5], [1.0, 2.5], (5, 5), excluded=lambda x: True)
    torus = shapes.torus(2.0, 1.0)
    for imm in (shapes.torus(2.0, 1.0, chart=ch),
                HypersurfaceImmersion(SpaceForm.euclidean(3), ch, lambda x: torus(x))):
        with pytest.raises(ConstructionError, match="no usable grid points"):
            thread_root_fields(imm, AmbientKind.MINKOWSKI)
        with pytest.raises(ConstructionError, match="no usable reference point"):
            lift_minkowski(imm)


def test_frames_and_spectra_rows_equal_one_row_calls():
    imm = shapes.clifford_torus(1.0)
    points = imm.chart.grid(margin=0.1)[::37]
    frames = frame_rows(imm, points)
    spectra = spectrum_rows(frames.metric, frames.second_form)
    for i, x in enumerate(points):
        frame = frames.row(i)
        one = spectrum_at(frame)
        assert spectra.row(i).pattern == one.pattern
        assert _close(spectra.row(i).raw, one.raw)


# ------------------------------------------------ stacked jets of the core maps

AMAT = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
CORE_MAPS = [
    (lambda x: AMAT @ x, [[0.3, -0.2], [0.1, 0.4], [-0.5, 0.25]], 1e-4),
    (lambda x: np.array([x[0] ** 2, 0.0]), [[0.5], [0.25], [-0.75]], 2.0 ** -13),
    (lambda x: np.array([2.0 * x[0] ** 2 + x[0] * x[1], x[1] ** 2 - x[0]]),
     [[0.5, -0.25], [0.125, 0.5]], 2.0 ** -9),
    (lambda t: np.array([math.cos(t[0]), math.sin(t[0])]), [[0.0], [0.7]], 1e-4),
    (lambda x: np.array([math.sin(1.3 * x[0]) * math.exp(0.4 * x[1])]),
     [[0.4, -0.3], [-0.2, 0.6]], 1e-2),
]


@pytest.mark.parametrize("fn,points,h", CORE_MAPS)
def test_stacked_jet_equals_single_point_jet_bitwise(fn, points, h):
    points = np.array(points)
    jets = jet2_of(looped(fn), points, h=h)
    for i, x in enumerate(points):
        one = jet2_of(fn, x, h=h)
        row = jets.row(i)
        assert np.array_equal(row.value, one.value)
        assert np.array_equal(row.d1, one.d1)
        assert np.array_equal(row.d2, one.d2)


def test_stacked_sphere_chart_jets_match_the_one_point_jet():
    points = np.array([[0.3, -0.2], [1.1, 0.4], [-0.7, 0.9]])
    jets = shapes.sphere_chart_jets(points)
    for i, x in enumerate(points):
        one = shapes.sphere_chart_jet(x)
        assert _close(jets.value[i], one.value)
        assert _close(jets.d1[i], one.d1)
        assert _close(jets.d2[i], one.d2)
