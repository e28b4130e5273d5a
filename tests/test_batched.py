"""The array pipeline against its one-row calls.

Stacked evaluation must give, row by row, what evaluating each point alone
gives, and a failing row must fail alone with the error its one-row call
raises.
"""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlift import constructor, core, shapes
from marlift.catalog import catalog_lookup
from marlift.core import (
    DEFAULTS,
    Chart,
    GeometryError,
    OutOfDomainError,
    Rows,
    bilinear,
    jet2_of,
)
from marlift.constructor import (
    AmbientKind,
    ConstructionError,
    LiftedImmersion,
    LiftRows,
    LorentzAmbient,
    PatternChangeError,
    flat_slice,
    graph_lift,
    lift_antidesitter,
    lift_desitter,
    lift_hyperbolic_product,
    lift_map,
    lift_minkowski,
    lift_palmer,
    lift_sphere_product,
    null_lift,
    product_height_lift,
    product_lifts,
    support_route_lift,
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
from marlift.reporting import render_report
from marlift.taylor import taylor_jet
from marlift.verifier import (
    FrameError,
    SpacelikeViolationError,
    assemble_report,
    check_mean_curvature_identity,
    check_metric_identity,
    check_second_form_identity,
    lorentz_frame_at,
    lorentz_frame_rows,
    mean_curvature_at,
    mean_curvature_rows,
    second_form_at,
    second_form_rows,
)


def _s4_rotational():
    alpha = 0.9
    ca, sa = math.cos(alpha), math.sin(alpha)
    ch = Chart(3, [0.0, -0.8, -0.8], [2.0, 0.8, 0.8], (5, 5, 5))

    def fn(x):
        return np.concatenate([ca * np.stack([np.cos(x[:, 0]), np.sin(x[:, 0])], axis=-1),
                               sa * shapes.sphere_chart(x[:, 1:])], axis=-1)

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
                                   lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1]),
    "chen-l1": lambda: catalog_lookup("chen-l1")[1],
    "chen-l2": lambda: catalog_lookup("chen-l2")[1],
    "chen-l3": lambda: catalog_lookup("chen-l3")[1],
    "chen-l4": lambda: catalog_lookup("chen-l4")[1],
    "l1-perturbed": lambda: catalog_lookup("l1-perturbed")[1],
    "product-height": lambda: product_height_lift(shapes.clifford_torus(1.0), 0.4,
                                                  AmbientKind.SPHERE_PRODUCT),
    "palmer-quadric": lambda: lift_palmer(catalog_lookup("palmer-sphere")[1]),
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
        nu, one_nu = rows.null_normal(i), lift.null_normal(x)
        assert (nu is None) == (one_nu is None)
        if one_nu is not None:
            assert _close(nu, one_nu)
        ctx, one = rows.context(i), lift.context(x)
        assert (ctx is None) == (one is None)
        if one is not None:
            assert _close(ctx.tau, one.tau)
            assert (ctx.s is None and one.s is None) or _close(ctx.s, one.s)
            assert _close(ctx.frame.normal, one.frame.normal)
            assert _close(ctx.raw, one.raw)


def _lift_or_route(name):
    if name == "support-route":
        return support_route_lift(catalog_lookup("palmer-sphere")[1])
    return _lift(name)


SOURCE_FIELDS = ("x", "point", "tangent", "normal", "metric", "second_form")


def _assert_same_construction(rows, other):
    """`rows` carries the construction data of `other`, bit for bit."""
    assert (rows.nulls is None and other.nulls is None) or np.array_equal(
        rows.nulls, other.nulls, equal_nan=True)
    ctx, ref = rows.contexts, other.contexts
    assert (ctx is None) == (ref is None)
    if ctx is None:
        return
    for a, b in [(ctx.raw, ref.raw), (ctx.tau, ref.tau), (ctx.s, ref.s)] + [
            (getattr(ctx.frame, f), getattr(ref.frame, f)) for f in SOURCE_FIELDS]:
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)
    assert [type(e) for e in ctx.errors] == [type(e) for e in ref.errors]


LEADING = ["torus-minkowski", "sphere-torus-product-1", "support-route",
           "palmer-quadric", "product-height"]


@pytest.mark.parametrize("name", LEADING)
def test_construction_data_for_the_leading_rows(name):
    # evaluate(x, k) has the values of evaluate(x, 0), and the construction
    # data of evaluate(x[:k])
    lift = _lift_or_route(name)
    points = _interior(lift.chart, np.random.default_rng(3).random((40, 3)))
    alone = lift.evaluate(points, 0)
    assert alone.nulls is None and alone.contexts is None
    for k in (1, 17, 40):
        rows = lift.evaluate(points, k)
        assert np.array_equal(rows.values, alone.values, equal_nan=True)
        assert [type(e) for e in rows.errors] == [type(e) for e in alone.errors]
        assert len(rows.nulls) == len(rows.contexts.tau) == k
        _assert_same_construction(rows, lift.evaluate(points[:k]))


@pytest.mark.parametrize("name", ["torus-minkowski", "sphere-torus-product-0",
                                  "support-route", "chen-l1", "palmer-quadric"])
def test_values_alone_over_blocks_equal_values_with_construction(name, monkeypatch):
    # the rows with construction data, or the first _BLOCK rows if more, go
    # in one pass and the rest block by block, the last block partial; the
    # rows equal those of one pass
    lift = _lift_or_route(name)
    points = _interior(lift.chart, np.random.default_rng(5).random((250, 3)))
    one_pass = {k: lift.evaluate(points, k) for k in (0, 30, 250)}
    monkeypatch.setattr(constructor, "_BLOCK", 64)
    for k, whole in one_pass.items():
        rows = lift.evaluate(points, k)
        assert np.array_equal(rows.values, one_pass[250].values, equal_nan=True)
        assert [type(e) for e in rows.errors] == [type(e) for e in whole.errors]
        _assert_same_construction(rows, whole)


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
        lambda x: np.where(x[:, 1:] < 2.0, t1.eval_fn(x), sph.eval_fn(x * 0.3)))
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
        sphere = np.concatenate([shr * shapes.sphere_chart(x - 1.0),
                                 np.full((len(x), 1), chr_)], axis=-1)
        return np.where(x[:, 1:] < 1.2, eq.eval_fn(x), sphere)

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
    fn = lambda x: x ** 2
    jets = jet2_of(fn, np.array([[0.5], [5.0]]), h=0.1, chart=chart)
    assert jets.errors[0] is None
    assert isinstance(jets.errors[1], OutOfDomainError)
    alone = jet2_of(fn, np.array([[5.0]]), h=0.1, chart=chart)
    assert isinstance(alone.errors[0], OutOfDomainError)


def _no_points(width):
    """An array map of `width` columns that fails at every row."""
    return lambda x: Rows(np.full((len(x), width), np.nan),
                          [GeometryError(f"no point at {p}") for p in x])


def test_a_chart_with_every_point_excluded_has_no_rows_to_solve():
    # every row of the hypersurface fails, so no grid point is left to solve:
    # each frame row carries its error, threading raises the first row's
    # error, the lift finds no reference
    ch = Chart(2, [-1.0, 0.5], [1.0, 2.5], (5, 5))
    grid = ch.grid(margin=4.0 * DEFAULTS.step_h)
    imm = HypersurfaceImmersion(SpaceForm.euclidean(3), ch, _no_points(3))
    frames = frame_rows(imm, grid)
    assert [str(e) for e in frames.errors] == [f"no point at {p}" for p in grid]
    with pytest.raises(GeometryError, match=re.escape(f"no point at {grid[0]}")):
        thread_root_fields(imm, AmbientKind.MINKOWSKI)
    with pytest.raises(ConstructionError, match="no usable reference point"):
        lift_minkowski(imm)


def test_a_lift_that_fails_at_every_row_is_inconclusive():
    torus = _lift("torus-minkowski")
    lift = LiftedImmersion(torus.ambient, torus.chart, _no_points(4), name="nowhere")
    report = assemble_report(lift, resolution=(5, 5))
    assert report.verdict == "inconclusive"
    assert report.excluded_count == report.total == 25
    assert report.reasons == tuple(f"GeometryError: no point at {p}" for p in report.x)
    assert report.values.shape == (25, 4) and np.isnan(report.values).all()


def test_a_one_point_jet_whose_centre_or_neighbours_all_fail_raises():
    x0 = np.array([[0.3, -0.2]])

    def failing(where, message):
        def fn(p):
            values = np.stack([p[:, 0] ** 2, p[:, 1], np.ones(len(p))], axis=-1)
            bad = where((p == x0).all(axis=1))
            values[bad] = np.nan
            return Rows(values, [GeometryError(message) if b else None for b in bad])
        return fn

    with pytest.raises(GeometryError, match="no centre"):
        jet2_of(failing(lambda centre: centre, "no centre"), x0, h=1e-3).row(0)
    with pytest.raises(GeometryError, match="no neighbour"):
        jet2_of(failing(lambda centre: ~centre, "no neighbour"), x0, h=1e-3).row(0)


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
    empty = frame_rows(imm, points[:0])
    assert empty.errors == () and empty.metric.shape == (0, 2, 2)
    assert empty.second_form.shape == (0, 2, 2)


# ------------------------------------------------ stacked jets of the core maps

AMAT = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])


def _high_rows_fail(x):
    """sin x0 + x1^2, failing at the rows with x1 > 0.5."""
    bad = x[:, 1] > 0.5
    values = (np.sin(x[:, 0]) + x[:, 1] ** 2)[:, None]
    values[bad] = np.nan
    return Rows(values, [GeometryError(f"high at {p}") if b else None
                         for p, b in zip(x, bad)])


CORE_MAPS = [
    (lambda x: x[:, :1] * AMAT[:, 0] + x[:, 1:] * AMAT[:, 1],
     [[0.3, -0.2], [0.1, 0.4], [-0.5, 0.25]], 1e-4),
    (lambda x: np.stack([x[:, 0] ** 2, np.zeros(len(x))], axis=-1),
     [[0.5], [0.25], [-0.75]], 2.0 ** -13),
    (lambda x: np.stack([2.0 * x[:, 0] ** 2 + x[:, 0] * x[:, 1],
                         x[:, 1] ** 2 - x[:, 0]], axis=-1),
     [[0.5, -0.25], [0.125, 0.5]], 2.0 ** -9),
    (lambda t: np.stack([np.cos(t[:, 0]), np.sin(t[:, 0])], axis=-1), [[0.0], [0.7]], 1e-4),
    (lambda x: (np.sin(1.3 * x[:, 0]) * np.exp(0.4 * x[:, 1]))[:, None],
     [[0.4, -0.3], [-0.2, 0.6]], 1e-2),
    (_high_rows_fail, [[0.1, 0.2], [0.3, 0.45], [-0.2, 0.7], [0.5, -0.1]], 0.1),
]


@pytest.mark.parametrize("fn,points,h", CORE_MAPS)
def test_stacked_jet_equals_single_point_jet_bitwise(fn, points, h):
    # row i of the batch's jet is the jet of points[i:i+1] alone, bit for
    # bit; a point whose stencil meets a failing row carries that row's error
    points = np.array(points)
    jets = jet2_of(fn, points, h=h)
    for i in range(len(points)):
        one = jet2_of(fn, points[i:i + 1], h=h)
        assert str(jets.errors[i]) == str(one.errors[0])
        assert type(jets.errors[i]) is type(one.errors[0])
        for name in ("value", "d1", "d2"):
            assert _same_bits(getattr(jets, name)[i], getattr(one, name)[0])
    if fn is _high_rows_fail:
        assert [e is None for e in jets.errors] == [True, False, False, True]
        assert str(jets.errors[1]) == f"high at {points[1] + [0.0, h]}"
        assert str(jets.errors[2]) == f"high at {points[2]}"


# every hypersurface factory, whose jets come from its value map evaluated
# on Taylor variables
FACTORIES = {"torus": shapes.torus(), "round_sphere": shapes.round_sphere(),
             "ellipsoid": shapes.ellipsoid(), "catenoid": shapes.catenoid(),
             "clifford_torus": shapes.clifford_torus(),
             "sphere_torus": shapes.clifford_torus(1.0),
             "geodesic_sphere_s3": shapes.geodesic_sphere_s3(),
             "geodesic_tube_h3": shapes.geodesic_tube_h3(),
             "equidistant_h3": shapes.equidistant_h3()}


@pytest.mark.parametrize("name", ["sphere_chart", *FACTORIES])
def test_map_jets_match_central_differences(name):
    # the Taylor-derived jets against central differences of the map's own
    # values, at three points of its chart
    if name == "sphere_chart":
        fn, points = shapes.sphere_chart, np.array([[0.3, -0.2], [1.1, 0.4], [-0.7, 0.9]])
        jets = taylor_jet(fn, points)
    else:
        imm = FACTORIES[name]
        fn, points = imm.eval_fn, imm.chart.with_resolution((3, 3)).grid(margin=0.1)[::4]
        jets = imm.jet(points)
        assert np.array_equal(jets.value, fn(points))
    for i, x in enumerate(points):
        one = jet2_of(fn, x[None], h=1e-4).row(0)
        assert np.allclose(jets.value[i], one.value, rtol=0.0, atol=1e-6)
        assert np.allclose(jets.d1[i], one.d1, rtol=0.0, atol=1e-6)
        assert np.allclose(jets.d2[i], one.d2, rtol=0.0, atol=1e-6)


# ------------------------------------------------------ the verifier on rows

FRAME_FIELDS = ("position", "tangent", "metric", "metric_inv", "min_eig",
                "normal_basis", "normal_form", "null_pair", "null_product")


def _primary(sig, pair, stored):
    # the stored null normal pairs to zero with the matching extracted one
    a, b = pair
    return (a, b) if abs(bilinear(sig, a, stored)) <= abs(bilinear(sig, b, stored)) else (b, a)


@pytest.mark.parametrize("name", ["torus-minkowski", "sphere-torus-desitter",
                                  "sphere-torus-product-0", "sphere-torus-product-1",
                                  "tube-antidesitter", "equidistant-hyperbolic-product",
                                  "chen-l2", "chen-l4"])
def test_row_verifier_equals_one_row_calls(name):
    lift = _lift(name)
    sig = lift.ambient.signature
    points = lift.chart.with_resolution((5, 5)).grid(margin=4.0 * DEFAULTS.step_h)
    # the report's own stencil, so its records can be checked row by row
    jets = jet2_of(lift.evaluate, points, chart=lift.chart)
    frames = lorentz_frame_rows(lift, points, jets)
    sff = second_form_rows(lift, frames)
    hvec = mean_curvature_rows(frames, sff)
    report = assemble_report(lift, resolution=(5, 5))
    assert report.excluded_count == 0 and report.cross_check_failures == 0
    for i, x in enumerate(points):
        one = lorentz_frame_at(lift, x)
        for field in FRAME_FIELDS:
            assert _close(getattr(frames.row(i), field), getattr(one, field)), field
        sff1 = second_form_at(lift, x)
        hvec1 = mean_curvature_at(lift, x)
        assert _close(sff[i], sff1)
        assert _close(hvec[i], hvec1)

        record = report.records[i]
        nu = lift.null_normal(x)
        primary, opposite = _primary(sig, one.null_pair, nu)
        norm = 1.0 + np.max(np.abs(hvec1))
        assert _close(record.position, one.position)
        assert _close(record.min_eig_g, one.min_eig)
        assert _close(record.null_residual_primary, abs(bilinear(sig, hvec1, primary)) / norm)
        assert _close(record.null_residual_opposite, abs(bilinear(sig, hvec1, opposite)) / norm)
        assert _close(record.hvec_norm_sq, bilinear(sig, hvec1, hvec1))
        ctx = lift.context(x)
        if ctx is None:
            assert record.lemma_metric_residual is None
            continue
        assert _close(record.lemma_metric_residual,
                      check_metric_identity(lift, x))
        assert _close(record.lemma_secondform_residual,
                      check_second_form_identity(lift, x))
        assert _close(record.eqH_residual,
                      check_mean_curvature_identity(lift, x))


def _patchwork_desitter():
    """A hand-built de Sitter map in three pieces along x[0]: below -1 it runs
    along a timelike direction of the quadric (not spacelike); between -1 and
    1 it is a great 2-sphere (valid); above 1 it is the plane through e1
    spanned by a = 2 e1 + e2 + 1.5 e5 and e3, which meets the quadric only at
    the anchor (2, 0.3), where span(a, e3, e1) has signature (2, 1) and so
    the normal plane is positive definite (not Lorentzian); elsewhere on that
    piece the constraint fails."""
    amb = LorentzAmbient.for_kind(AmbientKind.DE_SITTER, 2)
    e1, a, e3 = np.eye(5)[0], np.array([2.0, 1.0, 0.0, 0.0, 1.5]), np.eye(5)[2]

    def fn(x):
        u, v = x[:, :1], x[:, 1:]
        zero = np.zeros_like(u)
        timelike = np.concatenate([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v),
                                   zero, zero, np.sinh(u)], axis=-1)
        sphere = np.concatenate([np.cos(u) * np.cos(v), np.sin(u) * np.cos(v),
                                 np.sin(v), zero, zero], axis=-1)
        plane = e1 + (u - 2.0) * a + (v - 0.3) * e3
        return np.where(u < -1.0, timelike, np.where(u < 1.0, sphere, plane))

    return LiftedImmersion(amb, Chart(2, [-3.0, -1.0], [3.0, 1.0], (9, 9)), fn,
                           name="patchwork")


def test_mixed_batch_frame_failures_fail_their_rows_alone():
    lift = _patchwork_desitter()
    points = np.array([[-2.0, 0.1], [0.2, 0.4], [2.0, 0.3], [2.5, -0.2],
                       [-1.5, -0.5], [0.5, -0.3]])
    jets = jet2_of(lift.evaluate, points, chart=lift.chart)
    frames = lorentz_frame_rows(lift, points, jets)
    raised = []
    for i, x in enumerate(points):
        try:
            one = lorentz_frame_at(lift, x)
        except GeometryError as exc:
            assert type(frames.errors[i]) is type(exc)
            assert str(frames.errors[i]) == str(exc)
            assert np.all(np.isnan(frames.null_pair[i]))
            raised.append(exc)
            continue
        assert frames.errors[i] is None
        for field in FRAME_FIELDS:
            assert _close(getattr(frames.row(i), field), getattr(one, field)), field
    assert [type(e) for e in raised] == [SpacelikeViolationError, FrameError,
                                         FrameError, SpacelikeViolationError]
    assert "normal plane metric is not Lorentzian" in str(raised[1])
    assert "ambient constraint violated" in str(raised[2])

    # the valid rows are unchanged by the failing rows beside them
    good = [1, 5]
    alone = lorentz_frame_rows(lift, points[good],
                               jet2_of(lift.evaluate, points[good], chart=lift.chart))
    for j, i in enumerate(good):
        for field in FRAME_FIELDS:
            assert np.array_equal(getattr(frames.row(i), field),
                                  getattr(alone.row(j), field)), field
    sff = second_form_rows(lift, frames)
    hvec = mean_curvature_rows(frames, sff)
    sff_alone = second_form_rows(lift, alone)
    assert np.array_equal(sff[good], sff_alone)
    assert np.array_equal(hvec[good], mean_curvature_rows(alone, sff_alone))
    assert np.all(np.isnan(hvec[[0, 2, 3, 4]]))


def _partial_context_lift():
    """The torus lift whose contexts fail at the chart points with x0 > 0."""
    torus = lift_minkowski(shapes.torus(2.0, 1.0))

    @lift_map
    def partial_context(x, k):
        rows = torus.evaluate(x, k)
        if rows.contexts is None:
            return rows
        errors = tuple(FrameError(f"no context at {p}") if p[0] > 0.0 else e
                       for p, e in zip(x[:k], rows.contexts.errors))
        return LiftRows(rows.values, rows.errors, rows.nulls,
                        dataclasses.replace(rows.contexts, errors=errors))

    return dataclasses.replace(torus, eval_fn=partial_context,
                               name="torus-partial-context")


def test_cross_check_failures_are_counted():
    torus = lift_minkowski(shapes.torus(2.0, 1.0))
    report = assemble_report(_partial_context_lift(), resolution=(6, 6))
    failing = [r for r in report.records if r.x[0] > 0.0]
    assert report.excluded_count == 0 and report.verdict == "marginally_trapped"
    assert report.cross_check_failures == len(failing) == 18
    for r in report.records:
        residuals = (r.legendrian_residual, r.lemma_metric_residual,
                     r.lemma_secondform_residual, r.eqH_residual)
        if r.x[0] > 0.0:
            assert residuals == (None,) * 4
        else:
            assert None not in residuals and max(residuals) <= 1e-5
    assert "cross_check_failures: 18" in render_report(report)
    assert assemble_report(torus, resolution=(6, 6)).cross_check_failures == 0


def _stat_of_records(values):
    vals = [v for v in values if v is not None and not math.isnan(v)]
    if not vals:
        return None
    return {"max": max(vals), "median": float(np.median(vals))}


@pytest.mark.parametrize("make", [
    lambda: lift_minkowski(shapes.torus(2.0, 1.0)),
    lambda: lift_minkowski(shapes.torus(2.0, 1.0), offset=0.1),
    lambda: lift_palmer(catalog_lookup("palmer-sphere", {"preset": "round"})[1]),
    _partial_context_lift,
    lambda: catalog_lookup("l1-perturbed")[1],
], ids=["torus", "torus-offset", "palmer-round", "partial-context", "l1-perturbed"])
def test_summary_and_verdict_follow_the_records(make):
    # the report's summary and verdict, recomputed one record at a time
    report = assemble_report(make(), resolution=(6, 6))
    records = report.records
    usable = [r for r in records if not r.excluded]
    residuals = [min(r.null_residual_primary, r.null_residual_opposite) for r in usable]
    assert residuals == [r.null_residual for r in usable]
    assert report.summary == {
        "min_eig_g": _stat_of_records([r.min_eig_g for r in usable]),
        "null_residual": _stat_of_records(residuals),
        "null_residual_primary": _stat_of_records(
            [r.null_residual_primary for r in usable]),
        "hvec_norm_sq": _stat_of_records([abs(r.hvec_norm_sq) for r in usable]),
        "legendrian_residual": _stat_of_records([r.legendrian_residual for r in usable]),
        "lemma_metric_residual": _stat_of_records(
            [r.lemma_metric_residual for r in usable]),
        "lemma_secondform_residual": _stat_of_records(
            [r.lemma_secondform_residual for r in usable]),
        "eqH_residual": _stat_of_records([r.eqH_residual for r in usable]),
    }
    excluded = len(records) - len(usable)
    assert (report.total, report.excluded_count) == (len(records), excluded)
    assert report.spacelike_failures == sum(
        r.reason.startswith("spacelike violation") for r in records)
    if not usable or excluded > 0.5 * len(records):
        verdict = "inconclusive"
    else:
        ok_metric = (report.spacelike_failures == 0
                     and min(r.min_eig_g for r in usable) > DEFAULTS.tol_pd)
        verdict = ("marginally_trapped"
                   if max(residuals) <= DEFAULTS.tol_marginal and ok_metric
                   else "not_marginal")
    assert report.verdict == verdict


@pytest.mark.parametrize("name", ["torus-minkowski", "sphere-torus-product-0",
                                  "chen-l2", "product-height", "palmer-quadric"])
def test_report_reads_construction_data_from_rows(name, monkeypatch):
    # the report takes null normals and contexts from the LiftRows of its
    # grid points, never from one-row calls of the lift
    lift = _lift(name)
    expected = assemble_report(lift, resolution=(5, 5))

    def one_row(*args):
        raise AssertionError("one-row construction data call")

    monkeypatch.setattr(LiftedImmersion, "null_normal", one_row)
    monkeypatch.setattr(LiftedImmersion, "context", one_row)
    report = assemble_report(lift, resolution=(5, 5))
    assert report.records == expected.records
    assert report.cross_check_failures == expected.cross_check_failures


@pytest.mark.parametrize("grid", [(12, 12), (17, 17), (24, 24)])
@pytest.mark.parametrize("name", ["torus-minkowski", "sphere-torus-product-1",
                                  "palmer-quadric"])
def test_report_makes_one_lift_pass(name, grid, monkeypatch):
    # the whole stencil in one lift-map call, which picks and places it in
    # one root solve; lift_palmer solves front frames for the grid points alone
    lift, calls, solved = _lift(name), [], []

    @lift_map
    def counted(x, k):
        calls.append((len(x), k))
        return lift.eval_fn(x, k)

    for solve in ("_root_rows", "frame_rows"):
        def counted_solve(imm, *args, fn=getattr(constructor, solve), label=solve):
            solved.append((label, len(args[-1])))
            return fn(imm, *args)

        monkeypatch.setattr(constructor, solve, counted_solve)
    report = assemble_report(dataclasses.replace(lift, eval_fn=counted), resolution=grid)
    points = grid[0] * grid[1]
    assert calls == [(9 * points, points)]
    assert solved == ([("frame_rows", points)] if name == "palmer-quadric"
                      else [("_root_rows", 9 * points)])
    assert report.total == points and report.verdict == "marginally_trapped"


def test_stacked_jet_calls_its_map_once():
    # the points, then their other stencil rows inside the chart, in one
    # call; a failed point's NaN stays out of the values the map returned
    points = np.array([[0.5, 0.5], [0.3, 0.7], [0.95, 0.2]])
    calls = []

    def fn(x):
        bad = x[:, 1] > 0.75
        values = np.stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]], axis=1)
        values[bad] = np.nan
        calls.append((x, values, bad))
        return Rows(values, [GeometryError("high") if b else None for b in bad])

    for chart in (None, Chart(2, [0.0, 0.0], [1.0, 1.0], (5, 5))):
        calls.clear()
        jets = jet2_of(fn, points, h=0.1, chart=chart)
        (rows, values, bad), = calls
        # with the chart, the third point's three rows at x0 + h leave it
        assert len(rows) == 3 + 3 * 8 - (0 if chart is None else 3)
        assert np.array_equal(rows[:3], points) and not bad[:3].any()
        assert jets.errors[0] is None and isinstance(jets.errors[1], GeometryError)
        assert np.isnan(jets.value[1]).all() and not np.isnan(values[:3]).any()
        assert not np.shares_memory(jets.value, values)
    assert isinstance(jets.errors[2], OutOfDomainError)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_jets_inside_the_chart_match_the_masked_path_bit_for_bit():
    # a report grid keeps every stencil row inside the chart; one point near
    # the edge sends the whole stencil through the masked path, which must
    # give the grid's own rows the same bits
    lift = _lift("torus-minkowski")
    grid = lift.chart.with_resolution((7, 7)).grid(margin=4.0 * DEFAULTS.step_h)
    edge = np.array([[lift.chart.lower[0] + 0.5 * DEFAULTS.step_h, 1.0]])
    inside = jet2_of(lift.evaluate, grid, chart=lift.chart)
    masked = jet2_of(lift.evaluate, np.concatenate([grid, edge]), chart=lift.chart)
    assert inside.errors == (None,) * len(grid)
    assert masked.errors[:-1] == inside.errors
    assert isinstance(masked.errors[-1], OutOfDomainError)
    for name in ("value", "d1", "d2"):
        assert _same_bits(getattr(masked, name)[:-1], getattr(inside, name))


def test_the_all_inside_path_follows_the_stencil_rows(monkeypatch):
    # the chart test reads the rows the map would get, so a wider stencil
    # sends a point within its reach of the edge to OutOfDomainError and
    # never hands the map a row outside the chart
    chart = Chart(2, [0.0, 0.0], [1.0, 1.0], (5, 5))
    points = np.array([[0.5, 0.5], [1.5e-3, 0.5]])
    seen = []

    def fn(x):
        seen.append(x.copy())
        return Rows(np.stack([x[:, 0] ** 2, x[:, 1]], axis=1), [None] * len(x))

    assert jet2_of(fn, points, h=1e-3, chart=chart).errors == (None, None)
    stencil = core._stencil
    monkeypatch.setattr(core, "_stencil", lambda n, h: 2.0 * stencil(n, h))
    seen.clear()
    jets = jet2_of(fn, points, h=1e-3, chart=chart)
    assert jets.errors[0] is None and isinstance(jets.errors[1], OutOfDomainError)
    rows = np.concatenate(seen)
    assert (rows >= chart.lower).all() and (rows <= chart.upper).all()


@pytest.mark.parametrize("edge", [False, True], ids=["all-inside", "masked"])
def test_a_failed_row_leaves_the_maps_own_values_alone(edge):
    chart = Chart(2, [0.0, 0.0], [1.0, 1.0], (5, 5))
    points = np.array([[0.5, 0.5], [0.3, 0.7], [0.4, 0.2]])
    if edge:
        points = np.concatenate([points, [[0.99995, 0.5]]])
    returned = []

    def fn(x):
        values = np.stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]], axis=1)
        bad = np.isclose(x[:, 0], 0.3) & np.isclose(x[:, 1], 0.7)
        values[bad, 0] = np.inf
        returned.append((values, values.copy()))
        return Rows(values, [GeometryError("bad") if b else None for b in bad])

    jets = jet2_of(fn, points, h=1e-4, chart=chart)
    (values, copy), = returned
    assert isinstance(jets.errors[1], GeometryError) and np.isnan(jets.value[1]).all()
    assert jets.errors[0] is None and jets.errors[2] is None
    assert _same_bits(values, copy)
    assert not np.shares_memory(jets.value, values)
