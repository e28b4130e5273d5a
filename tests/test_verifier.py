import dataclasses
import math

import numpy as np
import pytest

from marlift import shapes
from marlift.constructor import (
    AmbientKind,
    LiftedImmersion,
    LiftRows,
    LorentzAmbient,
    flat_slice,
    graph_lift,
    lift_map,
    lift_minkowski,
    lift_sphere_product,
    null_lift,
    product_height_lift,
)
from marlift.core import Chart, GeometryError, Rows, bilinear
from marlift.hypersurface import HypersurfaceImmersion, SpaceForm
from marlift.verifier import (
    SpacelikeViolationError,
    assemble_report,
    check_mean_curvature_identity,
    check_metric_identity,
    check_second_form_identity,
    lorentz_frame_at,
    mean_curvature_at,
    second_form_at,
)


def plane_chart(res=6):
    return Chart(2, [-1.0, -1.0], [1.0, 1.0], (res, res))


# ----------------------------------------------------------------- frames

def test_flat_null_lift_frame_null_pair():
    lift = null_lift(flat_slice(plane_chart()), lambda x: 0.0)
    fr = lorentz_frame_at(lift, [0.1, 0.2])
    sig = lift.ambient.signature
    for v in fr.null_pair:
        assert abs(bilinear(sig, v, v)) <= 1e-8
        assert np.max(np.abs(fr.tangent @ (sig.signs * v))) <= 1e-8
    # the pair is (nu0, 1) and (-nu0, 1) up to scale
    spatial = np.array(sorted(fr.null_pair[:, 2]))
    assert np.allclose(spatial, [-1.0, 1.0], atol=1e-8)
    assert np.allclose(fr.null_pair[:, 3], 1.0, atol=1e-8)


def test_constructor_lift_primary_null_matches_stored():
    lift = lift_minkowski(shapes.torus(2.0, 1.0))
    x = [0.4, 1.2]
    fr = lorentz_frame_at(lift, x)
    stored = lift.null_normal(x)
    sig = lift.ambient.signature
    pairings = [abs(bilinear(sig, v, stored)) for v in fr.null_pair]
    best = fr.null_pair[int(np.argmin(pairings))]
    assert np.max(np.abs(best - stored)) <= 1e-6


def test_timelike_perturbation_detected():
    amb = LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2)
    bad = LiftedImmersion(amb, plane_chart(),
                          lambda x: np.array([x[0], x[1], 0.0, 2.0 * x[0]]))
    with pytest.raises(SpacelikeViolationError):
        lorentz_frame_at(bad, [0.3, 0.1])


def test_null_frame_validity_over_grid():
    lift = lift_minkowski(shapes.torus(2.0, 1.0))
    sig = lift.ambient.signature
    for x in lift.chart.grid(margin=0.01)[::83]:
        fr = lorentz_frame_at(lift, x)
        for v in fr.null_pair:
            assert abs(bilinear(sig, v, v)) <= 1e-8
            assert np.max(np.abs(fr.tangent @ (sig.signs * v))) <= 1e-8


# ------------------------------------------------------------ second form

def test_null_lift_second_form_is_hessian_times_null():
    lift = null_lift(flat_slice(plane_chart()), lambda x: x[0] ** 2 + x[0] * x[1])
    x = np.array([0.3, -0.2])
    sff = second_form_at(lift, x)
    nu = lift.null_normal(x)
    hess = np.array([[2.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(sff - hess[:, :, None] * nu[None, None, :])) <= 1e-5


def test_totally_geodesic_lift_second_form_vanishes():
    lift = null_lift(flat_slice(plane_chart()), lambda x: 0.0)
    sff = second_form_at(lift, [0.1, 0.4])
    assert np.max(np.abs(sff)) <= 1e-8


def test_minkowski_lift_principal_second_form_values():
    # torus chart directions are principal: h(e_i, e_i) = k_i (1 - tau k_i)
    imm = shapes.torus(2.0, 1.0)
    lift = lift_minkowski(imm)
    x = np.array([0.0, 0.9])
    ctx = lift.context(x)
    sff = second_form_at(lift, x)
    sig = lift.ambient.signature
    nu = lift.null_normal(x)
    measured = sff @ (sig.signs * nu)
    g = ctx.frame.metric
    tau = ctx.tau
    kappas = [ctx.frame.second_form[i, i] / g[i, i] for i in range(2)]
    for i in range(2):
        expected = kappas[i] * (1.0 - tau * kappas[i]) * g[i, i]
        assert measured[i, i] == pytest.approx(expected, abs=1e-6)
    assert abs(measured[0, 1]) <= 1e-6


# ---------------------------------------------------------- mean curvature

def test_catenoid_lift_is_minimal():
    lift = lift_minkowski(shapes.catenoid())
    x = [0.2, 1.0]
    ctx = lift.context(x)
    assert ctx.tau == pytest.approx(0.0, abs=1e-9)
    hvec = mean_curvature_at(lift, x)
    assert np.max(np.abs(hvec)) <= 1e-5


def test_torus_lift_null_component_vanishes():
    lift = lift_minkowski(shapes.torus(2.0, 1.0))
    x = [0.5, 2.0]
    hvec = mean_curvature_at(lift, x)
    sig = lift.ambient.signature
    assert abs(bilinear(sig, hvec, lift.null_normal(x))) <= 1e-6


def test_nonroot_height_fails():
    lift = lift_minkowski(shapes.torus(2.0, 1.0), offset=0.1)
    x = [0.5, 2.0]
    hvec = mean_curvature_at(lift, x)
    sig = lift.ambient.signature
    assert abs(bilinear(sig, hvec, lift.null_normal(x))) > 1e-3


def test_marginality_component_identity():
    # B(H,H) = 2 B(H,a) B(H,b) / B(a,b) for the extracted null pair
    lift = lift_minkowski(shapes.torus(2.0, 1.0), offset=0.05)
    x = [0.3, 1.1]
    fr = lorentz_frame_at(lift, x)
    hvec = mean_curvature_at(lift, x)
    sig = lift.ambient.signature
    hh = bilinear(sig, hvec, hvec)
    ha = bilinear(sig, hvec, fr.null_pair[0])
    hb = bilinear(sig, hvec, fr.null_pair[1])
    assert hh == pytest.approx(2.0 * ha * hb / fr.null_product, rel=1e-6, abs=1e-9)


# ------------------------------------------------------------- identities

def test_eqh_closed_form_arithmetic():
    from marlift.verifier import _closed_mean_component

    val = _closed_mean_component(AmbientKind.MINKOWSKI, (1.0 / 3.0, 1.0), 2.0, None)
    assert val == pytest.approx(0.0, abs=1e-14)
    # tau = 0 reduces to the Euclidean mean curvature
    val0 = _closed_mean_component(AmbientKind.MINKOWSKI, (1.0 / 3.0, 1.0), 0.0, None)
    assert val0 == pytest.approx(0.5 * (1.0 / 3.0 + 1.0), abs=1e-14)
    # Clifford torus at s = 0
    vals = _closed_mean_component(AmbientKind.SPHERE_PRODUCT, (-1.0, 1.0),
                                  math.pi / 2, 0.0)
    assert vals == pytest.approx(0.0, abs=1e-14)


def test_identities_on_torus_lift():
    lift = lift_minkowski(shapes.torus(2.0, 1.0))
    for x in ([0.0, 0.4], [0.6, 2.2], [-0.9, 5.0]):
        assert check_metric_identity(lift, x) <= 1e-6
        assert check_second_form_identity(lift, x) <= 1e-6
        assert check_mean_curvature_identity(lift, x) <= 1e-6


def test_metric_identity_at_zero_height():
    imm = shapes.torus(2.0, 1.0)
    lift = graph_lift(imm, AmbientKind.MINKOWSKI,
                      lambda fr: Rows(np.zeros(len(fr.x)), list(fr.errors)))
    x = [0.2, 0.8]
    fr = lorentz_frame_at(lift, x)
    ctx = lift.context(x)
    assert np.max(np.abs(fr.metric - ctx.frame.metric)) <= 1e-7


def test_constant_height_product_control_fails():
    imm = shapes.clifford_torus(1.0)   # non-minimal
    lift = product_height_lift(imm, 0.4, AmbientKind.SPHERE_PRODUCT)
    x = [1.0, 2.0]
    hvec = mean_curvature_at(lift, x)
    sig = lift.ambient.signature
    assert abs(bilinear(sig, hvec, lift.null_normal(x))) > 1e-3


# ---------------------------------------------------------------- reports

def test_report_torus_pass_and_fields():
    lift = lift_minkowski(shapes.torus(2.0, 1.0))
    rep = assemble_report(lift, resolution=(6, 6))
    assert rep.verdict == "marginally_trapped"
    assert rep.excluded_count == 0
    assert rep.summary["null_residual"]["max"] <= 1e-5
    assert rep.summary["eqH_residual"]["max"] <= 1e-5
    assert rep.summary["lemma_metric_residual"]["max"] <= 1e-5
    assert rep.summary["lemma_secondform_residual"]["max"] <= 1e-5
    assert rep.summary["legendrian_residual"]["max"] <= 1e-8


def test_report_random_graph_not_marginal():
    amb = LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2)
    graph = LiftedImmersion(
        amb, plane_chart(),
        lambda x: np.array([x[0], x[1], 0.1 * math.sin(x[0]) * math.sin(x[1]), 0.0]),
        name="random-graph")
    rep = assemble_report(graph, resolution=(6, 6))
    assert rep.verdict == "not_marginal"
    assert rep.summary["null_residual"]["max"] > 1e-3


def test_report_inconclusive_when_mostly_excluded():
    # the rows with x0 > -0.9 fail, and each point they reach is excluded
    # with their error as its reason
    torus = lift_minkowski(shapes.torus(2.0, 1.0))

    @lift_map
    def mostly_failing(x, k):
        rows = torus.evaluate(x, k)
        bad = x[:, 0] > -0.9
        errors = [GeometryError(f"row fails at {p}") if b else e
                  for p, b, e in zip(x, bad, rows.errors)]
        values = np.where(bad[:, None], np.nan, rows.values)
        return LiftRows(values, errors, rows.nulls, rows.contexts)

    lift = dataclasses.replace(torus, eval_fn=mostly_failing, name="torus-mostly-failing")
    rep = assemble_report(lift, resolution=(6, 6))
    assert rep.verdict == "inconclusive"
    assert 0.5 * rep.total < rep.excluded_count < rep.total
    assert all(r.reason.startswith("GeometryError: row fails at")
               for r in rep.records if r.excluded)


def test_verdict_scale_invariant_under_chart_rescaling():
    imm = shapes.torus(2.0, 1.0)
    ch = imm.chart
    doubled = Chart(2, 2.0 * ch.lower, 2.0 * ch.upper, (7, 7))
    remapped = HypersurfaceImmersion(imm.space, doubled,
                                     lambda x: imm(0.5 * x))
    rep1 = assemble_report(lift_minkowski(imm), resolution=(7, 7))
    rep2 = assemble_report(lift_minkowski(remapped), resolution=(7, 7))
    assert rep1.verdict == rep2.verdict == "marginally_trapped"
