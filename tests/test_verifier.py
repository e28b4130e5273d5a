import collections
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    support_route_lift,
)
from marlift.catalog import catalog_lookup
from marlift.core import Chart, GeometryError, Rows, Signature, bilinear, jet2_of
from marlift.hypersurface import HypersurfaceImmersion, SpaceForm
from marlift.verifier import (
    FrameError,
    SpacelikeViolationError,
    _normal_plane,
    _plane_pair,
    assemble_report,
    check_mean_curvature_identity,
    check_metric_identity,
    check_second_form_identity,
    lorentz_frame_at,
    lorentz_frame_rows,
    mean_curvature_at,
    second_form_at,
)


def plane_chart(res=6):
    return Chart(2, [-1.0, -1.0], [1.0, 1.0], (res, res))


# ----------------------------------------------------------------- frames

def test_flat_null_lift_frame_null_pair():
    lift = null_lift(flat_slice(plane_chart()), lambda x: np.zeros(len(x)))
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
                          lambda x: np.stack([x[:, 0], x[:, 1], np.zeros(len(x)), 2.0 * x[:, 0]], axis=1))
    with pytest.raises(SpacelikeViolationError):
        lorentz_frame_at(bad, [0.3, 0.1])


def test_timelike_reason_names_its_eigenvalue():
    # g = diag(1 - 4, 1): the eigenvalue -3 lies far below -tol_pd
    amb = LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2)
    bad = LiftedImmersion(amb, plane_chart(5),
                          lambda x: np.stack([x[:, 0], x[:, 1], np.zeros(len(x)), 2.0 * x[:, 0]], axis=1))
    report = assemble_report(bad)
    assert report.spacelike_failures == report.total
    assert all(reason.endswith("(min eigenvalue -3.000e+00)") for reason in report.reasons)


@pytest.mark.parametrize("nudge", ["up", "down", "random"])
def test_reasons_do_not_move_with_the_last_bits_of_the_lift(nudge, monkeypatch):
    """The support route over the round preset has a degenerate metric
    everywhere: its min eigenvalues are round-off, and no reason prints one."""
    lift = support_route_lift(catalog_lookup("palmer-sphere", {"preset": "round"})[1])
    reasons = assemble_report(lift, resolution=(9, 9)).reasons
    assert all(reason.startswith("spacelike violation") for reason in reasons)
    real, rng = LiftedImmersion.evaluate, np.random.default_rng(5)

    def moved(self, x, construction=None):
        rows = real(self, x, construction)
        toward = {"up": np.inf, "down": -np.inf}.get(
            nudge, np.where(rng.random(rows.values.shape) < 0.5, -np.inf, np.inf))
        rows.values = np.nextafter(rows.values, toward)
        return rows

    monkeypatch.setattr(LiftedImmersion, "evaluate", moved)
    assert assemble_report(lift, resolution=(9, 9)).reasons == reasons


def _row_error_is_the_point_error(lift, x):
    """The error of point x in `lorentz_frame_rows`, checked against the one
    `lorentz_frame_at` raises there."""
    points = np.asarray(x, dtype=float)[None]
    frames = lorentz_frame_rows(lift, points, jet2_of(lift.evaluate, points,
                                                      chart=lift.chart))
    with pytest.raises(FrameError) as raised:
        lorentz_frame_at(lift, x)
    assert type(frames.errors[0]) is FrameError
    assert str(frames.errors[0]) == str(raised.value)
    assert np.all(np.isnan(frames.null_pair[0]))
    return str(raised.value)


def test_dependent_tangent_and_constraint_rows_are_degenerate():
    # at z = e1 of de Sitter space with tangents e1 and e2: the point is on
    # the quadric and g = I, but the quadric's normal there is along e1 too
    amb = LorentzAmbient.for_kind(AmbientKind.DE_SITTER, 2)
    lift = LiftedImmersion(amb, plane_chart(),
                           lambda x: np.concatenate([x + [1.0, 0.0], np.zeros((len(x), 3))], axis=1))
    assert "degenerate tangent/constraint system" in _row_error_is_the_point_error(
        lift, [0.0, 0.0])


def test_normal_complement_of_the_wrong_dimension():
    # a surface in the Minkowski space built for n = 3 has a normal space of
    # dimension 3
    amb = LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 3)
    lift = LiftedImmersion(amb, plane_chart(),
                           lambda x: np.concatenate([x, np.zeros((len(x), 3))], axis=1))
    assert _row_error_is_the_point_error(lift, [0.3, 0.1]) == (
        "normal complement has dimension 3, expected 2")


SIGNATURES = {4: [Signature(3, 1)], 5: [Signature(4, 1), Signature(3, 2)],
              6: [Signature(5, 1), Signature(4, 2)]}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([4, 5, 6]),
       near=st.sampled_from([0.0, 1e-3, 1e-1]))
def test_normal_plane_and_null_pair_kernel(seed, dim, near):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((64, dim - 2, dim))
    if near:  # the last row a combination of the others, plus `near` of itself
        rows[:, -1] = (near * rows[:, -1]
                       + (rng.standard_normal((64, 1, dim - 3)) @ rows[:, :-1])[:, 0])
    rows *= 10.0 ** rng.uniform(-6.0, 6.0, (64, dim - 2, 1))
    basis, pivots = _normal_plane(rows)
    assert pivots.shape == (64, dim - 2)

    norms = np.linalg.norm(rows, axis=-1)
    assert np.all(np.abs(rows @ np.swapaxes(basis, -1, -2)) <= 1e-13 * norms[..., None])
    assert np.max(np.abs(basis @ np.swapaxes(basis, -1, -2) - np.eye(2))) <= 1e-14
    # the SVD complement of the unit rows, whose span scaling leaves unchanged;
    # either complement moves by about eps times the unit rows' condition
    # number, so nearly dependent rows get that bound where it exceeds 1e-12
    unit = rows / norms[..., None]
    ref = np.linalg.svd(unit)[2][:, dim - 2:]
    gap = np.max(np.abs(np.swapaxes(basis, -1, -2) @ basis
                        - np.swapaxes(ref, -1, -2) @ ref), axis=(-2, -1))
    eps = np.finfo(float).eps
    assert np.all(gap <= np.maximum(1e-12, 16 * eps * np.linalg.cond(unit)))

    for sig in SIGNATURES[dim]:
        with np.errstate(invalid="ignore"):
            form, w, pair = _plane_pair(basis, sig)
        exact = np.linalg.eigh(form)[0]
        assert np.all(np.abs(w - exact) <= 4 * eps * np.max(np.abs(exact), axis=-1,
                                                            keepdims=True))
        lorentz = (w[:, 0] < -1e-2) & (w[:, 1] > 1e-2)
        # a rotation or reflection of the basis inside the plane
        t, flip = rng.uniform(0.0, 2 * np.pi, 64), rng.choice([-1.0, 1.0], 64)
        turn = np.stack([np.cos(t), -flip * np.sin(t), np.sin(t), flip * np.cos(t)],
                        axis=-1).reshape(64, 2, 2)
        with np.errstate(invalid="ignore"):
            pair2 = _plane_pair(turn @ basis, sig)[2]
        scale = np.max(np.abs(pair[lorentz]), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(pair2[lorentz] - pair[lorentz]) <= 1e-11 * scale)
        null = np.sum(pair[lorentz] * sig.signs * pair[lorentz], axis=-1)
        assert np.all(np.abs(null) <= 1e-11 * scale[..., 0] ** 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([2, 3, 4]),
       kind=st.sampled_from(["independent", "zero", "dependent"]))
def test_column_householder_normal_plane(seed, k, kind):
    """The column Householder QR of rows (P, k, k + 2): its plane is an
    orthonormal complement of the rows, its pivots are LAPACK's |R_jj|, and
    a zero or dependent row fails the frame's rank check."""
    rng = np.random.default_rng(seed)
    # points at scales 10^-6 to 10^6, their rows within a decade of each other
    rows = rng.standard_normal((32, k, k + 2)) * 10.0 ** (
        rng.uniform(-6.0, 6.0, (32, 1, 1)) + rng.uniform(-1.0, 1.0, (32, k, 1)))
    j = int(rng.integers(k))
    if kind == "zero":
        rows[:, j] = 0.0
    elif kind == "dependent":
        others = np.delete(rows, j, axis=1)
        rows[:, j] = (rng.standard_normal((32, 1, k - 1)) @ others)[:, 0]
    basis, pivots = _normal_plane(rows)
    assert basis.shape == (32, 2, k + 2) and pivots.shape == (32, k)

    norms = np.linalg.norm(rows, axis=-1)
    assert np.all(np.abs(rows @ np.swapaxes(basis, -1, -2)) <= 1e-13 * norms[..., None])
    assert np.max(np.abs(basis @ np.swapaxes(basis, -1, -2) - np.eye(2))) <= 1e-13
    # the rank check of `lorentz_frame_rows`
    degenerate = np.min(pivots, axis=-1) <= 1e-10 * np.maximum(1.0, np.max(norms, axis=-1))
    assert np.all(degenerate == (kind != "independent"))
    if kind == "independent":
        r = np.linalg.qr(np.swapaxes(rows, -1, -2), mode="r")
        exact = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        assert np.all(np.abs(pivots - exact) <= 1e-13 * exact)


@pytest.mark.parametrize("make", [lambda: catalog_lookup("chen-l1")[1],
                                  lambda: lift_minkowski(shapes.torus(2.0, 1.0))],
                         ids=["chen-l1", "torus-minkowski"])
def test_report_makes_no_linalg_call_at_n2(make, monkeypatch):
    """At n = 2 the report's frames, normal planes, second forms and
    cross-checks make no per-matrix LAPACK call: the normal plane is a
    column Householder QR and the 2x2 algebra is in closed form."""
    lift, calls = make(), collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("qr", "svd", "eig", "eigh", "eigvals", "eigvalsh", "inv", "solve",
                 "det", "slogdet", "lstsq", "pinv", "cholesky", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    report = assemble_report(lift, resolution=(8, 8))
    assert report.verdict == "marginally_trapped"
    assert calls == {}


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
    lift = null_lift(flat_slice(plane_chart()), lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1])
    x = np.array([0.3, -0.2])
    sff = second_form_at(lift, x)
    nu = lift.null_normal(x)
    hess = np.array([[2.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(sff - hess[:, :, None] * nu[None, None, :])) <= 1e-5


def test_totally_geodesic_lift_second_form_vanishes():
    lift = null_lift(flat_slice(plane_chart()), lambda x: np.zeros(len(x)))
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
        lambda x: np.stack([x[:, 0], x[:, 1], 0.1 * np.sin(x[:, 0]) * np.sin(x[:, 1]),
                            np.zeros(len(x))], axis=1),
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
                                     lambda x: imm.eval_fn(0.5 * x))
    rep1 = assemble_report(lift_minkowski(imm), resolution=(7, 7))
    rep2 = assemble_report(lift_minkowski(remapped), resolution=(7, 7))
    assert rep1.verdict == rep2.verdict == "marginally_trapped"
