import math

import numpy as np
import pytest

from marlift import shapes
from marlift.catalog import catalog_lookup
from marlift.constructor import (
    AmbientKind,
    FilteredRootError,
    UnsupportedAmbientError,
    arccot,
    flat_slice,
    graph_lift,
    hyperbolic_slice,
    lift_antidesitter,
    lift_desitter,
    lift_hyperbolic_product,
    lift_minkowski,
    lift_sphere_product,
    null_lift,
    product_lifts,
    roots_at,
    space_form_lifts,
    spherical_slice,
    thread_root_fields,
)
from marlift.core import Chart, bilinear
from marlift.hypersurface import (
    HypersurfaceImmersion,
    SpaceForm,
    frame_at,
    mean_gauss_at,
    spectrum_at,
)
from marlift.verifier import assemble_report


def constraint_max(lift, stride=29):
    return max(lift.ambient.constraint_residual(lift(x))
               for x in lift.chart.grid(margin=0.01)[::stride])


# ---------------------------------------------------------------- flat family

def test_torus_lift_height_is_curvature_ratio():
    imm = shapes.torus(2.0, 1.0)
    lift = lift_minkowski(imm)
    for x in ([0.0, 0.5], [0.7, 2.0], [-1.0, 4.0]):
        ctx = lift.context(np.asarray(x))
        hmean, kgauss = mean_gauss_at(frame_at(imm, x))
        assert ctx.tau == pytest.approx(hmean / kgauss, abs=1e-9)


def test_sphere_has_empty_flat_family():
    assert space_form_lifts(shapes.round_sphere(1.0), AmbientKind.MINKOWSKI) == []


def test_catenoid_lift_sits_at_zero_height():
    lift = lift_minkowski(shapes.catenoid())
    val = lift([0.3, 1.2])
    assert val[-1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("build", [
    lambda: lift_minkowski(shapes.clifford_torus()),
    lambda: space_form_lifts(shapes.equidistant_h3(), AmbientKind.MINKOWSKI),
    lambda: product_lifts(shapes.torus(), AmbientKind.HYPERBOLIC_PRODUCT),
    lambda: thread_root_fields(shapes.torus(), AmbientKind.HYPERBOLIC_PRODUCT),
], ids=["lift_minkowski", "space_form_lifts", "product_lifts",
        "thread_root_fields"])
def test_flat_lift_rejects_wrong_space_form(build):
    with pytest.raises(UnsupportedAmbientError):
        build()


# ------------------------------------------------------------------- dS / AdS

def test_desitter_lift_constraint_and_verdict():
    lift = lift_desitter(shapes.clifford_torus(1.0))
    assert constraint_max(lift) <= 1e-8
    rep = assemble_report(lift, resolution=(5, 5))
    assert rep.verdict == "marginally_trapped"
    assert rep.summary["null_residual"]["max"] <= 1e-6


def test_antidesitter_lift_constraint_and_verdict():
    lift = lift_antidesitter(shapes.geodesic_tube_h3(0.8))
    assert constraint_max(lift) <= 1e-8
    rep = assemble_report(lift, resolution=(5, 5))
    assert rep.verdict == "marginally_trapped"


def test_null_lift_desitter_constraint():
    sl = spherical_slice(Chart(2, [-1.0, -1.0], [1.0, 1.0], (5, 5)))
    lift = null_lift(sl, lambda x: np.full(len(x), 0.7))
    assert constraint_max(lift, stride=7) <= 1e-12
    nu = lift.null_normal(np.array([0.0, 0.0]))
    assert bilinear(lift.ambient.signature, nu, nu) == pytest.approx(0.0, abs=1e-14)


# ------------------------------------------------------------- sphere product

def test_clifford_lift_is_normal_torus_at_equator_height():
    imm = shapes.clifford_torus()
    lift = lift_sphere_product(imm)
    x = np.array([1.1, 2.3])
    frame = frame_at(imm, x)
    val = lift(x)
    assert np.allclose(val[:4], frame.normal, atol=1e-10)
    assert val[4] == pytest.approx(math.pi / 2, abs=1e-10)
    assert constraint_max(lift) <= 1e-8


def test_sphere_product_two_lifts_nonminimal():
    imm = shapes.clifford_torus(1.0)
    lifts = product_lifts(imm, AmbientKind.SPHERE_PRODUCT)
    assert len(lifts) == 2
    for lift in lifts:
        assert constraint_max(lift, stride=47) <= 1e-8
        rep = assemble_report(lift, resolution=(5, 5))
        assert rep.verdict == "marginally_trapped"


def test_sphere_product_heights_in_branch():
    imm = shapes.clifford_torus(1.0)
    for lift in product_lifts(imm, AmbientKind.SPHERE_PRODUCT):
        height = lift([0.4, 0.9])[-1]
        assert 0.0 < height < math.pi


# --------------------------------------------------------- hyperbolic product

def test_equidistant_lift_and_height():
    b = 0.8
    imm = shapes.equidistant_h3(b)
    lifts = product_lifts(imm, AmbientKind.HYPERBOLIC_PRODUCT)
    assert len(lifts) == 1
    lift = lifts[0]
    assert constraint_max(lift) <= 1e-8
    # |s| = coth(b) regardless of the orientation the frame rule picked
    ctx = lift.context(np.array([0.7, 1.0]))
    assert abs(ctx.s) == pytest.approx(1.0 / math.tanh(b), abs=1e-8)
    rep = assemble_report(lift, resolution=(5, 5))
    assert rep.verdict == "marginally_trapped"


def test_geodesic_tube_admits_no_product_lift():
    # curvatures coth(r), tanh(r) give a = tanh(2r) < 1: no kept roots
    imm = shapes.geodesic_tube_h3(0.8)
    assert product_lifts(imm, AmbientKind.HYPERBOLIC_PRODUCT) == []


def test_hyperbolic_product_rejects_bad_root_index():
    imm = shapes.equidistant_h3(0.8)
    with pytest.raises(FilteredRootError):
        lift_hyperbolic_product(imm, root_index=5)


# ------------------------------------------------------------ chen examples

def test_chen_l4_null_projection_is_totally_geodesic():
    _, lift = catalog_lookup("chen-l4")

    def phi(x):
        psi = lift.evaluate(x, 0).values
        tau = psi[:, 4:]
        nu = np.array([-1.0, 0.0, 1.0, -1.0])
        return psi[:, :4] - tau * nu

    ch = lift.chart
    imm = HypersurfaceImmersion(SpaceForm.hyperbolic(3), ch, phi)
    for x in ch.grid(margin=0.01)[::53]:
        fr = frame_at(imm, x)
        assert np.max(np.abs(fr.second_form)) <= 1e-6


def test_chen_l1_matches_null_lift_of_plane():
    _, lift = catalog_lookup("chen-l1", {"f": "x**2"})
    ch = lift.chart
    direct = null_lift(flat_slice(ch), lambda x: x[:, 0] ** 2)
    for x in ch.grid(margin=0.01)[::67]:
        assert np.allclose(lift(x), direct(x), atol=1e-12)


def test_chen_l2_spacelike_and_trapped():
    _, lift = catalog_lookup("chen-l2")
    rep = assemble_report(lift, resolution=(6, 6))
    assert rep.verdict == "marginally_trapped"
    assert rep.summary["null_residual"]["max"] <= 1e-6


def test_chen_l3_reduces_to_spherical_null_lift():
    _, lift = catalog_lookup("chen-l3", {"f": "2+sin(x)"})
    sl = spherical_slice(lift.chart)
    direct = null_lift(sl, lambda x: (2.0 + np.sin(x[:, 0])) * np.cos(x[:, 1]))
    for x in lift.chart.grid(margin=0.01)[::67]:
        assert np.allclose(lift(x), direct(x), atol=1e-12)


# --------------------------------------------- lemma oracles across the corpus

@pytest.mark.parametrize("entry,kind", [
    ("torus", AmbientKind.MINKOWSKI),
    ("catenoid", AmbientKind.MINKOWSKI),
    ("ellipsoid", AmbientKind.MINKOWSKI),
    ("sphere-torus", AmbientKind.DE_SITTER),
    ("hyperbolic-tube", AmbientKind.ANTI_DE_SITTER),
    ("clifford-torus", AmbientKind.SPHERE_PRODUCT),
    ("sphere-torus", AmbientKind.SPHERE_PRODUCT),
    ("small-sphere", AmbientKind.SPHERE_PRODUCT),
    ("equidistant", AmbientKind.HYPERBOLIC_PRODUCT),
])
def test_lemma_oracles_on_catalog_lifts(entry, kind):
    from marlift.catalog import catalog_lookup

    _, imm = catalog_lookup(entry)
    if kind in (AmbientKind.MINKOWSKI, AmbientKind.DE_SITTER,
                AmbientKind.ANTI_DE_SITTER):
        lifts = space_form_lifts(imm, kind)
    else:
        lifts = product_lifts(imm, kind)
    assert lifts, f"{entry} admits no {kind.value} lifts"
    for lift in lifts:
        rep = assemble_report(lift, resolution=(5, 5))
        assert rep.verdict == "marginally_trapped"
        for key in ("lemma_metric_residual", "lemma_secondform_residual",
                    "eqH_residual", "null_residual"):
            assert rep.summary[key]["max"] <= 1e-5, (entry, kind, key)


# ----------------------------------------------------------- n = 3 sanity run

def test_three_dimensional_rotational_hypersurface_of_s4():
    # (cos a e^{iu}, sin a X(v,w)): curvature pattern (p=2, mults (1,2))
    alpha = 0.9
    ca, sa = math.cos(alpha), math.sin(alpha)
    ch = Chart(3, [0.0, -0.8, -0.8], [2.0, 0.8, 0.8], (5, 5, 5))

    def fn(x):
        u = x[:, 0]
        s2 = shapes.sphere_chart(x[:, 1:])
        return np.concatenate([ca * np.stack([np.cos(u), np.sin(u)], axis=1), sa * s2], axis=1)

    imm = HypersurfaceImmersion(SpaceForm.sphere(4), ch, fn, name="s4-rotational")
    frame = frame_at(imm, [0.5, 0.2, -0.1])
    sp = spectrum_at(frame)
    assert sp.p == 2
    assert tuple(sorted(sp.mults)) == (1, 2)
    kappas = sorted(abs(k) for k in sp.kappas)
    assert kappas == pytest.approx(sorted([math.tan(alpha), 1.0 / math.tan(alpha)]),
                                   abs=1e-7)

    lifts = product_lifts(imm, AmbientKind.SPHERE_PRODUCT)
    assert len(lifts) >= 1
    rep = assemble_report(lifts[0], resolution=(4, 4, 4))
    assert rep.verdict == "marginally_trapped"
