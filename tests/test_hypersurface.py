import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlift.core import Chart, DimensionMismatchError, Jet2, Signature, bilinear_rows
from marlift.hypersurface import (
    HypersurfaceImmersion,
    ImmersionError,
    ShapeSpectrum,
    SpaceForm,
    frame_at,
    frame_rows,
    mean_gauss_at,
    spectrum_at,
)
from marlift import shapes


def spectrum_of(imm, x):
    return spectrum_at(frame_at(imm, x))


# ---------------------------------------------------------------- frames

def test_flat_plane_has_zero_second_form():
    ch = Chart(2, [-1.0, -1.0], [1.0, 1.0], (5, 5))
    imm = HypersurfaceImmersion(
        SpaceForm.euclidean(3), ch, lambda x: np.concatenate([x, np.zeros((len(x), 1))], axis=1))
    fr = frame_at(imm, [0.2, -0.3])
    assert np.allclose(fr.second_form, 0.0, atol=1e-8)
    assert np.allclose(fr.metric, np.eye(2), atol=1e-9)


def test_unit_sphere_umbilic_with_fixed_rule():
    imm = shapes.round_sphere(1.0)
    sp = spectrum_of(imm, [0.3, -0.2])
    assert sp.p == 1
    assert sp.mults == (2,)
    assert sp.kappas[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
def test_round_sphere_umbilic_inverse_radius(radius):
    imm = shapes.round_sphere(radius)
    sp = spectrum_of(imm, [0.4, 0.1])
    assert sp.p == 1
    assert abs(sp.kappas[0]) == pytest.approx(1.0 / radius, abs=1e-6)


def test_torus_principal_curvatures_oracle():
    # closed forms 1/r and cos u / (R + r cos u) at u = 0 give (1/3, 1)
    imm = shapes.torus(2.0, 1.0)
    sp = spectrum_of(imm, [0.0, 0.7])
    assert sp.p == 2
    assert np.allclose(sp.kappas, [1.0 / 3.0, 1.0], atol=1e-9)

    u = 0.8
    sp2 = spectrum_of(imm, [u, 1.3])
    expected = sorted([1.0, math.cos(u) / (2.0 + math.cos(u))])
    assert np.allclose(sp2.kappas, expected, atol=1e-9)


def test_orientation_flip_negates_curvatures():
    # swapping the chart axes reverses the orientation, so the oriented frame
    # rule picks the opposite normal
    imm = shapes.torus(2.0, 1.0)

    def swapped_jets(x):
        jet = imm.jets(x[:, ::-1])
        return Jet2(value=jet.value, d1=jet.d1[:, ::-1], d2=jet.d2[:, ::-1, ::-1])

    ch = imm.chart
    swapped = HypersurfaceImmersion(
        imm.space, Chart(2, ch.lower[::-1], ch.upper[::-1], ch.resolution[::-1]),
        lambda x: imm.eval_fn(x[:, ::-1]), swapped_jets)
    x = [0.5, 1.0]
    sp = spectrum_at(frame_at(imm, x))
    spf = spectrum_at(frame_at(swapped, x[::-1]))
    assert np.allclose(sorted(spf.raw), sorted([-k for k in sp.raw]), atol=1e-9)


def _s4_hypersurface(x):
    # S^1(cos a) x S^2(sin a) in S^4, a = 0.9
    ca, sa = math.cos(0.9), math.sin(0.9)
    return np.concatenate([ca * np.stack([np.cos(x[:, 0]), np.sin(x[:, 0])], axis=1),
                           sa * shapes.sphere_chart(x[:, 1:])], axis=1)


def _e4_graph(x):
    f = 0.5 * (x[:, 0] ** 2 + 2.0 * x[:, 1] ** 2 + 3.5 * x[:, 2] ** 2) \
        + 0.1 * x[:, 0] * x[:, 1] * x[:, 2]
    return np.concatenate([x, f[:, None]], axis=1)


ORIENTED = {
    **{imm.name: imm for imm in (
        shapes.torus(2.0, 1.0), shapes.round_sphere(1.5), shapes.ellipsoid(),
        shapes.catenoid(), shapes.clifford_torus(1.0), shapes.geodesic_sphere_s3(),
        shapes.geodesic_tube_h3(0.8), shapes.equidistant_h3(0.8))},
    "s4-product": HypersurfaceImmersion(
        SpaceForm.sphere(4), Chart(3, [0.0, -0.8, -0.8], [2.0, 0.8, 0.8], (5, 5, 5)),
        _s4_hypersurface),
    "e4-graph": HypersurfaceImmersion(
        SpaceForm.euclidean(4), Chart(3, [-0.3] * 3, [0.3] * 3, (5, 5, 5)), _e4_graph),
}


@pytest.mark.parametrize("name", sorted(ORIENTED))
def test_orientation_sign_is_the_determinants(name):
    # the space form's constant sign orients every frame as the sign of the
    # determinant of (d phi_1, ..., d phi_n, normal[, phi]) would
    imm = ORIENTED[name]
    ch = imm.chart
    frac = np.random.default_rng(7).random((500 if ch.dim == 2 else 100, ch.dim))
    frames = frame_rows(imm, ch.lower + (0.02 + 0.96 * frac) * (ch.upper - ch.lower))
    assert frames.errors.count(None) == len(frames.x)
    basis = [frames.tangent, frames.normal[:, None, :]]
    if imm.space.quadric_constant is not None:
        basis.append(frames.point[:, None, :])
    det = np.linalg.det(np.concatenate(basis, axis=1))
    assert np.all(det > 1e-3)


def test_rank_deficient_chart_rejected():
    ch = Chart(2, [-1.0, -1.0], [1.0, 1.0], (5, 5))
    imm = HypersurfaceImmersion(
        SpaceForm.euclidean(3), ch, lambda x: np.stack([x[:, 0], x[:, 0], np.zeros(len(x))], axis=1))
    with pytest.raises(ImmersionError):
        frame_at(imm, [0.0, 0.0])


def test_quadric_constraint_tangency():
    for imm in (shapes.clifford_torus(), shapes.geodesic_tube_h3()):
        signs = imm.space.signature.signs
        for x in imm.chart.grid(margin=1e-3)[::37]:
            fr = frame_at(imm, x)
            resid = np.max(np.abs(fr.tangent @ (signs * fr.point)))
            assert resid <= 1e-8
            assert np.max(np.abs(fr.tangent @ (signs * fr.normal))) <= 1e-8


SPACE_FORMS = {"euclidean": SpaceForm.euclidean, "sphere": SpaceForm.sphere,
               "hyperbolic": SpaceForm.hyperbolic}


def _random_jet_immersion(kind, n, rng, count):
    """An immersion of the space form of dimension n + 1 whose jets are
    stacked random rows (C-ordered, as `taylor_jet` and `jet2_of` give
    them) at scales 10^-3 to 10^3, with a symmetric d2."""
    space = SPACE_FORMS[kind](n + 1)
    dim = space.container_dim
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    value = rng.standard_normal((count, dim)) * scale
    d1 = rng.standard_normal((count, n, dim)) * scale[:, :, None]
    d2 = rng.standard_normal((count, n, n, dim)) * scale[:, :, None, None]
    d2 = 0.5 * (d2 + np.swapaxes(d2, 1, 2))
    jet = Jet2(value=value, d1=d1, d2=d2)

    def jets(x):
        return Jet2(value=jet.value[:len(x)], d1=jet.d1[:len(x)], d2=jet.d2[:len(x)])

    chart = Chart(n, [-1.0] * n, [1.0] * n, (3,) * n)
    return HypersurfaceImmersion(space, chart, lambda x: x, jets=jets), jet


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       kind=st.sampled_from(sorted(SPACE_FORMS)))
def test_frame_products_keep_the_per_point_rounding(seed, n, kind):
    """The stacked metric and second form round as one matmul per point,
    rows @ tangent^T and d2 @ (G normal): the lift's values rest on those
    bits, which column sums of the products would not keep."""
    rng = np.random.default_rng(seed)
    imm, jet = _random_jet_immersion(kind, n, rng, 48)
    signs = imm.space.signature.signs
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # asymmetry of failed rows
        frames = frame_rows(imm, np.zeros((48, n)))
        for i in range(48):
            rows = jet.d1[i] * signs
            assert np.array_equal(frames.metric[i], rows @ jet.d1[i].T)
            b = (jet.d2[i] @ (signs * frames.normal[i])[None, :, None])[..., 0]
            assert np.array_equal(frames.second_form[i], 0.5 * (b + b.T), equal_nan=True)

    empty = frame_rows(imm, np.zeros((0, n)))
    dim = imm.space.container_dim
    assert empty.metric.shape == empty.second_form.shape == (0, n, n)
    assert empty.normal.shape == (0, dim) and empty.errors == ()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([3, 4, 5]),
       minus=st.sampled_from([0, 1, 2]), strided=st.booleans())
def test_bilinear_rows_are_two_stacked_dot_products(seed, dim, minus, strided):
    rng = np.random.default_rng(seed)
    sig = Signature.of(dim - minus, minus)
    width = 2 * dim if strided else dim
    u, v = rng.standard_normal((2, 64, width)) * 10.0 ** rng.uniform(-4.0, 4.0, (2, 64, 1))
    u, v = (u[:, ::2], v[:, ::2]) if strided else (u, v)
    p = sig.plus
    dots = ((u[:, None, :p] @ v[:, :p, None])[:, 0, 0]
            - (u[:, None, p:] @ v[:, p:, None])[:, 0, 0])
    assert np.array_equal(bilinear_rows(sig, u, v), dots)


def test_clifford_torus_minimal_spectrum():
    imm = shapes.clifford_torus()
    sp = spectrum_of(imm, [1.0, 2.0])
    assert sp.p == 2
    assert np.allclose(sp.kappas, [-1.0, 1.0], atol=1e-9)


def test_product_torus_spectrum():
    alpha = 1.0
    imm = shapes.clifford_torus(alpha)
    sp = spectrum_of(imm, [0.3, 4.0])
    expected = sorted([math.tan(alpha), -1.0 / math.tan(alpha)])
    assert np.allclose(sp.kappas, expected, atol=1e-8) or \
        np.allclose(sp.kappas, sorted([-v for v in expected]), atol=1e-8)


def test_geodesic_tube_spectrum():
    b = 0.8
    imm = shapes.geodesic_tube_h3(b)
    sp = spectrum_of(imm, [0.4, 0.2])
    expected = sorted([math.tanh(b), 1.0 / math.tanh(b)])
    got = sorted(abs(k) for k in sp.kappas)
    assert np.allclose(got, expected, atol=1e-8)
    assert sp.kappas[0] * sp.kappas[1] > 0  # same side: a tube, not a catenoid


def test_equidistant_surface_umbilic():
    b = 0.8
    imm = shapes.equidistant_h3(b)
    sp = spectrum_of(imm, [0.7, 1.0])
    assert sp.p == 1
    assert abs(sp.kappas[0]) == pytest.approx(math.tanh(b), abs=1e-8)


def test_reparametrization_invariance():
    imm = shapes.torus(2.0, 1.0)
    lin = np.array([[0.5, 0.1], [0.0, 2.0]])   # orientation preserving
    shift = np.array([0.1, -0.2])
    ch = Chart(2, [-1.0, -1.0], [1.0, 1.0], (5, 5))
    rep = HypersurfaceImmersion(imm.space, ch, lambda x: imm.eval_fn(x @ lin.T + shift))
    x = np.array([0.3, 0.4])
    sp_direct = spectrum_of(imm, lin @ x + shift)
    sp_rep = spectrum_of(rep, x)
    assert np.allclose(sp_direct.raw, sp_rep.raw, atol=1e-6)


# ---------------------------------------------------------------- spectra

def test_spectrum_clustering_merges_noise():
    sp = ShapeSpectrum(kappas=(1.0,), mults=(2,), raw=(1.0, 1.0 + 1e-9))
    assert sp.p == 1

    frame = frame_at(shapes.round_sphere(1.0), [0.1, 0.2])
    sp2 = spectrum_at(frame)
    assert sp2.p == 1 and sp2.mults == (2,)


def test_spectrum_distinct_values_kept():
    frame = frame_at(shapes.torus(2.0, 1.0), [0.0, 0.3])
    sp = spectrum_at(frame)
    assert sp.p == 2 and sp.mults == (1, 1)


def test_spectrum_totally_geodesic():
    ch = Chart(2, [-1.0, -1.0], [1.0, 1.0], (5, 5))
    imm = HypersurfaceImmersion(
        SpaceForm.euclidean(3), ch, lambda x: np.concatenate([x, np.zeros((len(x), 1))], axis=1))
    sp = spectrum_of(imm, [0.0, 0.0])
    assert sp.p == 1
    assert sp.kappas[0] == pytest.approx(0.0, abs=1e-8)
    assert sp.mults == (2,)


# ---------------------------------------------------------------- H and K

def test_mean_gauss_umbilic():
    h, k = mean_gauss_at(frame_at(shapes.round_sphere(1.0), [0.2, 0.1]))
    assert h == pytest.approx(1.0, abs=1e-8)
    assert k == pytest.approx(1.0, abs=1e-8)


def test_mean_gauss_torus_ratio():
    h, k = mean_gauss_at(frame_at(shapes.torus(2.0, 1.0), [0.0, 0.5]))
    assert h == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert k == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert h / k == pytest.approx(2.0, abs=1e-8)


def test_mean_gauss_minimal_point():
    h, k = mean_gauss_at(frame_at(shapes.catenoid(), [0.3, 1.0]))
    assert h == pytest.approx(0.0, abs=1e-9)
    assert k < 0


def test_mean_gauss_requires_surface():
    frame = frame_at(shapes.torus(), [0.0, 0.5])
    bad = PointFrameWithN3(frame)
    with pytest.raises(DimensionMismatchError):
        mean_gauss_at(bad)


class PointFrameWithN3:
    """Minimal stand-in with a 3-dimensional tangent block."""

    def __init__(self, frame):
        self.space = frame.space
        self.x = frame.x
        self.point = frame.point
        self.tangent = np.zeros((3, 4))
        self.metric = np.eye(3)
        self.second_form = np.zeros((3, 3))
        self.n = 3
