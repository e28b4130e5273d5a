import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlift.core import (
    AsymmetricMatrixError,
    Chart,
    DegenerateMetricError,
    DimensionMismatchError,
    NonFiniteError,
    OutOfDomainError,
    Signature,
    Tolerances,
    bilinear,
    generalized_cross,
    generalized_shape_eigen,
    jet2_of,
    sym_eigen,
)


# ---------------------------------------------------------------- bilinear

def test_bilinear_orthogonal_axes():
    sig = Signature(2, 0)
    assert bilinear(sig, (1, 0), (0, 1)) == 0.0


def test_bilinear_null_vector():
    # a spatial unit vector with a unit time component is null
    sig = Signature(3, 1)
    nu = np.array([0.6, 0.8, 0.0])
    v = np.append(nu, 1.0)
    assert bilinear(sig, v, v) == pytest.approx(0.0, abs=1e-15)


def test_bilinear_two_minus_entries():
    sig = Signature(3, 2)
    v = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    assert bilinear(sig, v, v) == -2.0


def test_bilinear_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        bilinear(Signature(2, 1), (1.0, 2.0), (1.0, 2.0, 3.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.floats(-3, 3))
def test_bilinear_symmetric_and_linear(u, v, a):
    sig = Signature(3, 1)
    u = np.array(u)
    v = np.array(v)
    assert bilinear(sig, u, v) == bilinear(sig, v, u)
    lhs = bilinear(sig, a * u, v)
    rhs = a * bilinear(sig, u, v)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- charts

def test_chart_validation():
    with pytest.raises(OutOfDomainError):
        Chart(1, [0.0], [0.0], (5,))
    with pytest.raises(OutOfDomainError):
        Chart(1, [0.0], [1.0], (2,))


def test_chart_grid_shape_and_order():
    ch = Chart(2, [0.0, 0.0], [1.0, 2.0], (3, 5))
    pts = ch.grid()
    assert pts.shape == (15, 2)
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[-1], [1.0, 2.0])
    # raster order: second axis varies fastest
    assert np.allclose(pts[1], [0.0, 0.5])


# ---------------------------------------------------------------- jets

def test_jet2_linear_map_has_zero_second_derivatives():
    amat = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
    jet = jet2_of(lambda x: x @ amat.T, np.array([[0.3, -0.2]]), h=1e-4).row(0)
    assert np.allclose(jet.d1, amat.T, atol=1e-9)
    assert np.allclose(jet.d2, 0.0, atol=1e-6)


def test_jet2_quadratic_exact_at_dyadic_step():
    # dyadic step and base point keep the stencil arithmetic exact
    h = 2.0 ** -13
    jet = jet2_of(lambda x: np.stack([x[:, 0] ** 2, np.zeros(len(x))], axis=-1),
                  np.array([[0.5]]), h=h).row(0)
    assert jet.d1[0] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert jet.d2[0, 0] == pytest.approx([2.0, 0.0], abs=1e-10)


@pytest.mark.parametrize("h", [2.0 ** -9, 2.0 ** -13, 2.0 ** -16])
def test_jet2_polynomial_relative_accuracy_across_steps(h):
    # degree <= 2 maps are reproduced through the h range given dyadic sampling
    def poly(x):
        u, v = x[:, 0], x[:, 1]
        return np.stack([2.0 * u ** 2 + u * v, v ** 2 - u], axis=-1)

    x = np.array([0.5, -0.25])
    jet = jet2_of(poly, x[None], h=h).row(0)
    d1_exact = np.array([[2.0 * 2.0 * x[0] + x[1], -1.0], [x[0], 2.0 * x[1]]])
    assert np.allclose(jet.d1, d1_exact, rtol=1e-8, atol=1e-12)
    d2_exact = np.zeros((2, 2, 2))
    d2_exact[0, 0] = [4.0, 0.0]
    d2_exact[0, 1] = d2_exact[1, 0] = [1.0, 0.0]
    d2_exact[1, 1] = [0.0, 2.0]
    assert np.allclose(jet.d2, d2_exact, rtol=1e-8, atol=1e-8)


def test_jet2_circle_chart_analytic_oracle():
    jet = jet2_of(lambda t: np.stack([np.cos(t[:, 0]), np.sin(t[:, 0])], axis=-1),
                  np.array([[0.0]]), h=1e-4).row(0)
    assert np.allclose(jet.d1[0], [0.0, 1.0], atol=1e-8)
    assert np.allclose(jet.d2[0, 0], [-1.0, 0.0], atol=1e-7)


def test_jet2_richardson_second_order():
    fn = lambda x: (np.sin(1.3 * x[:, 0]) * np.exp(0.4 * x[:, 1]))[:, None]
    x = np.array([[0.4, -0.3]])
    h = 1e-2
    exact = jet2_of(fn, x, h=1e-4)
    err_h = np.max(np.abs(jet2_of(fn, x, h=h).d2 - exact.d2))
    err_h2 = np.max(np.abs(jet2_of(fn, x, h=h / 2).d2 - exact.d2))
    assert 3.5 < err_h / err_h2 < 4.5


def test_jet2_out_of_domain():
    ch = Chart(1, [0.0], [1.0], (5,))
    with pytest.raises(OutOfDomainError):
        jet2_of(lambda x: x, np.array([[1.0]]), h=1e-3, chart=ch).row(0)
    for h in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfDomainError, match="step h"):
            jet2_of(lambda x: x, np.array([[0.5]]), h=h, chart=ch)


def test_jet2_non_finite():
    with pytest.raises(NonFiniteError):
        jet2_of(lambda x: math.inf * x, np.array([[1.0]]), h=1e-4).row(0)


# ---------------------------------------------------------------- eigen

def test_sym_eigen_identity():
    w, v = sym_eigen(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)


def test_sym_eigen_diagonal():
    w, v = sym_eigen(np.diag([1.0, 3.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_sym_eigen_two_by_two_hand_oracle():
    # characteristic polynomial (2-l)^2 - 1 = 0 -> l = 1, 3
    w, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrixError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(0, 10_000))
def test_sym_eigen_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    m = 0.5 * (a + a.T)
    w, v = sym_eigen(m)
    norm = max(1e-30, np.linalg.norm(m))
    assert np.linalg.norm(m - v @ np.diag(w) @ v.T) <= 1e-10 * norm
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)


# ------------------------------------------------- generalized eigenvalues

def test_shape_eigen_identity_metric():
    k = generalized_shape_eigen(np.eye(2), np.diag([1.0, 3.0]))
    assert np.allclose(k, [1.0, 3.0], atol=1e-12)


def test_shape_eigen_direct_solve_oracle():
    # det(b - k g) = (4 - 4k)(3 - k) = 0 -> k = 1, 3
    k = generalized_shape_eigen(np.diag([4.0, 1.0]), np.diag([4.0, 3.0]))
    assert np.allclose(k, [1.0, 3.0], atol=1e-12)


def test_shape_eigen_totally_geodesic():
    k = generalized_shape_eigen(np.eye(2), np.zeros((2, 2)))
    assert np.allclose(k, [0.0, 0.0], atol=1e-14)


def test_shape_eigen_rejects_degenerate_metric():
    with pytest.raises(DegenerateMetricError):
        generalized_shape_eigen(np.diag([1.0, 0.0]), np.eye(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_shape_eigen_congruence_invariance(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    g = a @ a.T + n * np.eye(n)
    bsym = rng.normal(size=(n, n))
    b = 0.5 * (bsym + bsym.T)
    c = rng.normal(size=(n, n)) + 2 * np.eye(n)
    k1 = generalized_shape_eigen(g, b)
    k2 = generalized_shape_eigen(c.T @ g @ c, c.T @ b @ c)
    assert np.allclose(k1, k2, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------- cross

def test_generalized_cross_r3_matches_cross_product():
    u = np.array([1.0, 0.5, -0.2])
    v = np.array([0.3, -1.0, 0.8])
    assert np.allclose(generalized_cross(np.stack([u, v])), np.cross(u, v))


def test_generalized_cross_orientation():
    vecs = np.eye(4)[:3]
    w = generalized_cross(vecs)
    full = np.vstack([vecs, w])
    assert np.linalg.det(full.T) > 0


# -------------------------------------------------------------- tolerances

def test_every_tolerance_is_read_by_the_library():
    # a field nothing reads as DEFAULTS.<field> is a setting that sets nothing
    source = "".join(path.read_text() for path in
                     (Path(__file__).resolve().parents[1] / "src" / "marlift").glob("*.py"))
    unread = [name for name in Tolerances._fields
              if f"DEFAULTS.{name}" not in source]
    assert unread == []
