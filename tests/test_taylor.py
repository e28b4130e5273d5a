"""Taylor numbers in n variables against closed-form gradients and Hessians."""

import numpy as np
import pytest

from marlift.taylor import Taylor, taylor_jet

RNG = np.random.default_rng(7)
P2 = RNG.uniform(0.4, 1.6, size=(6, 2))
P3 = RNG.uniform(0.4, 1.6, size=(6, 3))


def _check(fn, points, grad, hess):
    """The jet of the scalar map fn against grad (P, n) and hess (P, n, n)."""
    jet = taylor_jet(fn, points)
    assert np.array_equal(jet.value, fn(points))
    np.testing.assert_allclose(jet.d1, grad, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(jet.d2, hess, rtol=1e-13, atol=1e-14)


def _hess(*rows):
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def test_mixed_partials_in_two_variables():
    x, y = P2[:, 0], P2[:, 1]
    s, c = np.sin(x * y), np.cos(x * y)
    _check(lambda p: np.sin(p[:, 0] * p[:, 1]), P2,
           np.stack([y * c, x * c], axis=-1),
           _hess([-y * y * s, c - x * y * s], [c - x * y * s, -x * x * s]))


def test_mixed_partials_in_three_variables():
    x, y, z = P3.T
    e = np.exp(x - z)
    zero = np.zeros_like(x)
    _check(lambda p: p[:, 0] * p[:, 1] * p[:, 2] + np.exp(p[:, 0] - p[:, 2]), P3,
           np.stack([y * z + e, x * z, x * y - e], axis=-1),
           _hess([e, z, y - e], [z, zero, x], [y - e, x, e]))


def test_product_of_two_varying_factors():
    x, y = P2[:, 0], P2[:, 1]
    ex = np.exp(y)
    _check(lambda p: np.sin(p[:, 0]) * np.exp(p[:, 1]), P2,
           np.stack([np.cos(x) * ex, np.sin(x) * ex], axis=-1),
           _hess([-np.sin(x) * ex, np.cos(x) * ex], [np.cos(x) * ex, np.sin(x) * ex]))


def test_quotient_of_two_varying_factors():
    x, y = P2[:, 0], P2[:, 1]
    zero = np.zeros_like(x)
    _check(lambda p: p[:, 0] / p[:, 1], P2,
           np.stack([1.0 / y, -x / y ** 2], axis=-1),
           _hess([zero, -1.0 / y ** 2], [-1.0 / y ** 2, 2.0 * x / y ** 3]))


def test_power_with_a_varying_exponent():
    x, y = P2[:, 0], P2[:, 1]
    v, lg = x ** y, np.log(x)
    _check(lambda p: p[:, 0] ** p[:, 1], P2,
           np.stack([y * x ** (y - 1), v * lg], axis=-1),
           _hess([y * (y - 1) * x ** (y - 2), x ** (y - 1) * (1 + y * lg)],
                 [x ** (y - 1) * (1 + y * lg), v * lg * lg]))


@pytest.mark.parametrize("join", [
    lambda parts: np.stack(parts, axis=-1),
    lambda parts: np.stack(parts, 1),
    lambda parts: np.concatenate([q[:, None] for q in parts], axis=-1),
    lambda parts: np.concatenate([q[:, None] for q in parts], axis=1),
], ids=["stack-1", "stack1", "concatenate-1", "concatenate1"])
def test_stack_and_concatenate_join_component_jets(join):
    comps = [lambda p: p[:, 0] * p[:, 1], lambda p: np.cos(p[:, 1]),
             lambda p: np.full(len(p), 2.5)]
    jet = taylor_jet(lambda p: join([f(p) for f in comps]), P2)
    assert jet.value.shape == (6, 3) and jet.d1.shape == (6, 2, 3)
    assert jet.d2.shape == (6, 2, 2, 3)
    for k, f in enumerate(comps):
        one = taylor_jet(f, P2)
        assert np.array_equal(jet.value[:, k], one.value)
        assert np.array_equal(jet.d1[..., k], one.d1)
        assert np.array_equal(jet.d2[..., k], one.d2)
    assert not jet.d1[..., 2].any() and not jet.d2[..., 2].any()


def test_column_indexing_of_variables_and_values():
    jet = taylor_jet(lambda p: p[:, ::-1], P3)
    assert np.array_equal(jet.value, P3[:, ::-1])
    assert np.array_equal(jet.d1, np.broadcast_to(np.eye(3)[:, ::-1], (6, 3, 3)))
    assert not jet.d2.any()
    # a variable's column depends on that variable alone, with unit slope
    x = Taylor.variable(P3)
    assert x[:, 1].d1 == {1: 1.0} and not x[:, 1].d2
    # a column of a vector value is the jet of that component
    both = lambda p: np.stack([np.sin(p[:, 0]), p[:, 1] * p[:, 2]], axis=-1)
    col = taylor_jet(lambda p: both(p)[:, 1], P3)
    assert np.array_equal(col.value, P3[:, 1] * P3[:, 2])
    np.testing.assert_array_equal(col.d1, np.stack([0 * P3[:, 0], P3[:, 2], P3[:, 1]], -1))
    np.testing.assert_array_equal(col.d2, np.broadcast_to(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], (6, 3, 3)))
    # one row of the points axis keeps the gradient of every variable
    row = x[2]
    assert np.array_equal(row.v, P3[2])
    assert all(np.array_equal(row.d1[i], np.eye(3)[i]) for i in range(3))


def test_constants_broadcast_against_the_value():
    m = np.array([1.5, -2.0, 0.25])
    jet = taylor_jet(lambda p: m * np.stack([p[:, 0], p[:, 1], p[:, 0] * p[:, 1]], -1)
                     + 1.0, P2)
    x, y = P2.T
    assert np.array_equal(jet.value, m * np.stack([x, y, x * y], -1) + 1.0)
    np.testing.assert_array_equal(jet.d1[:, 0], m * np.stack([1 + 0 * x, 0 * x, y], -1))
    np.testing.assert_array_equal(jet.d2[:, 0, 1], np.broadcast_to([0.0, 0.0, 0.25], (6, 3)))
    # a constant with more axes than the value spreads the derivatives too
    t = (np.arange(4.0)[:, None] * Taylor.variable(P2)[:, 1]) / 2.0
    assert t.v.shape == (4, 6) and set(t.d1) == {1} and not t.d2
    np.testing.assert_array_equal(np.broadcast_to(t.d1[1], (4, 6)),
                                  np.broadcast_to(np.arange(4.0)[:, None] / 2.0, (4, 6)))
