"""The root iteration: its stop rule, its brackets and its rows.

The solver's roots are checked against independent oracles (exact rational
breakpoint signs and the closed forms of two-curvature spectra), and the
array root layer is checked to give every row what it gives that row in any
other stack.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from closed_forms import (
    height_ratio,
    hyperbolic_product_closed_roots,
    sphere_product_closed_roots,
)
from marlift import shapes
from marlift.constructor import (
    _BLOCK,
    AmbientKind,
    BracketingError,
    curvature_polynomial,
    lift_hyperbolic_product,
    lift_minkowski,
    lift_sphere_product,
    solve_roots,
)
from marlift.core import Chart, GeometryError, Rows
from marlift.hypersurface import HypersurfaceImmersion, SpaceForm
from marlift.polynomial import PRODUCT_FAMILY, SPACE_FORM_FAMILY, _root_rows

EPS = np.finfo(float).eps


# ------------------------------------------------------- exact sign oracle

def _exact_value(kind, kappas, mults, s):
    """P(s) in exact rational arithmetic from its defining sum."""
    ks = [Fraction(k) for k in kappas]
    total = Fraction(0)
    for i, (k, m) in enumerate(zip(ks, mults)):
        if kind in SPACE_FORM_FAMILY:
            term = Fraction(m)
            for j, kj in enumerate(ks):
                if j != i:
                    term *= 1 / kj - s
        else:
            unit = 1 if kind is AmbientKind.SPHERE_PRODUCT else -1
            term = m * (k * s + unit)
            for j, kj in enumerate(ks):
                if j != i:
                    term *= s - kj
        total += term
    return total


def _sign(v):
    return (v > 0) - (v < 0)


def _expected_count(kind, kappas, mults):
    """Sign changes of P along its breakpoints and, for a non-minimal
    product, its two end behaviours (None: infinite); in the hyperbolic
    product only those whose root has |s| > 1."""
    flat = kind in SPACE_FORM_FAMILY
    points = sorted(1 / Fraction(k) if flat else Fraction(k) for k in kappas)
    signs = [_sign(_exact_value(kind, kappas, mults, s)) for s in points]
    trace = sum(m * Fraction(k) for k, m in zip(kappas, mults))
    if not flat and trace != 0:
        points = [None] + points + [None]
        signs = [_sign(trace) * (-1) ** len(kappas)] + signs + [_sign(trace)]
    brackets = [(points[i], points[i + 1], signs[i], signs[i + 1])
                for i in range(len(points) - 1) if signs[i] * signs[i + 1] < 0]
    if kind is not AmbientKind.HYPERBOLIC_PRODUCT:
        return len(brackets)
    at_unit = {u: _sign(_exact_value(kind, kappas, mults, Fraction(u))) for u in (-1, 1)}
    # the bracket's one root is below -1 if the bracket reaches below -1 and
    # ends there or P changes sign before -1; likewise above 1
    return sum(((a is None or a < -1) and (b is not None and b <= -1 or at_unit[-1] * sa < 0))
               or ((b is None or b > 1) and (a is not None and a >= 1 or at_unit[1] * sb < 0))
               for a, b, sa, sb in brackets)


# ---------------------------------------------------------------- spectra

KINDS = list(AmbientKind)


@st.composite
def spectra(draw, near_minimal=False):
    kind = draw(st.sampled_from(KINDS if not near_minimal else PRODUCT_FAMILY))
    p = draw(st.integers(1, 4))
    mults = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
    kappas = draw(st.lists(st.floats(-4.0, 4.0), min_size=p, max_size=p))
    if near_minimal:
        trace = draw(st.floats(1e-6, 1e-3)) * draw(st.sampled_from([-1.0, 1.0]))
        rest = sum(m * k for k, m in zip(kappas[:-1], mults[:-1]))
        kappas[-1] = (trace - rest) / mults[-1]
        assume(abs(sum(m * k for k, m in zip(kappas, mults)) - trace) <= 1e-9)
    order = np.argsort(kappas)
    kappas = [float(kappas[i]) for i in order]
    mults = [int(mults[i]) for i in order]
    # breakpoints apart from each other, from 0 and, in the hyperbolic
    # product, from the unit band's edge, so the exact signs are robust
    assume(all(b - a > 1e-3 for a, b in zip(kappas, kappas[1:])))
    if kind in SPACE_FORM_FAMILY:
        assume(all(abs(k) > 1e-2 for k in kappas))
        radii = sorted(1.0 / k for k in kappas)
        assume(all(b - a > 1e-3 for a, b in zip(radii, radii[1:])))
    if kind is AmbientKind.HYPERBOLIC_PRODUCT:
        assume(all(abs(abs(k) - 1.0) > 1e-3 for k in kappas))
    if not near_minimal and kind in PRODUCT_FAMILY:
        assume(abs(sum(m * k for k, m in zip(kappas, mults))) > 1e-6)
    return kind, kappas, mults


def _check_solver(kind, kappas, mults):
    poly = curvature_polynomial(kappas, kind, mults=mults)
    roots = solve_roots(poly)           # a row failing at the cap raises
    coeffs = np.asarray(poly.coeffs)
    deg = len(coeffs) - 1
    exact = [Fraction(c) for c in coeffs]
    for r in roots:
        t = r.value
        a, b = r.bracket
        assert a < t < b
        size = sum(abs(c) * abs(t) ** k for k, c in enumerate(coeffs))
        assert abs(poly(t)) <= 8 * (deg + 1) * EPS * size
        # as accurate as the coefficients allow: the exact polynomial of the
        # same coefficients changes sign within the condition bound of t
        slope = abs(sum(k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k))
        reach = 4 * EPS * size / slope + np.spacing(abs(t))
        ends = [sum(c * Fraction(u) ** k for k, c in enumerate(exact))
                for u in (t - reach, t + reach)]
        assert _sign(ends[0]) * _sign(ends[1]) <= 0
    assert len(roots) == _expected_count(kind, kappas, mults)
    return roots


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_solver_properties(spectrum):
    _check_solver(*spectrum)


@settings(max_examples=150, deadline=None)
@given(spectra(near_minimal=True))
def test_solver_properties_near_minimal_products(spectrum):
    _check_solver(*spectrum)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_two_curvature_roots_equal_the_closed_forms(kind, k1, k2):
    k1, k2 = sorted((k1, k2))
    assume(k2 - k1 > 1e-3 and abs(k1 + k2) > 1e-6)
    if kind in SPACE_FORM_FAMILY:
        assume(min(abs(k1), abs(k2)) > 1e-2)
        expected = [height_ratio(k1, k2)]
    elif kind is AmbientKind.SPHERE_PRODUCT:
        expected = sorted(sphere_product_closed_roots(k1, k2))
    else:
        assume(abs(abs(k1) - 1.0) > 1e-3 and abs(abs(k2) - 1.0) > 1e-3)
        expected = sorted(hyperbolic_product_closed_roots(k1, k2))
    got = [r.value for r in _check_solver(kind, [k1, k2], [1, 1])]
    assert len(got) == len(expected)
    for s, want in zip(got, expected):
        assert abs(s - want) <= 1e-12 * (1.0 + abs(want))


def test_a_row_still_running_at_the_cap_names_its_bracket():
    # NaN coefficients never meet the stop rule
    poly = curvature_polynomial([2.0, 3.0], AmbientKind.SPHERE_PRODUCT, mults=[1, 1])
    bad = poly.__class__(poly.ambient_kind, poly.kappas, poly.mults,
                         (math.nan,) * len(poly.coeffs), poly.breakpoints,
                         poly.breakpoint_values, poly.brackets[:1], poly.trace,
                         poly.minimal)
    a, b = bad.brackets[0][:2]
    with pytest.raises(BracketingError,
                       match=f"no root found in the bracket \\({a}, {b}\\) within 200 rounds"):
        solve_roots(bad)


# -------------------------------------------------------- row independence

def _graph3_failing():
    """An n = 3 graph in E^4 whose map fails for x0 > 0.275."""
    def fn(x):
        u, v, w = x.T
        f = 0.5 * (u ** 2 + 2.0 * v ** 2 + 3.5 * w ** 2) + 0.1 * u * v * w
        values = np.concatenate([x, f[:, None]], axis=1)
        bad = u > 0.275
        values[bad] = np.nan
        return Rows(values, [GeometryError(f"no point at {p}") if b else None
                             for p, b in zip(x, bad)])

    chart = Chart(3, [-0.3] * 3, [0.3] * 3, (5, 5, 5))
    return HypersurfaceImmersion(SpaceForm.euclidean(4), chart, fn)


def _umbilic_half():
    """A graph in E^3 that is a unit sphere for x0 < 0, where its
    curvatures cluster to the pattern (1, (2,)) with no flat-family root,
    and a paraboloid with two curvatures and one root elsewhere."""
    def fn(x):
        u, v = x.T
        f = np.where(u < 0.0, 1.0 - np.sqrt(1.0 - (u ** 2 + v ** 2)), 0.5 * u ** 2 + v ** 2)
        return np.concatenate([x, f[:, None]], axis=1)

    chart = Chart(2, [-0.4, -0.4], [0.4, 0.4], (5, 5))
    return HypersurfaceImmersion(SpaceForm.euclidean(3), chart, fn)


ROW_CASES = {
    # values alone: the first _BLOCK rows in one pass, the other 300 in a second
    "torus-minkowski": (lambda: shapes.torus(2.2, 0.8), AmbientKind.MINKOWSKI,
                        lift_minkowski, _BLOCK + 300),
    "sphere-torus-product-0": (lambda: shapes.clifford_torus(1.0), AmbientKind.SPHERE_PRODUCT,
                               lambda imm: lift_sphere_product(imm, 0), 300),
    "sphere-torus-product-1": (lambda: shapes.clifford_torus(1.0), AmbientKind.SPHERE_PRODUCT,
                               lambda imm: lift_sphere_product(imm, 1), 300),
    "equidistant-hyperbolic-product": (lambda: shapes.equidistant_h3(0.8),
                                       AmbientKind.HYPERBOLIC_PRODUCT,
                                       lift_hyperbolic_product, 300),
    "graph3-minkowski": (_graph3_failing, AmbientKind.MINKOWSKI, lift_minkowski, 40),
}


def _stack(chart, count, seed):
    frac = np.random.default_rng(seed).random((count, chart.dim))
    x = chart.lower + (0.05 + 0.9 * frac) * (chart.upper - chart.lower)
    if chart.dim == 3:
        x[7] = [0.285, 0.0, 0.1]             # the one row whose map fails
    return x


def _errors(errors):
    return [None if e is None else (type(e), str(e)) for e in errors]


def _root_layer(imm, kind, x):
    _, _, roots = _root_rows(imm, kind, x)
    return (roots.values, roots.brackets, roots.degenerate, roots.counts,
            _errors(roots.errors))


def _lift_layer(lift, x):
    rows = lift.evaluate(x, 0)
    return rows.values, _errors(rows.errors)


def _assert_same(whole, other):
    for w, o in zip(whole, other):
        if isinstance(w, list):
            assert w == o
        else:
            assert np.array_equal(w, o, equal_nan=True)


def _permuted_and_halves(layer, x, seed):
    """The layer on the whole stack, and on a permutation and on two halves
    of it, both put back in the whole stack's order."""
    whole = layer(x)
    perm = np.random.default_rng(seed).permutation(len(x))
    back = np.argsort(perm)
    permuted = [[part[i] for i in back] if isinstance(part, list) else part[back]
                for part in layer(x[perm])]
    half = len(x) // 2
    first, second = layer(x[:half]), layer(x[half:])
    halves = [a + b if isinstance(a, list) else np.concatenate([a, b])
              for a, b in zip(first, second)]
    return whole, permuted, halves


# a batch of two live multiplicity patterns, whose rows the root solve
# gathers per pattern; a batch of one pattern takes them as a slice
MIXED_CASE = (_umbilic_half, AmbientKind.MINKOWSKI, lift_minkowski, 300)


@pytest.mark.parametrize("name", sorted(ROW_CASES) + ["umbilic-half-minkowski"])
def test_root_rows_do_not_depend_on_their_batch(name):
    make, kind, build, count = ROW_CASES.get(name, MIXED_CASE)
    imm = make()
    x = _stack(imm.chart, count, 17)
    whole, permuted, halves = _permuted_and_halves(lambda y: _root_layer(imm, kind, y), x, 3)
    _assert_same(whole, permuted)
    _assert_same(whole, halves)
    failed = [e for e in whole[4] if e is not None]
    assert len(failed) == (1 if imm.chart.dim == 3 else 0)
    # each pattern's rows alone, and so solved as a slice
    _, spectra, _ = _root_rows(imm, kind, x)
    assert len(spectra.patterns) == (2 if name == "umbilic-half-minkowski" else 1)
    for code in spectra.patterns:
        alone = spectra.code == code
        _assert_same([[part[i] for i in np.flatnonzero(alone)] if isinstance(part, list)
                      else part[alone] for part in whole], _root_layer(imm, kind, x[alone]))


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_lift_rows_do_not_depend_on_their_batch(name):
    make, kind, build, count = ROW_CASES[name]
    lift = build(make())
    x = _stack(lift.chart, count, 29)
    whole, permuted, halves = _permuted_and_halves(lambda y: _lift_layer(lift, y), x, 5)
    _assert_same(whole, permuted)
    _assert_same(whole, halves)
    failed = [e for e in whole[1] if e is not None]
    assert len(failed) == (1 if lift.chart.dim == 3 else 0)
