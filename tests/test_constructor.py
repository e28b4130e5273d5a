import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    height_ratio,
    hyperbolic_product_closed_roots,
    sphere_product_closed_roots,
)
from marlift import constructor, shapes
from marlift.constructor import (
    AmbientKind,
    BracketingError,
    FilteredRootError,
    LorentzAmbient,
    PatternChangeError,
    UnsupportedAmbientError,
    VanishingCurvatureError,
    arccot,
    arccoth,
    curvature_polynomial,
    roots_at,
    solve_roots,
    thread_root_fields,
)
from marlift.core import Chart, GeometryError, Rows
from marlift.hypersurface import HypersurfaceImmersion, SpaceForm, SpectrumRows
from marlift.polynomial import _Roots


def poly_roots(kappas, mults, kind, **kw):
    poly = curvature_polynomial(kappas, kind, mults=mults, **kw)
    return poly, solve_roots(poly)


# ------------------------------------------------------------- flat family

def test_flat_two_curvatures_root_is_mean_radius():
    poly, roots = poly_roots([1.0, 1.0 / 3.0], [1, 1], AmbientKind.MINKOWSKI)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(2.0, abs=1e-12)
    assert roots[0].value == pytest.approx(height_ratio(1.0, 1.0 / 3.0), abs=1e-12)


def test_flat_three_curvatures_quadratic_oracle():
    # radii (1, 2, 4): P(t) = 3 t^2 - 14 t + 14, roots (7 +- sqrt 7)/3
    poly, roots = poly_roots([1.0, 0.5, 0.25], [1, 1, 1], AmbientKind.MINKOWSKI)
    assert np.allclose(sorted(poly.coeffs), sorted([14.0, -14.0, 3.0]), atol=1e-12)
    expected = sorted([(7.0 - math.sqrt(7.0)) / 3.0, (7.0 + math.sqrt(7.0)) / 3.0])
    got = [r.value for r in roots]
    assert np.allclose(got, expected, atol=1e-10)
    assert 1.0 < got[0] < 2.0 and 2.0 < got[1] < 4.0
    for r in roots:
        assert r.bracket[0] < r.value < r.bracket[1]


def test_flat_breakpoint_signs_alternate():
    poly = curvature_polynomial([2.0, 0.8, -0.5, 0.1], AmbientKind.MINKOWSKI,
                                mults=[1, 2, 1, 1])
    signs = [math.copysign(1.0, v) for v in poly.breakpoint_values]
    assert all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))


def test_flat_umbilic_spectrum_has_no_roots():
    poly, roots = poly_roots([1.0], [2], AmbientKind.MINKOWSKI)
    assert roots == []
    assert poly.brackets == ()


def test_flat_minimal_spectrum_has_zero_root():
    _, roots = poly_roots([-0.7, 0.7], [1, 1], AmbientKind.MINKOWSKI)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(0.0, abs=1e-14)


def test_flat_rejects_vanishing_curvature():
    with pytest.raises(VanishingCurvatureError):
        curvature_polynomial([1.0, 1e-9], AmbientKind.MINKOWSKI, mults=[1, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_flat_root_count_is_p_minus_one(p, seed):
    rng = np.random.default_rng(seed)
    while True:
        kappas = rng.uniform(-3.0, 3.0, size=p)
        if np.all(np.abs(kappas) > 0.05) and \
                np.min(np.diff(np.sort(1.0 / kappas))) > 0.05:
            break
    mults = rng.integers(1, 4, size=p)
    poly, roots = poly_roots(list(kappas), list(mults), AmbientKind.MINKOWSKI)
    assert len(roots) == p - 1
    radii = sorted(1.0 / kappas)
    for i, r in enumerate(roots):
        assert radii[i] < r.value < radii[i + 1]
        assert abs(poly(r.value)) <= 1e-8 * max(1.0, max(np.abs(poly.coeffs)))


# ---------------------------------------------------------- sphere product

def test_sphere_product_clifford_polynomial():
    # (-s+1)(s-1) + (s+1)(s+1) = 4s
    poly, roots = poly_roots([-1.0, 1.0], [1, 1], AmbientKind.SPHERE_PRODUCT)
    assert poly.minimal
    assert np.allclose(poly.coeffs, [0.0, 4.0, 0.0], atol=1e-12)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(0.0, abs=1e-12)


def test_sphere_product_root_count_minimal_vs_not():
    _, roots_min = poly_roots([-2.0, 0.5], [1, 4], AmbientKind.SPHERE_PRODUCT)
    assert len(roots_min) == 1  # trace = -2 + 2 = 0: minimal, p-1 roots

    _, roots_gen = poly_roots([-2.0, 0.5], [1, 1], AmbientKind.SPHERE_PRODUCT)
    assert len(roots_gen) == 2  # non-minimal: p roots


def test_sphere_product_closed_form_matches_solver():
    k1, k2 = 0.3, 1.7
    s_minus, s_plus = sphere_product_closed_roots(k1, k2)
    _, roots = poly_roots([k1, k2], [1, 1], AmbientKind.SPHERE_PRODUCT)
    got = [r.value for r in roots]
    assert np.allclose(got, sorted([s_minus, s_plus]), atol=1e-10)


def test_sphere_product_umbilic_closed_form_degenerates():
    s_minus, s_plus = sphere_product_closed_roots(1.0, 1.0)
    assert (s_minus, s_plus) == (-1.0, 1.0)
    assert arccot(s_plus) == pytest.approx(math.pi / 4, abs=1e-14)
    assert arccot(s_minus) == pytest.approx(3 * math.pi / 4, abs=1e-14)
    # the umbilic polynomial itself has the single nondegenerate root
    _, roots = poly_roots([1.0], [2], AmbientKind.SPHERE_PRODUCT)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(-1.0, abs=1e-12)


def test_sphere_product_totally_geodesic_no_roots():
    poly, roots = poly_roots([0.0], [2], AmbientKind.SPHERE_PRODUCT)
    assert poly.minimal and roots == []


# -------------------------------------------------------- hyperbolic product

def test_hyperbolic_product_two_three():
    # a = 7/5, kept root (7 + sqrt 24)/5, the reciprocal root is filtered
    poly, roots = poly_roots([2.0, 3.0], [1, 1], AmbientKind.HYPERBOLIC_PRODUCT)
    assert len(roots) == 1
    s = roots[0].value
    assert s == pytest.approx((7.0 + math.sqrt(24.0)) / 5.0, abs=1e-9)
    assert arccoth(s) == pytest.approx(0.25 * math.log(6.0), abs=1e-9)


def test_hyperbolic_closed_form_and_half_identity():
    kept = hyperbolic_product_closed_roots(2.0, 3.0)
    assert len(kept) == 1
    assert kept[0] == pytest.approx((7.0 + math.sqrt(24.0)) / 5.0, abs=1e-12)
    for a in np.linspace(1.01, 10.0, 250):
        s = a + math.sqrt(a * a - 1.0)
        assert abs(arccoth(s) - 0.5 * arccoth(a)) <= 1e-12


def test_hyperbolic_product_no_roots_when_a_below_one():
    # a = (0.5*2 + 1)/2.5 = 0.8 < 1: no real roots at all
    _, roots = poly_roots([0.5, 2.0], [1, 1], AmbientKind.HYPERBOLIC_PRODUCT)
    assert roots == []
    assert hyperbolic_product_closed_roots(0.5, 2.0) == ()


def test_hyperbolic_product_two_unbounded_roots():
    # trace 0.5: kept roots +-sqrt(19), one on each unbounded side
    _, roots = poly_roots([-2.0, 0.5], [1, 5], AmbientKind.HYPERBOLIC_PRODUCT)
    got = sorted(r.value for r in roots)
    assert np.allclose(got, [-math.sqrt(19.0), math.sqrt(19.0)], atol=1e-10)


def hyperbolic_counts(kappas, mults):
    alpha = sum(1 for k in kappas if k < -1.0)
    beta = sum(1 for k in kappas if abs(k) < 1.0)
    gamma = sum(1 for k in kappas if k > 1.0)
    return alpha, beta, gamma


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 100_000))
def test_hyperbolic_kept_root_count_bounds(p, seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        kappas = np.sort(rng.uniform(-4.0, 4.0, size=p))
        mults = rng.integers(1, 4, size=p)
        ok = np.all(np.abs(np.abs(kappas) - 1.0) > 0.05)
        if p > 1:
            ok = ok and np.min(np.diff(kappas)) > 0.05
        trace = float(np.dot(mults, kappas))
        if ok and abs(trace) > 0.05:
            break
    else:
        pytest.skip("no admissible random spectrum drawn")
    _, roots = poly_roots(list(kappas), list(mults), AmbientKind.HYPERBOLIC_PRODUCT)
    q = len(roots)
    alpha, beta, gamma = hyperbolic_counts(kappas, mults)
    assert alpha + gamma - 1 <= q <= alpha + gamma + 1
    for r in roots:
        assert abs(r.value) > 1.0


def test_hyperbolic_sharp_lower_bound_when_both_outside():
    # |k1| > 1 and |k2| > 1 forces exactly one kept root
    for k1, k2 in [(2.0, 3.0), (-3.0, -1.5), (1.2, 4.0)]:
        _, roots = poly_roots([k1, k2], [1, 1], AmbientKind.HYPERBOLIC_PRODUCT)
        assert len(roots) == 1


# ------------------------------------------------------------- geometry IO

def test_roots_at_torus_matches_height_ratio():
    imm = shapes.torus(2.0, 1.0)
    frame, spectrum, roots = roots_at(imm, AmbientKind.MINKOWSKI, [0.0, 0.4])
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(2.0, abs=1e-9)
    k1, k2 = spectrum.raw
    assert roots[0].value == pytest.approx(height_ratio(k1, k2), abs=1e-9)


def test_thread_root_fields_torus_smooth():
    imm = shapes.torus(2.0, 1.0)
    threads = thread_root_fields(imm, AmbientKind.MINKOWSKI, resolution=(9, 9))
    assert threads.count == 1
    assert threads.pattern == (2, (1, 1))
    vals = threads.values[:, 0]
    assert np.all(np.isfinite(vals))
    assert vals.min() >= 2.0 - 1e-9


def test_thread_root_fields_aborts_on_glued_surfaces():
    # two different tori glued along the chart: pattern holds but the root
    # field jumps discontinuously, which must abort the thread
    ch = Chart(2, [-1.0, 0.5], [1.0, 2.5], (9, 9))
    t1 = shapes.torus(2.0, 1.0)
    t2 = shapes.torus(4.0, 0.5)

    def fn(x):
        return np.where(x[:, 1:] < 1.5, t1.eval_fn(x), t2.eval_fn(x))

    glued = HypersurfaceImmersion(SpaceForm.euclidean(3), ch, fn)
    with pytest.raises(PatternChangeError):
        thread_root_fields(glued, AmbientKind.MINKOWSKI)


EVEN_GRIDS = [*((shapes.torus, r) for r in [(4, 4), (6, 6), (8, 8), (10, 10), (12, 12), (8, 5)]),
              *((shapes.ellipsoid, r) for r in [(4, 4), (6, 6), (8, 8), (10, 10), (8, 5)])]


@pytest.mark.parametrize("make,resolution", EVEN_GRIDS,
                         ids=[f"{m.__name__}-{r[0]}x{r[1]}" for m, r in EVEN_GRIDS])
def test_thread_root_fields_even_resolutions(make, resolution):
    # a step that straddles the symmetry line u = 0 is round-off; it is no
    # base for the next step
    threads = thread_root_fields(make(), AmbientKind.MINKOWSKI, resolution=resolution)
    assert threads.values.shape == (math.prod(resolution), 1)
    assert np.all(np.isfinite(threads.values))


@pytest.mark.parametrize("resolution", [(12, 12), (12, 9)], ids=lambda r: f"{r[0]}x{r[1]}")
def test_thread_root_fields_ellipsoid_lines_keep_their_own_base(resolution):
    # the root field changes fast across rows of this grid; a row's first
    # step is no jump against the last steps of the row before it
    threads = thread_root_fields(shapes.ellipsoid(), AmbientKind.MINKOWSKI,
                                 resolution=resolution)
    assert threads.values.shape == (math.prod(resolution), 1)
    assert np.all(np.isfinite(threads.values))


@pytest.mark.parametrize("resolution", [(5, 5), (8, 8), (9, 9), (10, 10), (12, 12)],
                         ids=lambda r: f"{r[0]}x{r[1]}")
@pytest.mark.parametrize("radii", [(2.0, 1.0), (3.0, 1.0), (2.2, 0.8), (4.0, 0.5),
                                   (2.5, 1.2)], ids=str)
def test_thread_root_fields_plain_map_tori(radii, resolution):
    # finite-difference frames: the root field is constant along v up to
    # noise, which stays under the floor
    torus = shapes.torus(*radii)
    plain = HypersurfaceImmersion(SpaceForm.euclidean(3), torus.chart, torus.eval_fn)
    threads = thread_root_fields(plain, AmbientKind.MINKOWSKI, resolution=resolution)
    exact = thread_root_fields(torus, AmbientKind.MINKOWSKI, resolution=resolution)
    assert np.allclose(threads.values, exact.values, rtol=0.0, atol=1e-5)


def test_thread_root_fields_part_failing_map_raises_its_row_error():
    ch = Chart(2, [-1.0, 0.5], [1.0, 2.5], (9, 9))
    torus = shapes.torus(2.0, 1.0)

    def fn(x):
        bad = (x[:, 1] > 1.9) & (x[:, 0] > 0.2)
        values = torus.eval_fn(x)
        values[bad] = np.nan
        return Rows(values, [GeometryError(f"no point at {p}") if b else None
                             for p, b in zip(x, bad)])

    imm = HypersurfaceImmersion(SpaceForm.euclidean(3), ch, fn)
    with pytest.raises(GeometryError, match=re.escape("no point at [0.2499 1.9998]")):
        thread_root_fields(imm, AmbientKind.MINKOWSKI)


def test_thread_root_fields_torus_glued_to_a_sphere_changes_pattern():
    ch = Chart(2, [-1.0, 0.5], [1.0, 2.5], (9, 9))
    torus, sphere = shapes.torus(2.0, 1.0), shapes.round_sphere(1.0)
    glued = HypersurfaceImmersion(SpaceForm.euclidean(3), ch,
                                  lambda x: np.where(x[:, 1:] < 2.0, torus.eval_fn(x),
                                                     sphere.eval_fn(x * 0.3)))
    with pytest.raises(PatternChangeError,
                       match=re.escape("pattern changed from (2, (1, 1))/1 roots to "
                                       "(1, (2,))/0 at chart [-0.9996  2.2497]")):
        thread_root_fields(glued, AmbientKind.MINKOWSKI)


def _graph3(a):
    def fn(x):
        f = 0.5 * (a[0] * x[:, 0] ** 2 + a[1] * x[:, 1] ** 2 + a[2] * x[:, 2] ** 2) \
            + 0.1 * x[:, 0] * x[:, 1] * x[:, 2]
        return np.concatenate([x, f[:, None]], axis=1)

    return fn


N3_CHART = Chart(3, [-0.3] * 3, [0.3] * 3, (5, 5, 5))


@pytest.mark.parametrize("resolution", [(4, 4, 4), (5, 4, 3), (5, 5, 5)])
def test_thread_root_fields_three_dimensional_chart(resolution):
    imm = HypersurfaceImmersion(SpaceForm.euclidean(4), N3_CHART, _graph3((1.0, 2.0, 3.5)))
    threads = thread_root_fields(imm, AmbientKind.MINKOWSKI, resolution=resolution)
    assert threads.pattern == (3, (1, 1, 1)) and threads.count == 2
    assert threads.values.shape == (math.prod(resolution), 2)
    assert np.all(threads.values[:, 0] < threads.values[:, 1])


@pytest.mark.parametrize("axis,where", [(0, "[ 0.1498 -0.2996 -0.2996]"),
                                        (1, "[-0.2996  0.1498 -0.2996]"),
                                        (2, "[0.     0.     0.1498]")])
def test_thread_root_fields_seam_across_each_axis_of_a_three_dimensional_chart(axis, where):
    g1, g2 = _graph3((1.0, 2.0, 3.5)), _graph3((0.2, 0.4, 0.7))
    imm = HypersurfaceImmersion(SpaceForm.euclidean(4), N3_CHART,
                                lambda x: np.where(x[:, axis:axis + 1] < 0.05, g1(x), g2(x)))
    with pytest.raises(PatternChangeError, match=re.escape(f"at chart {where}")):
        thread_root_fields(imm, AmbientKind.MINKOWSKI)


def _synthetic_threads(monkeypatch, field, errors=(), changed=(), counts=None,
                       resolution=(4, 5)):
    """The guard on a prescribed root field, one root per sample in raster
    order: the samples in `errors` fail their solve, those in `changed`
    change their multiplicity pattern; `counts` are the root counts (one
    each by default)."""
    count = len(field)
    errs = [None] * count
    for i in errors:
        errs[i] = GeometryError(f"no roots at sample {i}")
    code = np.zeros(count, dtype=np.int64)
    code[list(changed)] = 1
    spectra = SpectrumRows(None, None, code, {0: (1, 1), 1: (2,)}, errs)
    values = np.full((count, 3), np.nan)
    values[:, 0] = field
    counts = np.ones(count, dtype=int) if counts is None else counts
    roots = _Roots(values, None, None, counts, errs)
    monkeypatch.setattr(constructor, "_root_rows", lambda imm, kind, x: (None, spectra, roots))
    return thread_root_fields(shapes.torus(), AmbientKind.MINKOWSKI, resolution=resolution)


def _linear_field(shape=(4, 5)):
    i, j = np.meshgrid(*(np.arange(k) for k in shape), indexing="ij")
    return (2.0 + 0.1 * i + 0.05 * j).ravel()


def test_synthetic_smooth_field_threads(monkeypatch):
    field = _linear_field()
    threads = _synthetic_threads(monkeypatch, field)
    assert threads.pattern == (2, (1, 1)) and threads.count == 1
    assert np.array_equal(threads.values[:, 0], field)


ROW_ERROR = (GeometryError, "no roots at sample")
PATTERN = (PatternChangeError, "pattern changed from (2, (1, 1))/1 roots to (1, (2,))/1")
JUMP = (PatternChangeError, "root field jump")
RECOUNT = (PatternChangeError, "pattern changed from (2, (1, 1))/1 roots to (2, (1, 1))/2")


@pytest.mark.parametrize("errors,changed,jumps,expected", [
    ((7,), (7,), (7,), ROW_ERROR),
    ((), (7,), (7,), PATTERN),
    ((9,), (8,), (7,), JUMP),
    ((6,), (8,), (7,), ROW_ERROR),
    ((8,), (6,), (7,), PATTERN),
    ((8,), (), (7,), JUMP),
    ((), (), (), RECOUNT),
], ids=["all-on-one", "pattern-and-jump-on-one", "jump-first", "error-first",
        "pattern-first", "jump-before-error", "count-change"])
def test_guard_order_of_checks(monkeypatch, errors, changed, jumps, expected):
    # the first bad sample in raster order aborts; on one sample a row error
    # wins over a pattern or count change, which wins over a jump
    field = _linear_field()
    field[list(jumps)] += 1.0
    counts = np.ones(len(field), dtype=int)
    counts[11] = 2
    first = min(errors + changed + jumps + (11,))
    kind, message = expected
    with pytest.raises(kind, match=re.escape(message)) as info:
        _synthetic_threads(monkeypatch, field, errors, changed, counts)
    grid = shapes.torus().chart.with_resolution((4, 5)).grid(margin=4e-4)
    where = f"sample {first}" if kind is GeometryError else f"at chart {grid[first]}"
    assert where in str(info.value)


@pytest.mark.parametrize("axis,first", [(0, (2, 0)), (1, (0, 3))])
def test_guard_seam_across_each_axis(monkeypatch, axis, first):
    # a step of 5 across index 2 of axis 0 (seen along the first column) or
    # index 3 of axis 1 (seen along the first row)
    shape = (4, 5)
    index = np.indices(shape)[axis].ravel()
    field = _linear_field(shape) + np.where(index >= first[axis], 5.0, 0.0)
    grid = shapes.torus().chart.with_resolution(shape).grid(margin=4e-4)
    where = grid[np.ravel_multi_index(first, shape)]
    with pytest.raises(PatternChangeError, match=re.escape(f"at chart {where} exceeds")):
        _synthetic_threads(monkeypatch, field)


def test_guard_seam_after_the_first_sample_of_each_line(monkeypatch):
    # a step of 5 between index 0 and 1 of axis 1, on every row: a line's
    # first step is compared with the two steps after it
    shape = (4, 5)
    index = np.indices(shape)[1].ravel()
    field = _linear_field(shape) + np.where(index >= 1, 5.0, 0.0)
    grid = shapes.torus().chart.with_resolution(shape).grid(margin=4e-4)
    with pytest.raises(PatternChangeError, match=re.escape(f"at chart {grid[1]} exceeds")):
        _synthetic_threads(monkeypatch, field)


def test_bracketing_error_diagnostics():
    poly = curvature_polynomial([2.0, 3.0], AmbientKind.HYPERBOLIC_PRODUCT,
                                mults=[1, 1])
    bad = poly.__class__(poly.ambient_kind, poly.kappas, poly.mults, poly.coeffs,
                         poly.breakpoints, poly.breakpoint_values,
                         ((2.0, 3.0, 1.0, 1.0),), poly.trace, poly.minimal)
    with pytest.raises(BracketingError):
        solve_roots(bad)


# --------------------------------------------------------------- ambients

def test_ambient_signatures():
    n = 2
    assert LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, n).signature.plus == 3
    assert LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, n).signature.minus == 1
    assert LorentzAmbient.for_kind(AmbientKind.DE_SITTER, n).signature.minus == 1
    assert LorentzAmbient.for_kind(AmbientKind.ANTI_DE_SITTER, n).signature.minus == 2
    assert LorentzAmbient.for_kind(AmbientKind.SPHERE_PRODUCT, n).signature.plus == 4
    assert LorentzAmbient.for_kind(AmbientKind.HYPERBOLIC_PRODUCT, n).signature.minus == 2


def test_ambient_constraints():
    ds = LorentzAmbient.for_kind(AmbientKind.DE_SITTER, 2)
    x = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    assert ds.constraint_residual(x) == pytest.approx(0.0, abs=1e-14)

    hp = LorentzAmbient.for_kind(AmbientKind.HYPERBOLIC_PRODUCT, 2)
    pt = np.array([0.0, 0.0, 0.0, 1.0, 0.3])
    assert hp.constraint_residual(pt) == pytest.approx(0.0, abs=1e-14)
    z = hp.constraint_normals(pt)
    assert z.shape == (1, 5)
    assert z[0, -1] == 0.0
