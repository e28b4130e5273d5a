"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line.
Criterion 7 is split: the route-agreement clause holds, but its marginality
clauses cannot hold for the stated test field (a first-harmonic support
perturbation is a pure translation of the round front, so the lift collapses
to the focal point); that part is a strict expected failure with the analysis
in its reason string.
"""

import math
import time

import numpy as np
import pytest

from closed_forms import hyperbolic_product_closed_roots, sphere_product_closed_roots
from marlift import shapes
from marlift.catalog import catalog_lookup
from marlift.constructor import (
    AmbientKind,
    arccoth,
    curvature_polynomial,
    flat_slice,
    lift_minkowski,
    lift_palmer,
    lift_sphere_product,
    null_lift,
    roots_at,
    solve_roots,
    support_route_lift,
)
from marlift.core import Chart, bilinear
from marlift.hypersurface import HypersurfaceImmersion, SpaceForm, frame_at
from marlift.verifier import (
    assemble_report,
    mean_curvature_at,
    second_form_at,
)

_cache = {}


def _note(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def torus_report():
    if "torus64" not in _cache:
        lift = lift_minkowski(shapes.torus(2.0, 1.0))
        t0 = time.perf_counter()
        rep = assemble_report(lift, resolution=(64, 64))
        _cache["torus64"] = (rep, time.perf_counter() - t0)
    return _cache["torus64"]


def test_criterion_1_lemma_oracle_suite():
    rep, elapsed = torus_report()
    worst = max(rep.summary["lemma_metric_residual"]["max"],
                rep.summary["lemma_secondform_residual"]["max"],
                rep.summary["eqH_residual"]["max"])
    _note(1, worst <= 1e-5 and elapsed <= 10.0,
          f"(max lemma residual {worst:.3e}, runtime {elapsed:.2f}s)")


def test_criterion_2_flat_family_end_to_end():
    rep, _ = torus_report()
    ok = (rep.verdict == "marginally_trapped"
          and rep.summary["null_residual"]["max"] <= 1e-5)

    neg = lift_minkowski(shapes.torus(2.0, 1.0), offset=0.1)
    rep_neg = assemble_report(neg, resolution=(64, 64))
    _cache["torus64_neg"] = rep_neg
    ok_neg = (rep_neg.verdict == "not_marginal"
              and rep_neg.summary["null_residual"]["max"] >= 1e-3)
    _note(2, ok and ok_neg,
          f"(residual {rep.summary['null_residual']['max']:.3e}, "
          f"control residual {rep_neg.summary['null_residual']['max']:.3e})")


def test_criterion_3_root_structure():
    poly = curvature_polynomial([1.0, 0.5, 0.25], AmbientKind.MINKOWSKI,
                                mults=[1, 1, 1])
    roots = solve_roots(poly)
    expected = [(7.0 - math.sqrt(7.0)) / 3.0, (7.0 + math.sqrt(7.0)) / 3.0]
    ok = (len(roots) == 2
          and all(abs(r.value - e) <= 1e-9 for r, e in zip(roots, expected))
          and roots[0].bracket == (1.0, 2.0) and roots[1].bracket == (2.0, 4.0)
          and all(r.bracket[0] < r.value < r.bracket[1] for r in roots))
    _note(3, ok, f"(roots {[f'{r.value:.12f}' for r in roots]})")


def test_criterion_4_sphere_product():
    clifford = shapes.clifford_torus()
    _, _, roots = roots_at(clifford, AmbientKind.SPHERE_PRODUCT, [1.0, 2.0])
    ok_root = len(roots) == 1 and abs(roots[0].value) <= 1e-10

    lift = lift_sphere_product(clifford)
    x = np.array([1.0, 2.0])
    frame = frame_at(clifford, x)
    val = lift(x)
    ok_lift = (np.allclose(val[:4], frame.normal, atol=1e-9)
               and abs(val[4] - math.pi / 2) <= 1e-9)
    rep = assemble_report(lift, resolution=(16, 16))
    _cache["clifford"] = rep

    # closed form against the solver on a non-minimal umbilic distance sphere
    small = shapes.geodesic_sphere_s3(math.pi / 6)
    _, spectrum, roots_s = roots_at(small, AmbientKind.SPHERE_PRODUCT,
                                    [0.2, 0.3])
    k = spectrum.kappas[0]
    closed = sphere_product_closed_roots(k, k)
    valid = [s for s in closed if abs(s - k) > 1e-6]
    ok_closed = (len(roots_s) == 1 and len(valid) == 1
                 and abs(roots_s[0].value - valid[0]) <= 1e-10)
    _note(4, ok_root and ok_lift and rep.verdict == "marginally_trapped"
          and ok_closed,
          f"(|s| = {abs(roots[0].value):.2e}, verdict {rep.verdict}, "
          f"closed-form gap {abs(roots_s[0].value - valid[0]):.2e})")


def test_criterion_5_hyperbolic_product():
    poly = curvature_polynomial([2.0, 3.0], AmbientKind.HYPERBOLIC_PRODUCT,
                                mults=[1, 1])
    roots = solve_roots(poly)
    target = (7.0 + math.sqrt(24.0)) / 5.0
    ok_root = (len(roots) == 1 and abs(roots[0].value - target) <= 1e-9
               and abs(arccoth(roots[0].value) - 0.25 * math.log(6.0)) <= 1e-9)

    ok_identity = all(
        abs(arccoth(a + math.sqrt(a * a - 1.0)) - 0.5 * arccoth(a)) <= 1e-12
        for a in np.linspace(1.01, 10.0, 400))

    rng = np.random.default_rng(20260810)
    ok_bounds = True
    draws = 0
    while draws < 100:
        p = int(rng.integers(1, 6))
        kappas = np.sort(rng.uniform(-4.0, 4.0, size=p))
        mults = rng.integers(1, 4, size=p)
        if np.any(np.abs(np.abs(kappas) - 1.0) < 0.05):
            continue
        if p > 1 and np.min(np.diff(kappas)) < 0.05:
            continue
        if abs(float(np.dot(mults, kappas))) < 0.05:
            continue
        draws += 1
        kept = solve_roots(curvature_polynomial(
            list(kappas), AmbientKind.HYPERBOLIC_PRODUCT, mults=list(mults)))
        q = len(kept)
        alpha = int(np.sum(kappas < -1.0))
        gamma = int(np.sum(kappas > 1.0))
        if not (alpha + gamma - 1 <= q <= alpha + gamma + 1):
            ok_bounds = False
            break
    _note(5, ok_root and ok_identity and ok_bounds,
          f"(root {roots[0].value:.12f}, height {arccoth(roots[0].value):.12f}, "
          f"{draws} draws within bounds: {ok_bounds})")


def test_criterion_6_example_corpus():
    verdicts = {}
    residuals = {}
    for name, params in [("chen-l1", {"f": "x**2"}), ("chen-l2", None),
                         ("chen-l3", {"f": "2+sin(x)"}), ("chen-l4", None)]:
        _, lift = catalog_lookup(name, params)
        rep = assemble_report(lift, resolution=(64, 64))
        _cache[f"c6:{name}"] = rep
        verdicts[name] = rep.verdict
        residuals[name] = rep.summary["null_residual"]["max"]
    ok = all(v == "marginally_trapped" for v in verdicts.values()) \
        and all(r <= 1e-5 for r in residuals.values())

    # the null projection of the anti-de Sitter example is totally geodesic
    _, l4 = catalog_lookup("chen-l4")
    nu = np.array([-1.0, 0.0, 1.0, -1.0])

    def phi(x):
        psi = l4.evaluate(x, 0).values
        return psi[:, :4] - psi[:, 4:] * nu

    proj = HypersurfaceImmersion(SpaceForm.hyperbolic(3), l4.chart, phi)
    worst_b = max(np.max(np.abs(frame_at(proj, x).second_form))
                  for x in l4.chart.grid(margin=0.01)[::23])
    _note(6, ok and worst_b <= 1e-6,
          f"(max residual {max(residuals.values()):.3e}, "
          f"projection second form {worst_b:.3e})")


def _offset_support():
    _, sf = catalog_lookup("palmer-sphere",
                           {"preset": "offset", "c": 1.0, "eps": 0.1})
    return sf


def test_criterion_7_support_route_agreement():
    sf = _offset_support()
    direct = lift_palmer(sf)
    route = support_route_lift(sf)
    gap = max(np.max(np.abs(direct(x) - route(x)))
              for x in sf.chart.grid(margin=0.01)[::5])
    _note("7 (agreement clause)", gap <= 1e-6, f"(pointwise gap {gap:.3e})")


@pytest.mark.xfail(strict=True, reason=(
    "a first-harmonic support perturbation 1 + 0.1*u3 translates the round "
    "front without deforming it; the front is umbilic, the lift height "
    "equals the curvature radius everywhere, the induced metric of the lift "
    "degenerates and its image is the single focal point, so neither route "
    "can verify marginally_trapped for this field"))
def test_criterion_7_support_route_marginality():
    sf = _offset_support()
    rep1 = assemble_report(lift_palmer(sf), resolution=(16, 16))
    rep2 = assemble_report(support_route_lift(sf), resolution=(16, 16))
    _note("7 (marginality clauses)",
          rep1.verdict == "marginally_trapped"
          and rep2.verdict == "marginally_trapped",
          f"(verdicts {rep1.verdict}, {rep2.verdict})")


def test_criterion_7_support_route_on_nondegenerate_field():
    # the property the criterion targets, on a generic convex support field
    _, sf = catalog_lookup("palmer-sphere")   # quadric preset
    direct = lift_palmer(sf)
    route = support_route_lift(sf)
    gap = max(np.max(np.abs(direct(x) - route(x)))
              for x in sf.chart.grid(margin=0.01)[::5])
    rep1 = assemble_report(direct, resolution=(12, 12))
    rep2 = assemble_report(route, resolution=(12, 12))
    _note("7 (nondegenerate reference)",
          gap <= 1e-6 and rep1.verdict == rep2.verdict == "marginally_trapped",
          f"(gap {gap:.3e}, verdicts {rep1.verdict}/{rep2.verdict})")


def test_criterion_8_null_lift_branch():
    chart = Chart(2, [-1.0, -1.0], [1.0, 1.0], (16, 16))
    lift = null_lift(flat_slice(chart), lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1])
    hess = np.array([[2.0, 1.0], [1.0, 0.0]])
    sig = lift.ambient.signature
    worst_h = worst_col = worst_comp = 0.0
    for x in chart.grid(margin=0.01)[::13]:
        nu = lift.null_normal(x)
        sff = second_form_at(lift, x)
        worst_h = max(worst_h, float(np.max(np.abs(
            sff - hess[:, :, None] * nu[None, None, :]))))
        hvec = mean_curvature_at(lift, x)
        worst_comp = max(worst_comp, abs(bilinear(sig, hvec, nu)))
        lam = hvec[-1]
        worst_col = max(worst_col, float(np.max(np.abs(hvec - lam * nu))))
    _note(8, worst_h <= 1e-5 and worst_comp <= 1e-10 and worst_col <= 1e-5,
          f"(second form gap {worst_h:.3e}, null component {worst_comp:.3e}, "
          f"collinearity {worst_col:.3e})")


def test_criterion_9_refinement_robustness():
    checks = []

    def refined_verdicts(make_lift, label):
        fine = assemble_report(make_lift(), resolution=(128, 128))
        halved = assemble_report(make_lift(), resolution=(64, 64), h=5e-5)
        return [(label + " 128x128", fine.verdict),
                (label + " h/2", halved.verdict)]

    checks += refined_verdicts(lambda: lift_minkowski(shapes.torus(2.0, 1.0)),
                               "torus")
    base_neg = _cache.get("torus64_neg")
    neg_fine = assemble_report(
        lift_minkowski(shapes.torus(2.0, 1.0), offset=0.1),
        resolution=(128, 128))
    neg_halved = assemble_report(
        lift_minkowski(shapes.torus(2.0, 1.0), offset=0.1),
        resolution=(64, 64), h=5e-5)
    ok_neg = {neg_fine.verdict, neg_halved.verdict} == {"not_marginal"} and \
        (base_neg is None or base_neg.verdict == "not_marginal")

    checks += refined_verdicts(
        lambda: lift_sphere_product(shapes.clifford_torus()), "clifford")
    for name, params in [("chen-l1", {"f": "x**2"}), ("chen-l2", None),
                         ("chen-l3", {"f": "2+sin(x)"}), ("chen-l4", None)]:
        checks += refined_verdicts(
            lambda name=name, params=params: catalog_lookup(name, params)[1],
            name)

    bad = [(label, v) for label, v in checks if v != "marginally_trapped"]
    _note(9, not bad and ok_neg,
          f"({len(checks)} refined runs trapped, control stays not_marginal)")
