import math

import numpy as np
import pytest

from marlift.catalog import (
    CATALOG,
    ParameterError,
    UnknownEntryError,
    catalog_lookup,
    scalar_expr,
)
from marlift.constructor import LiftedImmersion, SupportFunction, lift_palmer
from marlift.hypersurface import HypersurfaceImmersion, frame_at, spectrum_at
from marlift.taylor import Taylor, taylor_jet
from marlift.verifier import assemble_report


def test_catalog_contains_required_entries():
    names = set(CATALOG)
    assert {"chen-l1", "chen-l2", "chen-l3", "chen-l4"} <= names
    assert {"torus", "clifford-torus", "catenoid", "ellipsoid",
            "palmer-sphere"} <= names


def test_catalog_listing_stable_order():
    assert list(CATALOG) == list(CATALOG)


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        catalog_lookup("moebius")


def test_unknown_param_rejected():
    with pytest.raises(ParameterError):
        catalog_lookup("torus", {"bogus": 1.0})


def test_scalar_expr_restricted_namespace():
    f = scalar_expr("2+sin(x)")
    assert f(0.0) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        scalar_expr("__import__('os')")
    with pytest.raises(ParameterError):
        scalar_expr("open('x')")


# expression, and its first and second derivative in closed form, from one
# evaluation on a one-variable Taylor number; inner functions of the form
# a*x+b also exercise the chain rule
C1 = 0.7
TAYLOR_CASES = [
    ("sin(0.7*x+0.2)", lambda x: C1 * np.cos(C1 * x + 0.2),
     lambda x: -C1 ** 2 * np.sin(C1 * x + 0.2)),
    ("cos(0.7*x+0.2)", lambda x: -C1 * np.sin(C1 * x + 0.2),
     lambda x: -C1 ** 2 * np.cos(C1 * x + 0.2)),
    ("tan(x)", lambda x: 1.0 / np.cos(x) ** 2,
     lambda x: 2.0 * np.tan(x) / np.cos(x) ** 2),
    ("sinh(0.7*x)", lambda x: C1 * np.cosh(C1 * x),
     lambda x: C1 ** 2 * np.sinh(C1 * x)),
    ("cosh(0.7*x)", lambda x: C1 * np.sinh(C1 * x),
     lambda x: C1 ** 2 * np.cosh(C1 * x)),
    ("tanh(x)", lambda x: 1.0 / np.cosh(x) ** 2,
     lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2),
    ("exp(0.7*x)", lambda x: C1 * np.exp(C1 * x),
     lambda x: C1 ** 2 * np.exp(C1 * x)),
    ("log(x)", lambda x: 1.0 / x, lambda x: -1.0 / x ** 2),
    ("sqrt(x)", lambda x: 0.5 / np.sqrt(x), lambda x: -0.25 * x ** -1.5),
    ("abs(x-2)", lambda x: -np.ones_like(x), lambda x: np.zeros_like(x)),
    ("x+x", lambda x: 2.0 + 0 * x, lambda x: 0 * x),
    ("x+2", lambda x: 1.0 + 0 * x, lambda x: 0 * x),
    ("2+x", lambda x: 1.0 + 0 * x, lambda x: 0 * x),
    ("x-2*x*x", lambda x: 1.0 - 4.0 * x, lambda x: -4.0 + 0 * x),
    ("x-2", lambda x: 1.0 + 0 * x, lambda x: 0 * x),
    ("2-x", lambda x: -1.0 + 0 * x, lambda x: 0 * x),
    ("-x", lambda x: -1.0 + 0 * x, lambda x: 0 * x),
    ("+x", lambda x: 1.0 + 0 * x, lambda x: 0 * x),
    ("x*sin(x)", lambda x: np.sin(x) + x * np.cos(x),
     lambda x: 2.0 * np.cos(x) - x * np.sin(x)),
    ("3*x", lambda x: 3.0 + 0 * x, lambda x: 0 * x),
    ("x*3", lambda x: 3.0 + 0 * x, lambda x: 0 * x),
    ("x/(1+x)", lambda x: 1.0 / (1 + x) ** 2, lambda x: -2.0 / (1 + x) ** 3),
    ("x/4", lambda x: 0.25 + 0 * x, lambda x: 0 * x),
    ("3/x", lambda x: -3.0 / x ** 2, lambda x: 6.0 / x ** 3),
    ("x**3", lambda x: 3.0 * x ** 2, lambda x: 6.0 * x),
    ("x**-1.5", lambda x: -1.5 * x ** -2.5, lambda x: 3.75 * x ** -3.5),
    ("x**1", lambda x: 1.0 + 0 * x, lambda x: 0 * x),
    ("x**0", lambda x: 0 * x, lambda x: 0 * x),
    ("x**x", lambda x: x ** x * (np.log(x) + 1.0),
     lambda x: x ** x * ((np.log(x) + 1.0) ** 2 + 1.0 / x)),
    ("2**x", lambda x: math.log(2.0) * 2.0 ** x,
     lambda x: math.log(2.0) ** 2 * 2.0 ** x),
    # numpy scalars meet the Taylor number through numpy's ufuncs
    ("sin(1.0)*x", lambda x: math.sin(1.0) + 0 * x, lambda x: 0 * x),
    ("cos(0.0)-x", lambda x: -1.0 + 0 * x, lambda x: 0 * x),
    ("sin(1.0)/x", lambda x: -math.sin(1.0) / x ** 2,
     lambda x: 2.0 * math.sin(1.0) / x ** 3),
    ("exp(1.0)**x", lambda x: np.exp(x), lambda x: np.exp(x)),
    ("3.5", lambda x: 0 * x, lambda x: 0 * x),
]
SAMPLES = np.linspace(0.3, 0.9, 7)


@pytest.mark.parametrize("expr,d1,d2", TAYLOR_CASES, ids=[c[0] for c in TAYLOR_CASES])
def test_taylor_derivatives_match_closed_forms(expr, d1, d2):
    f = scalar_expr(expr)
    jet = taylor_jet(lambda t: f(t[:, 0]), SAMPLES[:, None])
    g, g1, g2 = jet.value, jet.d1[:, 0], jet.d2[:, 0, 0]
    # the value keeps the bits of the array evaluation
    assert np.array_equal(g, f(SAMPLES))
    np.testing.assert_allclose(g1, d1(SAMPLES), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(g2, d2(SAMPLES), rtol=1e-12, atol=0.0)


def test_scalar_expr_float_and_array_bits():
    # floats and arrays evaluate in numpy's namespace, as they did before
    # the expressions learnt Taylor numbers
    names = {n: getattr(np, n) for n in ("sin", "cos", "exp", "log", "sqrt", "abs")}
    x = np.linspace(0.2, 1.7, 11)
    for expr in ("x**2", "2+sin(x)", "exp(x)/sqrt(x)+abs(log(x))", "2**x"):
        expected = eval(expr, {"__builtins__": {}}, {**names, "x": x})
        assert np.array_equal(scalar_expr(expr)(x), expected)
        for v in x[:3]:
            one = scalar_expr(expr)(float(v))
            assert one == eval(expr, {"__builtins__": {}}, {**names, "x": float(v)})
    assert np.array_equal(scalar_expr("1.5")(x), np.full(11, 1.5))
    assert scalar_expr("1.5")(0.3) == 1.5


def test_taylor_constant_expression_broadcasts():
    f = scalar_expr("2*pi")
    g = f(Taylor.variable(SAMPLES[:, None])[:, 0])
    assert isinstance(g, Taylor)
    assert np.array_equal(g.v, np.full(7, 2 * math.pi))
    assert not g.d1 and not g.d2
    jet = taylor_jet(lambda t: f(t[:, 0]), SAMPLES[:, None])
    assert jet.d1.shape == (7, 1) and jet.d2.shape == (7, 1, 1)
    assert not jet.d1.any() and not jet.d2.any()


@pytest.mark.parametrize("f", ["2*x+1", "100*x+50"])
def test_flat_profile_named_at_its_first_sample(f):
    # f'' = 0 exactly: the first sample of the chart, x = -1, is named
    with pytest.raises(ParameterError, match=r"fails near x=-1\.000"):
        catalog_lookup("chen-l1", {"f": f})


def test_chen_l1_requires_convex_profile():
    entry, lift = catalog_lookup("chen-l1", {"f": "x**2"})
    assert isinstance(lift, LiftedImmersion)
    x = np.array([0.3, -0.2])
    assert np.allclose(lift(x), [0.3, -0.2, 0.09, 0.09], atol=1e-12)
    with pytest.raises(ParameterError):
        catalog_lookup("chen-l1", {"f": "x"})          # f'' = 0 everywhere
    with pytest.raises(ParameterError):
        catalog_lookup("chen-l1", {"f": "x**3"})       # f'' vanishes at 0


def test_chen_l3_constraint():
    entry, lift = catalog_lookup("chen-l3", {"f": "2+sin(x)"})
    x = np.array([0.2, 0.3])
    tau = (2.0 + math.sin(0.2)) * math.cos(0.3)
    expected = [math.sin(0.2) * math.cos(0.3), math.sin(0.3),
                math.cos(0.2) * math.cos(0.3), tau, tau]
    assert np.allclose(lift(x), expected, atol=1e-12)
    with pytest.raises(ParameterError):
        catalog_lookup("chen-l3", {"f": "sin(x)"})     # f'' + f = 0


def test_chen_l4_closed_form_and_normal():
    entry, lift = catalog_lookup("chen-l4")
    x = np.array([0.4, -0.3])
    amb = lift.ambient
    assert amb.constraint_residual(lift(x)) <= 1e-12
    nu = lift.null_normal(x)
    assert np.allclose(nu, [-1.0, 0.0, 1.0, -1.0, 1.0])


def test_hypersurface_entries_evaluate_on_default_charts():
    for name, entry in CATALOG.items():
        if entry.kind != "hypersurface":
            continue
        _, imm = catalog_lookup(name)
        for x in imm.chart.grid(margin=1e-3)[::71]:
            frame = frame_at(imm, x)
            spectrum_at(frame)


def test_lift_entries_evaluate_on_default_charts():
    for name, entry in CATALOG.items():
        if entry.kind != "lift":
            continue
        _, lift = catalog_lookup(name)
        for x in lift.chart.grid(margin=1e-3)[::97]:
            val = lift(x)
            assert np.all(np.isfinite(val))
            assert lift.ambient.constraint_residual(val) <= 1e-10


def test_expected_verdicts_confirmed():
    # full pipeline on a coarse grid for every entry that states a verdict
    for name, entry in CATALOG.items():
        if entry.expected_verdict is None:
            continue
        _, built = catalog_lookup(name)
        lift = lift_palmer(built) if isinstance(built, SupportFunction) else built
        rep = assemble_report(lift, resolution=(6, 6))
        assert rep.verdict == entry.expected_verdict, \
            f"{name}: got {rep.verdict}, expected {entry.expected_verdict}"


def test_palmer_presets():
    # constant support: the normal congruence focuses at the center, so the
    # lift collapses to the focal point at height -c (the surface itself at
    # constant height is not marginally trapped)
    _, sf = catalog_lookup("palmer-sphere", {"preset": "round", "c": 2.0})
    assert isinstance(sf, SupportFunction)
    x = np.array([0.1, 0.5])
    lift = lift_palmer(sf)
    val = lift(x)
    assert np.allclose(val[:3], 0.0, atol=1e-12)
    assert val[3] == pytest.approx(-2.0, abs=1e-12)

    _, sfq = catalog_lookup("palmer-sphere")
    rec = sfq.reconstruction()
    fr = frame_at(rec, [0.2, 0.5])
    sp = spectrum_at(fr)
    assert sp.p == 2  # the quadric preset is nonumbilic on the default chart
