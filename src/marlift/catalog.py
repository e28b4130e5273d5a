"""Named example corpus: classical surfaces and the published example families.

Entries come in three kinds. Hypersurface entries feed the lift constructors
(an ambient is chosen at run time); lift entries are explicit maps into one
fixed Lorentzian ambient, including two deliberate negative controls; the
support entry carries a scalar field on the 2-sphere and builds its lift
through the support-function route.

Function-valued parameters (the height profiles of the chen families, the
support field) are given as expressions in x over a restricted math
namespace, e.g. ``f="x**2"`` or ``f="2+sin(x)"``. They evaluate on numpy
arrays and on `taylor.Taylor` numbers, which give their exact first and second
derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import shapes
from .constructor import (
    AmbientKind,
    LiftedImmersion,
    LiftRows,
    LorentzAmbient,
    SupportFunction,
    flat_slice,
    lift_map,
    null_lift,
    spherical_slice,
)
from .core import Chart, GeometryError
from .taylor import Taylor, taylor_jet

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "catalog_lookup",
    "UnknownEntryError",
    "ParameterError",
    "scalar_expr",
]


class UnknownEntryError(GeometryError):
    pass


class ParameterError(GeometryError):
    pass


_EXPR_NAMES = {name: getattr(np, name) for name in (
    "sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")}
_EXPR_NAMES.update(pi=math.pi, e=math.e)


def scalar_expr(expr: str, var: str = "x") -> Callable[[np.ndarray], np.ndarray]:
    """Compile a one-variable math expression with a restricted namespace.
    It evaluates elementwise on numpy arrays (NaN or inf off its domain),
    and on a `Taylor` number, which gives its first two derivatives too."""
    try:
        code = compile(str(expr), "<param>", "eval")
    except SyntaxError as exc:
        raise ParameterError(f"cannot parse expression {expr!r}: {exc}")
    for name in code.co_names:
        if name != var and name not in _EXPR_NAMES:
            raise ParameterError(f"name {name!r} not allowed in expression {expr!r}")
    constant = var not in code.co_names     # broadcast to one value per element

    def fn(value):
        out = eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, var: value})
        if not constant:
            return out
        if isinstance(value, Taylor):
            return Taylor(np.full(np.shape(value.v), out))
        return np.full(np.shape(value), out)

    return fn


def _taylor2(f, x) -> tuple:
    """g, g' and g'' of a `scalar_expr` g at the points x (P,), from one
    evaluation on a Taylor variable."""
    jet = taylor_jet(lambda t: f(t[:, 0]), np.asarray(x, dtype=float)[:, None])
    return jet.value, jet.d1[:, 0], jet.d2[:, 0, 0]


def _finite_on(f, sample: np.ndarray, entry: str, var: str = "x",
               derivatives: bool = False):
    """f on its chart sample, or (g, g', g'') there with `derivatives`;
    ParameterError unless every value is finite."""
    try:
        with np.errstate(all="ignore"):
            values = _taylor2(f, sample) if derivatives else f(sample)
            values = np.asarray(values, dtype=float)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ParameterError(f"{entry}: cannot evaluate f on its chart: {exc}")
    bad = ~np.isfinite(values)
    if derivatives:
        bad = bad.any(axis=0)
    if bad.any():
        which = " with its first two derivatives" if derivatives else ""
        raise ParameterError(f"{entry} needs f finite on its chart{which}; "
                             f"it is not at {var}={sample[bad][0]:.6g}")
    return values


def _check_profile(f, chart: Chart, entry: str, what: str, guard):
    """ParameterError unless f, f' and f'' are finite at 15 samples t of the
    chart's first axis and guard(f, f'') is not 0 there."""
    t = np.linspace(chart.lower[0], chart.upper[0], 15)
    f0, _, f2 = _finite_on(f, t, entry, derivatives=True)
    flat = np.abs(guard(f0, f2)) <= 1e-8
    if flat.any():
        raise ParameterError(
            f"{entry} needs {what} nowhere zero; fails near x={t[flat][0]:.3f}")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                      # hypersurface | lift | support
    builder: Callable[[dict], object]
    citation: str
    params_doc: str = ""
    defaults: tuple = ()
    expected_verdict: Optional[str] = None

    def build(self, params: Optional[dict] = None):
        merged = dict(self.defaults)
        params = dict(params or {})
        for key in params:
            if key not in merged:
                raise ParameterError(
                    f"entry {self.name!r} accepts {sorted(merged)}, got {key!r}")
        merged.update(params)
        return self.builder(merged)


# -------------------------------------------------------------- chen family

def _build_chen_l1(p):
    f = scalar_expr(p["f"])
    chart = Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17))
    _check_profile(f, chart, "chen-l1", "f''", lambda f0, d2: d2)
    return null_lift(flat_slice(chart), lambda x: f(x[:, 0]), name="chen-l1")


def _build_chen_l2(p):
    # q(x) = sin x, r(x) = 1: the plane is reparametrized in polar-like
    # coordinates around (-1, 0) and the height is (1+y) sin x
    chart = Chart(2, [-1.0, -0.4], [1.0, 0.4], (17, 17))
    nu_bar = np.array([0.0, 0.0, 1.0, 1.0])

    @lift_map
    def eval_fn(x, k):
        c, s = np.cos(x[:, 0]), np.sin(x[:, 0])
        tau = (1.0 + x[:, 1]) * s
        values = np.stack([(x[:, 1] + 1.0) * c - 1.0, (x[:, 1] + 1.0) * s, tau, tau], 1)
        return LiftRows(values, [None] * len(x), np.broadcast_to(nu_bar, (k, 4)))

    return LiftedImmersion(LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2),
                           chart, eval_fn, name="chen-l2")


def _build_chen_l3(p):
    f = scalar_expr(p["f"])
    chart = Chart(2, [-1.0, -0.9], [1.0, 0.9], (17, 17))
    _check_profile(f, chart, "chen-l3", "f'' + f", lambda f0, d2: d2 + f0)
    return null_lift(spherical_slice(chart),
                     lambda x: f(x[:, 0]) * np.cos(x[:, 1]), name="chen-l3")


def _build_chen_l4(p):
    chart = Chart(2, [-1.0, -0.8], [1.0, 0.8], (17, 17))
    nu_bar = np.array([-1.0, 0.0, 1.0, -1.0, 1.0])

    @lift_map
    def eval_fn(x, k):
        ey, emy = np.exp(x[:, 1]), np.exp(-x[:, 1])
        xsq = x[:, 0] * x[:, 0]
        values = np.stack([emy, x[:, 0] * ey, (xsq - 0.5) * ey,
                           0.5 * ey + emy, xsq * ey], axis=1)
        return LiftRows(values, [None] * len(x), np.broadcast_to(nu_bar, (k, 5)))

    return LiftedImmersion(LorentzAmbient.for_kind(AmbientKind.ANTI_DE_SITTER, 2),
                           chart, eval_fn, name="chen-l4")


# --------------------------------------------------------- negative controls

def _build_l1_perturbed(p):
    f = scalar_expr(p["f"])
    eps = float(p["eps"])
    chart = Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17))
    _finite_on(f, np.linspace(chart.lower[0], chart.upper[0], 15), "l1-perturbed")

    def eval_fn(x):
        v = f(x[:, 0])
        return np.stack([x[:, 0], x[:, 1], v + eps * x[:, 1] ** 2, v], axis=1)

    return LiftedImmersion(LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2),
                           chart, eval_fn, name="l1-perturbed")


def _build_spacelike_graph(p):
    amp = float(p["amplitude"])
    chart = Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17))

    def eval_fn(x):
        return np.stack([x[:, 0], x[:, 1], amp * np.sin(x[:, 0]) * np.sin(x[:, 1]),
                         np.zeros(len(x))], axis=1)

    return LiftedImmersion(LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2),
                           chart, eval_fn, name="spacelike-graph")


# ------------------------------------------------------------ support entry

def _dot_rows(a, b):
    """Row-wise dot products of two (P, 3) arrays, each with the bits of
    `a[i] @ b[i]` (a stacked matmul sums as the one-pair product does)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _quadric_support(ax, ay, az):
    m2 = np.array([ax, ay, az], dtype=float) ** 2

    def data(u):
        f = np.sqrt(_dot_rows(u, m2 * u))
        m2u = m2 * u
        # float_power rounds as the C library's pow, as a float's ** does;
        # numpy's power may differ from it in the last bit
        cube = np.float_power(f, 3)
        return (f, m2u / f[:, None] - f[:, None] * u,
                float(np.sum(m2)) / f - _dot_rows(m2u, m2u) / cube - 2.0 * f)

    return data


def _expr_support(g):
    """f(u) = g(u3): gradient g'(u3)(e3 - u3 u) and Laplacian
    (1 - u3^2) g''(u3) - 2 u3 g'(u3), from one Taylor evaluation."""
    e3 = np.array([0.0, 0.0, 1.0])

    def data(u):
        u3 = u[:, 2]
        g0, g1, g2 = _taylor2(g, u3)
        return (g0, g1[:, None] * (e3 - u3[:, None] * u),
                (1.0 - u3 * u3) * g2 - 2.0 * u3 * g1)

    return data


def _build_palmer_sphere(p):
    preset = str(p["preset"])
    chart = Chart(2, [-0.8, 0.25], [0.8, 0.9], (17, 17))
    if preset == "round":
        c = float(p["c"])
        return SupportFunction(
            chart, lambda u: (np.full(len(u), c), np.zeros_like(u), np.zeros(len(u))),
            name="palmer-round")
    if preset == "offset":
        c, eps = float(p["c"]), float(p["eps"])
        e3 = np.array([0.0, 0.0, 1.0])
        return SupportFunction(
            chart, lambda u: (c + eps * u[:, 2], eps * (e3 - u[:, 2:] * u),
                              -2.0 * eps * u[:, 2]), name="palmer-offset")
    if preset == "quadric":
        return SupportFunction(chart, _quadric_support(float(p["ax"]), float(p["ay"]),
                                                       float(p["az"])),
                               name="palmer-quadric")
    if preset == "expr":
        g = scalar_expr(p["f"], var="u3")
        _finite_on(g, shapes.sphere_chart(chart.grid())[:, 2], "palmer-sphere",
                   var="u3", derivatives=True)
        return SupportFunction(chart, _expr_support(g), name="palmer-expr")
    raise ParameterError(f"unknown palmer preset {preset!r}")


# ------------------------------------------------------------------ registry

def _hyp(name, factory, citation, params_doc="", defaults=()):
    def builder(p):
        return factory(**p)

    return CatalogEntry(name=name, kind="hypersurface", builder=builder,
                        citation=citation, params_doc=params_doc,
                        defaults=defaults)


CATALOG = {e.name: e for e in [
    _hyp("torus", lambda rad_major, rad_minor: shapes.torus(rad_major, rad_minor),
         "revolution torus band in Euclidean 3-space, both curvatures nonzero",
         "rad_major, rad_minor", (("rad_major", 2.0), ("rad_minor", 1.0))),
    _hyp("sphere", lambda radius: shapes.round_sphere(radius),
         "round sphere, umbilic (no flat-family lifts)",
         "radius", (("radius", 1.0),)),
    _hyp("ellipsoid", lambda ax, ay, az: shapes.ellipsoid(ax, ay, az),
         "triaxial ellipsoid patch away from its umbilics",
         "ax, ay, az", (("ax", 1.5), ("ay", 1.0), ("az", 0.8))),
    _hyp("catenoid", lambda: shapes.catenoid(),
         "minimal surface of revolution; its lift sits at height zero"),
    _hyp("clifford-torus", lambda: shapes.clifford_torus(),
         "minimal flat torus in the 3-sphere"),
    _hyp("sphere-torus", lambda alpha: shapes.clifford_torus(alpha),
         "flat product torus in the 3-sphere, non-minimal for alpha != pi/4",
         "alpha", (("alpha", 1.0),)),
    _hyp("small-sphere", lambda rho: shapes.geodesic_sphere_s3(rho),
         "umbilic distance sphere in the 3-sphere",
         "rho", (("rho", math.pi / 6),)),
    _hyp("hyperbolic-tube", lambda radius: shapes.geodesic_tube_h3(radius),
         "equidistant tube around a geodesic of hyperbolic 3-space",
         "radius", (("radius", 0.8),)),
    _hyp("equidistant", lambda dist: shapes.equidistant_h3(dist),
         "umbilic equidistant surface of hyperbolic 3-space",
         "dist", (("dist", 0.8),)),
    CatalogEntry("chen-l1", "lift", _build_chen_l1,
                 "Chen-Van der Veken planar family: (x, y, f(x), f(x))",
                 "f (expression in x, f'' nowhere zero)", (("f", "x**2"),),
                 expected_verdict="marginally_trapped"),
    CatalogEntry("chen-l2", "lift", _build_chen_l2,
                 "Chen-Van der Veken rotational family with q = sin x, r = 1",
                 expected_verdict="marginally_trapped"),
    CatalogEntry("chen-l3", "lift", _build_chen_l3,
                 "de Sitter family over the equatorial 2-sphere",
                 "f (expression in x, f'' + f nowhere zero)",
                 (("f", "2+sin(x)"),),
                 expected_verdict="marginally_trapped"),
    CatalogEntry("chen-l4", "lift", _build_chen_l4,
                 "anti-de Sitter example with constant null normal "
                 "(-1, 0, 1, -1, 1)",
                 expected_verdict="marginally_trapped"),
    CatalogEntry("palmer-sphere", "support", _build_palmer_sphere,
                 "support-function route on a chart of the 2-sphere",
                 "preset (round|offset|quadric|expr) with c, eps, ax, ay, az, f",
                 (("preset", "quadric"), ("c", 1.0), ("eps", 0.1),
                  ("ax", 1.3), ("ay", 1.0), ("az", 0.8), ("f", "1.0")),
                 expected_verdict="marginally_trapped"),
    CatalogEntry("l1-perturbed", "lift", _build_l1_perturbed,
                 "negative control: planar family with a non-null perturbation",
                 "f, eps", (("f", "x**2"), ("eps", 0.01)),
                 expected_verdict="not_marginal"),
    CatalogEntry("spacelike-graph", "lift", _build_spacelike_graph,
                 "negative control: generic spatial graph in a time slice",
                 "amplitude", (("amplitude", 0.1),),
                 expected_verdict="not_marginal"),
]}


def catalog_lookup(name: str, params: Optional[dict] = None):
    """Build a catalog entry instance; raises on unknown names or bad params."""
    if name not in CATALOG:
        raise UnknownEntryError(
            f"unknown catalog entry {name!r}; known: {', '.join(CATALOG)}")
    entry = CATALOG[name]
    return entry, entry.build(params)
