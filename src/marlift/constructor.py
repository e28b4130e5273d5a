"""Marginally trapped lifts of hypersurfaces into five Lorentzian ambients.

The construction has two branches. Lifts with null second fundamental form
are graphs of an arbitrary C^2 height field over a totally geodesic slice,
moved along the constant null direction (normal, 1). All other lifts shift a
hypersurface along its own normal congruence by a root of a curvature
polynomial:

  * flat family (Minkowski, de Sitter, anti de Sitter):
        P(t) = sum_i m_i prod_{j != i} (r_j - t),  r_i = 1/kappa_i,
    one root per consecutive pair of curvature radii;
  * sphere x line:
        P(s) = sum_i m_i (kappa_i s + 1) prod_{j != i} (s - kappa_j);
  * hyperbolic x line:
        P(s) = sum_i m_i (kappa_i s - 1) prod_{j != i} (s - kappa_j),
    roots kept only when |s| > 1.

Both branches are placed in the ambient by one table, `_PLACEMENT`: per
ambient family it takes a source point, its unit normal and a height to the
lift and its distinguished null normal. It is the one place the lift
formulas live.

Breakpoint signs are evaluated through their exact factored forms, so the
bracketing used by the bisection stage never relies on cancellation-prone
expanded coefficients.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    DEFAULTS,
    Chart,
    DegenerateMetricError,
    DimensionMismatchError,
    GeometryError,
    Jet2,
    Signature,
    bilinear,
    jet2_of,
)
from .hypersurface import (
    HypersurfaceImmersion,
    PointFrame,
    ShapeSpectrum,
    SpaceForm,
    SpaceFormKind,
    frame_at,
    mean_gauss_at,
    spectrum_at,
)

__all__ = [
    "AmbientKind",
    "LorentzAmbient",
    "CurvaturePolynomial",
    "Root",
    "LiftedImmersion",
    "LiftContext",
    "Provenance",
    "TotallyGeodesicSlice",
    "SupportFunction",
    "curvature_polynomial",
    "solve_roots",
    "roots_at",
    "null_lift",
    "flat_slice",
    "spherical_slice",
    "hyperbolic_slice",
    "lift_minkowski",
    "lift_desitter",
    "lift_antidesitter",
    "lift_sphere_product",
    "lift_hyperbolic_product",
    "lift_palmer",
    "support_route_lift",
    "graph_lift",
    "product_height_lift",
    "space_form_lifts",
    "product_lifts",
    "thread_root_fields",
    "height_ratio",
    "sphere_product_closed_roots",
    "hyperbolic_product_closed_roots",
    "arccot",
    "arccoth",
    "VanishingCurvatureError",
    "UnsupportedAmbientError",
    "BracketingError",
    "FilteredRootError",
    "PatternChangeError",
    "ConstructionError",
]


class ConstructionError(GeometryError):
    pass


class VanishingCurvatureError(ConstructionError):
    pass


class UnsupportedAmbientError(ConstructionError):
    pass


class BracketingError(ConstructionError):
    pass


class FilteredRootError(ConstructionError):
    pass


class PatternChangeError(ConstructionError):
    pass


# --------------------------------------------------------------- ambients

class AmbientKind(enum.Enum):
    MINKOWSKI = "minkowski"
    DE_SITTER = "desitter"
    ANTI_DE_SITTER = "antidesitter"
    SPHERE_PRODUCT = "sphere-product"
    HYPERBOLIC_PRODUCT = "hyperbolic-product"


SPACE_FORM_FAMILY = (AmbientKind.MINKOWSKI, AmbientKind.DE_SITTER,
                     AmbientKind.ANTI_DE_SITTER)
PRODUCT_FAMILY = (AmbientKind.SPHERE_PRODUCT, AmbientKind.HYPERBOLIC_PRODUCT)

_SOURCE_SPACE = {
    AmbientKind.MINKOWSKI: SpaceFormKind.EUCLIDEAN,
    AmbientKind.DE_SITTER: SpaceFormKind.SPHERE,
    AmbientKind.ANTI_DE_SITTER: SpaceFormKind.HYPERBOLIC,
    AmbientKind.SPHERE_PRODUCT: SpaceFormKind.SPHERE,
    AmbientKind.HYPERBOLIC_PRODUCT: SpaceFormKind.HYPERBOLIC,
}


@dataclass(frozen=True)
class LorentzAmbient:
    """Lorentzian ambient inside its flat container.

    dim is the ambient dimension n+2 for an n-dimensional submanifold. The
    product ambients carry the constraint on their first coordinate block;
    its flat form is the restriction of the container form.
    """

    kind: AmbientKind
    dim: int

    @property
    def n(self) -> int:
        return self.dim - 2

    @property
    def container_dim(self) -> int:
        return self.dim if self.kind is AmbientKind.MINKOWSKI else self.dim + 1

    @property
    def signature(self) -> Signature:
        n = self.n
        if self.kind is AmbientKind.MINKOWSKI:
            return Signature.of(n + 1, 1)
        if self.kind in (AmbientKind.DE_SITTER, AmbientKind.SPHERE_PRODUCT):
            return Signature.of(n + 2, 1)
        return Signature.of(n + 1, 2)

    @property
    def is_product(self) -> bool:
        return self.kind in PRODUCT_FAMILY

    @property
    def quadric_constant(self) -> Optional[float]:
        return {
            AmbientKind.MINKOWSKI: None,
            AmbientKind.DE_SITTER: 1.0,
            AmbientKind.ANTI_DE_SITTER: -1.0,
            AmbientKind.SPHERE_PRODUCT: 1.0,
            AmbientKind.HYPERBOLIC_PRODUCT: -1.0,
        }[self.kind]

    def _block_value(self, point: np.ndarray) -> float:
        block = point[:-1]
        if self.kind is AmbientKind.SPHERE_PRODUCT:
            return float(np.dot(block, block))
        return float(np.dot(block[:-1], block[:-1]) - block[-1] ** 2)

    def constraint_residual(self, point: np.ndarray) -> float:
        c = self.quadric_constant
        if c is None:
            return 0.0
        point = np.asarray(point, dtype=float)
        if self.is_product:
            return abs(self._block_value(point) - c)
        return abs(bilinear(self.signature, point, point) - c)

    def constraint_normals(self, point: np.ndarray) -> np.ndarray:
        """Flat-form gradients of the active constraints, one per row."""
        if self.quadric_constant is None:
            return np.zeros((0, self.container_dim))
        point = np.asarray(point, dtype=float)
        if self.is_product:
            z = point.copy()
            z[-1] = 0.0
            return z[None, :]
        return point[None, :]

    @staticmethod
    def for_kind(kind: AmbientKind, n: int) -> "LorentzAmbient":
        return LorentzAmbient(kind=kind, dim=n + 2)


# ----------------------------------------------------- curvature polynomial

def arccot(s: float) -> float:
    """Inverse cotangent on the branch (0, pi), continuous across s = 0."""
    return 0.5 * math.pi - math.atan(s)


def arccoth(s: float) -> float:
    if abs(s) <= 1.0:
        raise FilteredRootError(f"arccoth needs |s| > 1, got {s}")
    return 0.5 * math.log((s + 1.0) / (s - 1.0))


def _polyval(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != 0.0:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return out


@dataclass(frozen=True)
class CurvaturePolynomial:
    """Height polynomial of a curvature spectrum, with guaranteed brackets.

    `breakpoints` are the curvature radii (flat family) or the curvatures
    (product family); `breakpoint_values` are the exact factored evaluations
    of the polynomial there. Each bracket is (a, b, sign_a, sign_b) with a
    strict sign change.
    """

    ambient_kind: AmbientKind
    kappas: tuple
    mults: tuple
    coeffs: tuple            # ascending
    breakpoints: tuple
    breakpoint_values: tuple
    brackets: tuple
    trace: float            # sum m_i kappa_i (n times the mean curvature)
    minimal: bool

    def __call__(self, t: float) -> float:
        return _polyval(self.coeffs, t)

    def deriv(self, t: float) -> float:
        acc = 0.0
        cs = self.coeffs
        for k in range(len(cs) - 1, 0, -1):
            acc = acc * t + k * cs[k]
        return acc

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _expand(kind: AmbientKind, kappas, mults) -> tuple:
    """Ascending coefficients of the height polynomial."""
    p = len(kappas)
    total = [0.0]
    for i in range(p):
        if kind in SPACE_FORM_FAMILY:
            term = [float(mults[i])]
            for j in range(p):
                if j != i:
                    term = _poly_mul(term, [1.0 / kappas[j], -1.0])
        else:
            sign = 1.0 if kind is AmbientKind.SPHERE_PRODUCT else -1.0
            m = float(mults[i])
            term = [m * sign, m * kappas[i]]
            for j in range(p):
                if j != i:
                    term = _poly_mul(term, [-kappas[j], 1.0])
        total = _poly_add(total, term)
    return tuple(total)


def _expand_bracket(poly_eval, start: float, step0: float, direction: float,
                    sign_inner: float):
    """Walk outward geometrically until the polynomial changes sign."""
    width = step0
    for _ in range(80):
        t = start + direction * width
        val = poly_eval(t)
        if val != 0.0 and math.copysign(1.0, val) != sign_inner:
            return t, math.copysign(1.0, val)
        width *= 2.0
    raise BracketingError(
        f"no sign change found expanding from {start} in direction {direction}")


def curvature_polynomial(spectrum: ShapeSpectrum | Sequence[float],
                         ambient_kind: AmbientKind,
                         mults: Optional[Sequence[int]] = None,
                         tol_zero: Optional[float] = None,
                         tol_minimal: Optional[float] = None) -> CurvaturePolynomial:
    """Build the height polynomial and its root brackets for one spectrum.

    Accepts a ShapeSpectrum or a raw (kappas, mults) pair. For the flat
    family the curvatures must be nonvanishing; a single curvature yields a
    polynomial with an empty bracket list rather than an error.
    """
    if isinstance(spectrum, ShapeSpectrum):
        kappas = list(spectrum.kappas)
        ms = list(spectrum.mults)
    else:
        kappas = [float(k) for k in spectrum]
        ms = list(mults) if mults is not None else [1] * len(kappas)
    if len(kappas) != len(ms):
        raise DimensionMismatchError("kappas and mults must align")
    if tol_zero is None:
        tol_zero = DEFAULTS.tol_zero
    if tol_minimal is None:
        tol_minimal = DEFAULTS.tol_minimal

    kind = ambient_kind
    pairs = sorted(zip(kappas, ms))
    kappas = [k for k, _ in pairs]
    ms = [m for _, m in pairs]
    p = len(kappas)
    trace = float(sum(m * k for m, k in zip(ms, kappas)))

    if kind in SPACE_FORM_FAMILY:
        if any(abs(k) <= tol_zero for k in kappas):
            raise VanishingCurvatureError(
                f"flat-family construction needs nonvanishing curvatures, got {kappas}")
        rpairs = sorted((1.0 / k, m) for k, m in pairs)
        radii = [r for r, _ in rpairs]
        ms_r = [m for _, m in rpairs]
        bps = radii
        bp_vals = []
        for i in range(p):
            prod = ms_r[i]
            for j in range(p):
                if j != i:
                    prod *= radii[j] - radii[i]
            bp_vals.append(float(prod))
        signs = [math.copysign(1.0, v) for v in bp_vals]
        for i in range(p - 1):
            if signs[i] == signs[i + 1]:
                raise BracketingError(
                    f"breakpoint signs fail to alternate: values {bp_vals}")
        coeffs = _expand(kind, kappas, ms)
        brackets = tuple((bps[i], bps[i + 1], signs[i], signs[i + 1])
                         for i in range(p - 1))
        return CurvaturePolynomial(kind, tuple(kappas), tuple(ms), coeffs,
                                   tuple(bps), tuple(bp_vals), brackets,
                                   trace, abs(trace) <= tol_minimal)

    if kind not in PRODUCT_FAMILY:
        raise UnsupportedAmbientError(f"unknown ambient kind {ambient_kind}")

    coeffs = _expand(kind, kappas, ms)
    unit = 1.0 if kind is AmbientKind.SPHERE_PRODUCT else -1.0
    bp_vals = []
    for i in range(p):
        prod = ms[i] * (kappas[i] ** 2 + unit)
        for j in range(p):
            if j != i:
                prod *= kappas[i] - kappas[j]
        bp_vals.append(float(prod))
    signs = [0.0 if v == 0.0 else math.copysign(1.0, v) for v in bp_vals]

    brackets = []
    for i in range(p - 1):
        if signs[i] != 0.0 and signs[i + 1] != 0.0 and signs[i] != signs[i + 1]:
            brackets.append((kappas[i], kappas[i + 1], signs[i], signs[i + 1]))

    minimal = abs(trace) <= tol_minimal
    if not minimal:
        # the two end behaviours: sign(P) at +inf and at -inf
        sign_pos = math.copysign(1.0, trace)
        sign_neg = sign_pos * (-1.0) ** p
        span = max(1.0, (2.0 / abs(trace)) * max(
            1.0, sum(m * abs(k) for m, k in zip(ms, kappas))))
        poly_eval = lambda t: _polyval(coeffs, t)
        if signs[-1] != 0.0 and signs[-1] != sign_pos:
            far, fs = _expand_bracket(poly_eval, kappas[-1], span, +1.0, signs[-1])
            brackets.append((kappas[-1], far, signs[-1], fs))
        if signs[0] != 0.0 and signs[0] != sign_neg:
            far, fs = _expand_bracket(poly_eval, kappas[0], span, -1.0, signs[0])
            brackets.append((far, kappas[0], fs, signs[0]))

    brackets.sort(key=lambda br: br[0])
    return CurvaturePolynomial(kind, tuple(kappas), tuple(ms), coeffs,
                               tuple(kappas), tuple(bp_vals), tuple(brackets),
                               trace, minimal)


# --------------------------------------------------------------- root solve

@dataclass(frozen=True)
class Root:
    value: float
    bracket: tuple
    degenerate: bool


def solve_roots(poly: CurvaturePolynomial,
                tol_root: Optional[float] = None,
                tol_degenerate: Optional[float] = None) -> list:
    """One root per bracket: bisection to width tol_root, then Newton polish.

    Hyperbolic-product roots with |s| <= 1 are dropped (they produce no
    spacelike lift); roots landing within tolerance of a breakpoint are
    flagged degenerate because the induced metric collapses there.
    """
    if tol_root is None:
        tol_root = DEFAULTS.tol_root
    if tol_degenerate is None:
        tol_degenerate = DEFAULTS.tol_degenerate

    out = []
    for a0, b0, sa, sb in poly.brackets:
        if sa == sb or sa == 0.0 or sb == 0.0:
            raise BracketingError(f"invalid bracket ({a0}, {b0}) signs ({sa}, {sb})")
        a, b = float(a0), float(b0)
        for _ in range(260):
            if b - a <= tol_root:
                break
            mid = 0.5 * (a + b)
            fm = poly(mid)
            if fm == 0.0:
                a = b = mid
                break
            if math.copysign(1.0, fm) == sa:
                a = mid
            else:
                b = mid
        t = 0.5 * (a + b)
        for _ in range(8):
            d = poly.deriv(t)
            if d == 0.0:
                break
            step = poly(t) / d
            t_new = t - step
            if not (a0 <= t_new <= b0):
                break
            t = t_new
            if abs(step) <= 1e-17 * max(1.0, abs(t)):
                break
        degen = any(abs(t - bp) <= tol_degenerate * (1.0 + abs(bp))
                    for bp in poly.breakpoints)
        if poly.ambient_kind is AmbientKind.HYPERBOLIC_PRODUCT and abs(t) <= 1.0:
            continue
        out.append(Root(value=float(t), bracket=(float(a0), float(b0)),
                        degenerate=bool(degen)))
    out.sort(key=lambda r: r.value)
    return out


def roots_at(imm: HypersurfaceImmersion, kind: AmbientKind, x,
             h: Optional[float] = None):
    """Frame, spectrum and solved roots of one chart point."""
    frame = frame_at(imm, x, h=h)
    spectrum = spectrum_at(frame)
    poly = curvature_polynomial(spectrum, kind)
    return frame, spectrum, solve_roots(poly)


# ------------------------------------------------------------ closed forms

def height_ratio(k1: float, k2: float) -> float:
    """Surface height of the flat-family lift: mean over Gauss curvature."""
    return 0.5 * (1.0 / k1 + 1.0 / k2)


def sphere_product_closed_roots(k1: float, k2: float):
    """Two-curvature closed form for the sphere product: a +- sqrt(a^2+1)."""
    if abs(k1 + k2) <= DEFAULTS.tol_minimal:
        raise VanishingCurvatureError("closed form needs a non-minimal surface")
    a = (k1 * k2 - 1.0) / (k1 + k2)
    d = math.sqrt(a * a + 1.0)
    return a - d, a + d


def hyperbolic_product_closed_roots(k1: float, k2: float):
    """Closed form for the hyperbolic product; only |s| > 1 roots survive."""
    if abs(k1 + k2) <= DEFAULTS.tol_minimal:
        raise VanishingCurvatureError("closed form needs a non-minimal surface")
    a = (k1 * k2 + 1.0) / (k1 + k2)
    if a * a <= 1.0:
        return ()
    d = math.sqrt(a * a - 1.0)
    return tuple(s for s in (a - d, a + d) if abs(s) > 1.0)


# ------------------------------------------------------------------- lifts

@dataclass(frozen=True)
class Provenance:
    family: str
    source_name: str = ""
    root_index: Optional[int] = None
    root_count: Optional[int] = None
    pattern: Optional[tuple] = None
    detail: str = ""


@dataclass(frozen=True)
class LiftContext:
    """Cross-check data the verifier may consult: the lemma identities are
    expressed through the source frame, its raw curvatures and the height."""

    frame: PointFrame
    spectrum: ShapeSpectrum
    tau: float
    s: Optional[float] = None


@dataclass(frozen=True)
class LiftedImmersion:
    """Evaluatable spacelike map into a Lorentzian ambient."""

    ambient: LorentzAmbient
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    null_normal_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    context_fn: Optional[Callable[[np.ndarray], LiftContext]] = None
    provenance: Provenance = Provenance(family="unspecified")
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=float)

    def null_normal(self, x) -> Optional[np.ndarray]:
        if self.null_normal_fn is None:
            return None
        return np.asarray(self.null_normal_fn(np.asarray(x, dtype=float)), dtype=float)

    def context(self, x) -> Optional[LiftContext]:
        if self.context_fn is None:
            return None
        return self.context_fn(np.asarray(x, dtype=float))


def _check_source(imm: HypersurfaceImmersion, kind: AmbientKind,
                  family: Sequence[AmbientKind] = tuple(AmbientKind)):
    if kind not in family:
        raise UnsupportedAmbientError(
            f"{kind.value} is not one of {', '.join(k.value for k in family)}")
    want = _SOURCE_SPACE[kind]
    if imm.space.kind is not want:
        raise UnsupportedAmbientError(
            f"{kind.value} lifts need a {want.value} hypersurface, "
            f"got {imm.space.kind.value}")


def _reference_pattern(imm, kind, h):
    candidates = [0.5 * (imm.chart.lower + imm.chart.upper)]
    step = h if h is not None else DEFAULTS.step_h
    candidates.extend(imm.chart.grid(margin=4.0 * step)[:8])
    err = None
    for x0 in candidates:
        if imm.chart.excluded is not None and imm.chart.excluded(np.asarray(x0)):
            continue
        try:
            _, spectrum, roots = roots_at(imm, kind, x0, h=h)
            return spectrum.pattern, len(roots)
        except GeometryError as exc:
            err = exc
    raise ConstructionError(f"no usable reference point on the chart: {err}")


def _guarded_roots(imm, kind, x, h, pattern, count):
    frame, spectrum, roots = roots_at(imm, kind, x, h=h)
    if pattern is not None and spectrum.pattern != pattern:
        raise PatternChangeError(
            f"multiplicity pattern changed to {spectrum.pattern} at chart {x}")
    if count is not None and len(roots) != count:
        raise PatternChangeError(
            f"root count changed from {count} to {len(roots)} at chart {x}")
    return frame, spectrum, roots


def _constraint_sanity(ambient: LorentzAmbient, eval_fn, chart: Chart):
    """The lift formulas satisfy the ambient constraint identically; a failure
    here means inconsistent construction data, not a bad sample."""
    x0 = 0.5 * (chart.lower + chart.upper)
    try:
        val = eval_fn(x0)
    except GeometryError:
        return
    res = ambient.constraint_residual(val)
    if res > DEFAULTS.tol_quadric * (1.0 + float(np.max(np.abs(val)))):
        raise ConstructionError(
            f"lift violates the {ambient.kind.value} constraint by {res:.3e}")


def _memoized(fn, size: int = 64):
    """Per-lift memo on the chart point; stencil evaluations repeat points."""
    cache = {}

    def wrapped(x):
        key = x.tobytes()
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= size:
                cache.clear()
            hit = fn(x)
            cache[key] = hit
        return hit

    return wrapped


# The lift formulas, one row per ambient family: a source point p, its unit
# normal nu and the height (t, or the polynomial parameter s in the products)
# give the spatial part and the time coordinate of the lift, then the spatial
# part of the distinguished null normal, whose time coordinate is 1.
_PLACEMENT = {
    "flat-family": (
        lambda p, nu, t: p + t * nu,
        lambda t: t,
        lambda p, nu, t: nu),
    "sphere-product": (
        lambda p, nu, s: (s * p + nu) / math.sqrt(1.0 + s * s),
        arccot,
        lambda p, nu, s: (s * nu - p) / math.sqrt(1.0 + s * s)),
    "hyperbolic-product": (
        lambda p, nu, s: (s * p + nu) / math.sqrt(s * s - 1.0),
        arccoth,
        lambda p, nu, s: (p + s * nu) / math.sqrt(s * s - 1.0)),
}


def _shift_lift(kind: AmbientKind, chart: Chart, pick, name: str,
                context: bool = True, **provenance) -> LiftedImmersion:
    """Normal-shift lift placed by the row of its ambient family.

    pick(x) = (frame, spectrum, height) gives the source point frame.point,
    its unit normal frame.normal and the height. The spectrum is read only by
    the cross-check context, which computes it from the frame when pick
    leaves it None. `provenance` holds the Provenance fields; the family
    defaults to the placement row.
    """
    family = "flat-family" if kind in SPACE_FORM_FAMILY else kind.value
    spatial, time, null = _PLACEMENT[family]
    ambient = LorentzAmbient.for_kind(kind, chart.dim)
    pick = _memoized(pick)

    def eval_fn(x):
        frame, _, height = pick(x)
        t = time(height)    # arccoth rejects |s| <= 1 before the square root
        return np.append(spatial(frame.point, frame.normal, height), t)

    def null_fn(x):
        frame, _, height = pick(x)
        return np.append(null(frame.point, frame.normal, height), 1.0)

    def context_fn(x):
        frame, spectrum, height = pick(x)
        if spectrum is None:
            spectrum = spectrum_at(frame)
        return LiftContext(frame=frame, spectrum=spectrum, tau=time(height),
                           s=None if family == "flat-family" else height)

    _constraint_sanity(ambient, eval_fn, chart)
    provenance.setdefault("family", family)
    return LiftedImmersion(ambient, chart, eval_fn, null_fn,
                           context_fn if context else None,
                           Provenance(**provenance), name=name)


def _root_lift(imm, kind, family, root_index, h, offset=0.0) -> LiftedImmersion:
    _check_source(imm, kind, family)
    pattern, count = _reference_pattern(imm, kind, h)
    if not 0 <= root_index < count:
        raise FilteredRootError(
            f"root index {root_index} out of range: {count} root(s) available")

    def pick(x):
        frame, spectrum, roots = _guarded_roots(imm, kind, x, h, pattern, count)
        root = roots[root_index]
        if root.degenerate and offset == 0.0:
            raise DegenerateMetricError(
                f"root {root.value} hits a breakpoint at chart {x}")
        return frame, spectrum, root.value + offset

    return _shift_lift(kind, imm.chart, pick,
                       f"{imm.name}:{kind.value}[{root_index}]",
                       source_name=imm.name, root_index=root_index,
                       root_count=count, pattern=pattern,
                       detail="height offset %g" % offset if offset else "")


def _all_lifts(one_lift, imm, kind, family, h) -> list:
    _check_source(imm, kind, family)
    _, count = _reference_pattern(imm, kind, h)
    return [one_lift(imm, kind, i, h) for i in range(count)]


def space_form_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
                    root_index: int = 0, h: Optional[float] = None,
                    offset: float = 0.0) -> LiftedImmersion:
    """Flat-family lift whose height t is the root field of the given index.

    `offset` shifts the height away from the root; it exists for negative
    controls and must be zero for a marginally trapped lift.
    """
    return _root_lift(imm, kind, SPACE_FORM_FAMILY, root_index, h, offset)


def lift_minkowski(imm, root_index: int = 0, h=None, offset: float = 0.0):
    return space_form_lift(imm, AmbientKind.MINKOWSKI, root_index, h, offset)


def lift_desitter(imm, root_index: int = 0, h=None, offset: float = 0.0):
    return space_form_lift(imm, AmbientKind.DE_SITTER, root_index, h, offset)


def lift_antidesitter(imm, root_index: int = 0, h=None, offset: float = 0.0):
    return space_form_lift(imm, AmbientKind.ANTI_DE_SITTER, root_index, h, offset)


def space_form_lifts(imm, kind, h=None) -> list:
    return _all_lifts(space_form_lift, imm, kind, SPACE_FORM_FAMILY, h)


def product_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
                 root_index: int = 0, h: Optional[float] = None) -> LiftedImmersion:
    """Product-ambient lift by a kept root of the product polynomial."""
    return _root_lift(imm, kind, PRODUCT_FAMILY, root_index, h)


def lift_sphere_product(imm, root_index: int = 0, h=None):
    return product_lift(imm, AmbientKind.SPHERE_PRODUCT, root_index, h)


def lift_hyperbolic_product(imm, root_index: int = 0, h=None):
    return product_lift(imm, AmbientKind.HYPERBOLIC_PRODUCT, root_index, h)


def product_lifts(imm, kind, h=None) -> list:
    return _all_lifts(product_lift, imm, kind, PRODUCT_FAMILY, h)


def graph_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
               tau_fn: Callable[[PointFrame], float],
               h: Optional[float] = None, name: str = "") -> LiftedImmersion:
    """Flat-family lift with an arbitrary height field tau_fn(frame).

    Used for the surface-curvature closed form (mean over Gauss) and for
    negative controls; marginality is whatever the height field makes it.
    """
    _check_source(imm, kind, SPACE_FORM_FAMILY)

    def pick(x):
        frame = frame_at(imm, x, h=h)
        return frame, None, tau_fn(frame)

    return _shift_lift(kind, imm.chart, pick, name or f"{imm.name}:graph",
                       source_name=imm.name, detail="explicit height field")


def product_height_lift(imm: HypersurfaceImmersion, height: float,
                        kind: AmbientKind, h: Optional[float] = None) -> LiftedImmersion:
    """Product embedding of a hypersurface at one constant height.

    A control object: it is marginally trapped only if the height matches a
    root of the product polynomial through the s = cot/coth correspondence.
    """
    _check_source(imm, kind, PRODUCT_FAMILY)
    ambient = LorentzAmbient.for_kind(kind, imm.chart.dim)

    def eval_fn(x):
        return np.append(imm(x), height)

    def null_fn(x):
        frame = frame_at(imm, x, h=h)
        return np.append(frame.normal, 1.0)

    def context_fn(x):
        frame = frame_at(imm, x, h=h)
        s = (1.0 / math.tan(height) if kind is AmbientKind.SPHERE_PRODUCT
             else 1.0 / math.tanh(height))
        return LiftContext(frame=frame, spectrum=spectrum_at(frame),
                           tau=height, s=s)

    prov = Provenance(family=kind.value, source_name=imm.name,
                      detail=f"constant height {height}")
    return LiftedImmersion(ambient, imm.chart, eval_fn, null_fn, context_fn,
                           prov, name=f"{imm.name}:height{height:g}")


# --------------------------------------------------------------- null lifts

@dataclass(frozen=True)
class TotallyGeodesicSlice:
    """Totally geodesic hypersurface of a space form with a constant unit normal."""

    kind: AmbientKind
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    normal0: np.ndarray

    def __call__(self, x):
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=float)


class _SlicePoint(NamedTuple):
    point: np.ndarray
    normal: np.ndarray


def flat_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The coordinate hyperplane of Euclidean space, normal along the last axis."""
    n = chart.dim
    nu0 = np.zeros(n + 1)
    nu0[-1] = 1.0
    return TotallyGeodesicSlice(AmbientKind.MINKOWSKI, chart,
                                lambda x: np.append(x, 0.0), nu0)


def spherical_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The equatorial 2-sphere of S^3, normal along the suppressed axis."""
    if chart.dim != 2:
        raise DimensionMismatchError("spherical slice is implemented for surfaces")
    from .shapes import sphere_chart

    nu0 = np.array([0.0, 0.0, 0.0, 1.0])
    return TotallyGeodesicSlice(AmbientKind.DE_SITTER, chart,
                                lambda x: np.append(sphere_chart(x), 0.0), nu0)


def hyperbolic_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The totally geodesic H^2 inside H^3, normal along the suppressed axis."""
    if chart.dim != 2:
        raise DimensionMismatchError("hyperbolic slice is implemented for surfaces")

    def fn(x):
        shu, chu = math.sinh(x[0]), math.cosh(x[0])
        return np.array([shu * math.cos(x[1]), shu * math.sin(x[1]), 0.0, chu])

    nu0 = np.array([0.0, 0.0, 1.0, 0.0])
    return TotallyGeodesicSlice(AmbientKind.ANTI_DE_SITTER, chart, fn, nu0)


def null_lift(slice_: TotallyGeodesicSlice,
              tau_fn: Callable[[np.ndarray], float],
              ambient_kind: Optional[AmbientKind] = None,
              name: str = "") -> LiftedImmersion:
    """Graph of a height field over a totally geodesic slice, moved along the
    constant null direction (normal, 1).

    Its second fundamental form is the height Hessian times that null vector,
    so the lift is marginally trapped for every C^2 height field. The product
    ambients admit no such lift besides the totally geodesic one and are
    rejected.
    """
    kind = ambient_kind if ambient_kind is not None else slice_.kind
    if kind in PRODUCT_FAMILY:
        raise UnsupportedAmbientError(
            "the product ambients carry no nontrivial lifts with null second "
            "fundamental form; only the flat family does")
    if kind is not slice_.kind:
        raise UnsupportedAmbientError(
            f"slice targets {slice_.kind.value}, requested {kind.value}")

    def pick(x):
        return _SlicePoint(slice_(x), slice_.normal0), None, float(tau_fn(x))

    return _shift_lift(kind, slice_.chart, pick,
                       name or f"null-lift:{kind.value}", context=False,
                       family="null-second-form", source_name=name or "slice",
                       detail="height graph along the constant null direction")


# --------------------------------------------------------- support functions

@dataclass(frozen=True)
class SupportFunction:
    """Scalar field on a chart of S^2 with round-metric gradient and Laplacian.

    Analytic providers take a unit vector u in R^3; when absent, both are
    computed from chart jets of f and of the chart map (the Laplacian through
    the metric and Christoffel data of the chart).
    """

    chart: Chart
    f: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lap: Optional[Callable[[np.ndarray], float]] = None
    name: str = ""

    def _chart_jet(self, x) -> Jet2:
        from .shapes import sphere_chart_jet
        return sphere_chart_jet(np.asarray(x, dtype=float))

    def point(self, x) -> np.ndarray:
        from .shapes import sphere_chart
        return sphere_chart(np.asarray(x, dtype=float))

    def value(self, x) -> float:
        return float(self.f(self.point(x)))

    def _chart_data(self, x):
        ju = self._chart_jet(x)
        jf = jet2_of(lambda y: np.array([self.f(self.point(y))]),
                     np.asarray(x, dtype=float), h=DEFAULTS.step_h)
        g = ju.d1 @ ju.d1.T
        ginv = np.linalg.inv(g)
        return ju, jf, g, ginv

    def gradient(self, x) -> np.ndarray:
        u = self.point(x)
        if self.grad is not None:
            return np.asarray(self.grad(u), dtype=float)
        ju, jf, _, ginv = self._chart_data(x)
        df = jf.d1[:, 0]
        return (ginv @ df) @ ju.d1

    def laplacian(self, x) -> float:
        u = self.point(x)
        if self.lap is not None:
            return float(self.lap(u))
        ju, jf, g, ginv = self._chart_data(x)
        df = jf.d1[:, 0]
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                # Christoffel contraction via <d2 u_ij, du_l>
                gamma = ginv @ (ju.d1 @ ju.d2[i, j])
                hess[i, j] = jf.d2[i, j, 0] - float(gamma @ df)
        return float(np.sum(ginv * hess))

    def reconstruction(self) -> HypersurfaceImmersion:
        """The convex-front surface with this support data: f u + grad f."""

        def fn(x):
            u = self.point(x)
            return float(self.f(u)) * u + self.gradient(x)

        return HypersurfaceImmersion(SpaceForm.euclidean(3), self.chart, fn,
                                     name=f"{self.name or 'support'}-front")


def lift_palmer(sf: SupportFunction, name: str = "") -> LiftedImmersion:
    """Marginally trapped lift from support data alone.

    The height is -(f + Laplacian(f)/2), the surface-curvature ratio of the
    reconstructed front, and the spatial part is the front shifted to the
    focal position: grad f - (Laplacian(f)/2) u. The distinguished null
    normal is (u, 1).
    """
    ambient = LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2)

    def eval_fn(x):
        u = sf.point(x)
        lap = sf.laplacian(x)
        spatial = sf.gradient(x) - 0.5 * lap * u
        return np.append(spatial, -sf.value(x) - 0.5 * lap)

    def null_fn(x):
        return np.append(sf.point(x), 1.0)

    recon = sf.reconstruction()

    def context_fn(x):
        frame = frame_at(recon, x)
        return LiftContext(frame=frame, spectrum=spectrum_at(frame),
                           tau=-sf.value(x) - 0.5 * sf.laplacian(x))

    prov = Provenance(family="flat-family", source_name=sf.name or "support",
                      detail="support-function route; equals the normal-shift "
                             "lift of the reconstructed front")
    return LiftedImmersion(ambient, sf.chart, eval_fn, null_fn, context_fn,
                           prov, name=name or f"palmer:{sf.name}")


def support_route_lift(sf: SupportFunction, h: Optional[float] = None) -> LiftedImmersion:
    """Independent route: reconstruct the front, then lift by the surface
    curvature ratio computed from frames (mean over Gauss curvature)."""
    recon = sf.reconstruction()

    def tau_fn(frame):
        hmean, kgauss = mean_gauss_at(frame)
        return hmean / kgauss

    return graph_lift(recon, AmbientKind.MINKOWSKI, tau_fn, h=h,
                      name=f"{sf.name or 'support'}-route")


# ------------------------------------------------------------ root threading

@dataclass(frozen=True)
class RootThreads:
    """Root fields sampled over a raster grid, one column per root index."""

    points: np.ndarray
    values: np.ndarray          # shape (P, count)
    pattern: tuple
    count: int


def thread_root_fields(imm: HypersurfaceImmersion, kind: AmbientKind,
                       resolution: Optional[Sequence[int]] = None,
                       h: Optional[float] = None,
                       jump_factor: float = 10.0) -> RootThreads:
    """Solve the roots over the chart grid and thread them into fields.

    Samples are matched to their grid neighbor along each axis; a jump larger
    than jump_factor times the variation last seen on the same axis, or any
    multiplicity-pattern change, aborts with PatternChangeError. The first
    step on an axis calibrates the local variation instead of being checked.
    """
    _check_source(imm, kind)
    chart = imm.chart if resolution is None else imm.chart.with_resolution(resolution)
    step = h if h is not None else DEFAULTS.step_h
    grid = chart.grid(margin=4.0 * step)
    shape = chart.resolution
    pattern = None
    count = None
    values = None
    last_jump = {}
    for idx, x in enumerate(grid):
        if chart.excluded is not None and chart.excluded(x):
            continue
        _, spectrum, roots = roots_at(imm, kind, x, h=h)
        if pattern is None:
            pattern = spectrum.pattern
            count = len(roots)
            values = np.full((len(grid), count), np.nan)
        if spectrum.pattern != pattern or len(roots) != count:
            raise PatternChangeError(
                f"pattern changed from {pattern}/{count} roots to "
                f"{spectrum.pattern}/{len(roots)} at chart {x}")
        values[idx] = [r.value for r in roots]

        multi = np.unravel_index(idx, shape)
        for axis in range(len(shape) - 1, -1, -1):
            if multi[axis] == 0:
                continue
            prev_multi = list(multi)
            prev_multi[axis] -= 1
            pidx = int(np.ravel_multi_index(prev_multi, shape))
            if np.any(np.isnan(values[pidx])):
                break
            jump = np.abs(values[idx] - values[pidx])
            base = last_jump.get(axis)
            if base is not None:
                scale = np.maximum(base, 1e-9 * (1.0 + np.abs(values[pidx])))
                if np.any(jump > jump_factor * scale):
                    raise PatternChangeError(
                        f"root field jump {float(jump.max()):.3e} at chart {x} "
                        f"exceeds {jump_factor} x the local variation")
            last_jump[axis] = np.maximum(jump, 1e-12)
            break
    if pattern is None:
        raise ConstructionError("no usable grid points for root threading")
    return RootThreads(points=grid, values=values, pattern=pattern, count=count)
