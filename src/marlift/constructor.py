"""Marginally trapped lifts of hypersurfaces into five Lorentzian ambients.

The construction has two branches. Lifts with null second fundamental form
are graphs of an arbitrary C^2 height field over a totally geodesic slice,
moved along the constant null direction (normal, 1). All other lifts shift a
hypersurface along its own normal congruence by a root of a curvature
polynomial (`polynomial`, whose names this module re-exports).

Both branches are placed in the ambient by one table, `_PLACEMENT`: per
ambient family it takes a source point, its unit normal and a height to the
lift and its distinguished null normal. It is the one place the lift
formulas live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    DEFAULTS,
    Chart,
    DegenerateMetricError,
    DimensionMismatchError,
    Jet2,
    Rows,
    Signature,
    _fail,
    bilinear_rows,
    jet2_of,
    looped,
    shape_eigen_rows,
    stacked,
)
from .hypersurface import (
    HypersurfaceImmersion,
    PointFrame,
    ShapeSpectrum,
    SpaceForm,
    SpaceFormKind,
    frame_at,
    frame_rows,
    mean_gauss_at,  # unused here; bench/tracing.py wraps it on this module
    spectrum_at,
)
from .polynomial import (
    PRODUCT_FAMILY,
    SPACE_FORM_FAMILY,
    AmbientKind,
    BracketingError,
    ConstructionError,
    CurvaturePolynomial,
    FilteredRootError,
    PatternChangeError,
    Root,
    UnsupportedAmbientError,
    VanishingCurvatureError,
    _root_rows,
    arccot,
    arccoth,
    curvature_polynomial,
    height_ratio,
    hyperbolic_product_closed_roots,
    roots_at,
    solve_roots,
    sphere_product_closed_roots,
)

__all__ = [
    "AmbientKind",
    "LorentzAmbient",
    "CurvaturePolynomial",
    "Root",
    "LiftedImmersion",
    "LiftRows",
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


# --------------------------------------------------------------- ambients

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

    def constraint_residual(self, points: np.ndarray) -> np.ndarray:
        """|constraint - constant| of each container point (..., N)."""
        points = np.asarray(points, dtype=float)
        if self.quadric_constant is None:
            return np.zeros(points.shape[:-1])
        z = self.constraint_normals(points)[..., 0, :]
        return np.abs(bilinear_rows(self.signature, z, z) - self.quadric_constant)

    def constraint_normals(self, points: np.ndarray) -> np.ndarray:
        """Flat-form gradients of the active constraints of each container
        point (..., N), one per row: shape (..., k, N)."""
        points = np.asarray(points, dtype=float)
        if self.quadric_constant is None:
            return np.zeros(points.shape[:-1] + (0, self.container_dim))
        z = points[..., None, :].copy()
        if self.is_product:
            z[..., -1] = 0.0
        return z

    @staticmethod
    def for_kind(kind: AmbientKind, n: int) -> "LorentzAmbient":
        return LorentzAmbient(kind=kind, dim=n + 2)


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


class LiftRows(Rows):
    """A lift evaluated at stacked chart points: `values` (P, N) and one
    error slot per row, as in `Rows`, plus the construction's distinguished
    null normal and cross-check context of each row (None when the lift
    carries none)."""

    __slots__ = ("null_at", "context_at")

    def __init__(self, values, errors, null_at=None, context_at=None):
        super().__init__(values, errors)
        self.null_at = null_at
        self.context_at = context_at

    def null_normal(self, i: int) -> Optional[np.ndarray]:
        return None if self.null_at is None else self.null_at(i)

    def context(self, i: int) -> Optional[LiftContext]:
        return None if self.context_at is None else self.context_at(i)


@dataclass(frozen=True)
class LiftedImmersion:
    """Evaluatable spacelike map into a Lorentzian ambient.

    Array contract: `evaluate(x)` takes stacked chart points (P, n) to a
    `LiftRows`. The normal-shift lifts built here pass an array map as
    `eval_fn` (marked with `core.stacked`, returning LiftRows), whose rows,
    null normals and contexts all come from one array pick of frame,
    spectrum and height. Any other `eval_fn` is an array map returning
    plain values (P, N) or a `Rows`, or a one-point map that `evaluate`
    loops over the rows through `core.looped`; either way a row's null
    normal and context come from `null_normal_fn` and `context_fn` at its
    point.
    A row whose evaluation raises GeometryError holds NaN and that error,
    and the rows beside it are unaffected. Calling the lift at one point
    evaluates one row and raises that row's error.
    """

    ambient: LorentzAmbient
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    null_normal_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    context_fn: Optional[Callable[[np.ndarray], LiftContext]] = None
    provenance: Provenance = Provenance(family="unspecified")
    name: str = ""

    def evaluate(self, x) -> LiftRows:
        """Rows of the lift at stacked chart points (P, n)."""
        x = np.asarray(x, dtype=float)
        rows = looped(self.eval_fn)(x)
        if isinstance(rows, LiftRows):
            return rows
        if not isinstance(rows, Rows):
            rows = Rows(np.asarray(rows, dtype=float), [None] * len(x))
        return LiftRows(rows.values, rows.errors,
                        null_at=lambda i: self.null_normal(x[i]),
                        context_at=lambda i: self.context(x[i]))

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float)[None]).value(0)

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


def _reference(imm, kind):
    """Roots at the chart centre and the first eight grid points, in one
    call, with the multiplicity pattern and root count of the first of them
    the chart does not exclude and whose roots solve."""
    candidates = np.vstack([0.5 * (imm.chart.lower + imm.chart.upper),
                            imm.chart.grid(margin=4.0 * DEFAULTS.step_h)[:8]])
    solved = _root_rows(imm, kind, candidates)
    _, spectra, roots = solved
    err = None
    for i in imm.chart.usable(candidates):
        err = roots.errors[i]
        if err is None:
            return candidates, solved, spectra.pattern(i), int(roots.counts[i])
    raise ConstructionError(f"no usable reference point on the chart: {err}")


def _constraint_sanity(ambient: LorentzAmbient, rows: LiftRows):
    """The lift formulas satisfy the ambient constraint identically; a failure
    here means inconsistent construction data, not a bad sample. `rows` is
    the lift evaluated at the chart centre first."""
    if rows.errors[0] is not None:
        return
    val = rows.values[0]
    res = ambient.constraint_residual(val)
    if res > DEFAULTS.tol_quadric * (1.0 + float(np.max(np.abs(val)))):
        raise ConstructionError(
            f"lift violates the {ambient.kind.value} constraint by {res:.3e}")


# Rows a normal-shift lift picks and places at once: a whole-grid stencil is
# split into blocks of this many rows, which bounds the memory of the frames,
# spectra and root solves it holds.
_BLOCK = 1024


# The lift formulas, one row per ambient family: source points p, their unit
# normals nu and heights (t, or the polynomial parameter s in the products;
# one per row, as a column) give the spatial parts and the time coordinates
# of the lift, then the spatial parts of the distinguished null normal, whose
# time coordinate is 1.
_PLACEMENT = {
    "flat-family": (
        lambda p, nu, t: p + t * nu,
        lambda t: t,
        lambda p, nu, t: nu),
    "sphere-product": (
        lambda p, nu, s: (s * p + nu) / np.sqrt(1.0 + s * s),
        arccot,
        lambda p, nu, s: (s * nu - p) / np.sqrt(1.0 + s * s)),
    "hyperbolic-product": (
        lambda p, nu, s: (s * p + nu) / np.sqrt(s * s - 1.0),
        arccoth,
        lambda p, nu, s: (p + s * nu) / np.sqrt(s * s - 1.0)),
}


def _shift_lift(kind: AmbientKind, chart: Chart, pick, name: str,
                context: bool = True, centre=None, **provenance) -> LiftedImmersion:
    """Normal-shift lift placed by the row of its ambient family.

    pick(x) maps stacked chart points (P, n) to (frame, spectra, heights,
    errors): a frame of stacked points (`point` and `normal` (P, N), `row(i)`
    for the cross-check context), their spectra (None: computed from the
    frame when a context needs one), heights (P,) and one error slot per
    point. Each row is placed from its source point, unit normal and height.
    `centre` is a pick whose first row is the chart centre, when the caller
    has one; the build-time constraint check reads it. `provenance` holds
    the Provenance fields; the family defaults to the placement row.
    """
    family = "flat-family" if kind in SPACE_FORM_FAMILY else kind.value
    spatial, time, null = _PLACEMENT[family]
    ambient = LorentzAmbient.for_kind(kind, chart.dim)

    def place(picked) -> LiftRows:
        frame, spectra, height, errors = picked
        failed = np.array([e is not None for e in errors], dtype=bool)
        tau = np.full(len(height), np.nan)
        tau[~failed] = time(height[~failed])
        s = height[:, None]
        point, normal = frame.point, frame.normal
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.concatenate([spatial(point, normal, s), tau[:, None]], axis=1)
            nulls = np.concatenate([null(point, normal, s),
                                    np.ones((len(s), 1))], axis=1)
        values[failed] = np.nan
        nulls[failed] = np.nan

        def null_at(i):
            if errors[i] is not None:
                raise errors[i]
            return nulls[i]

        def context_at(i):
            if errors[i] is not None:
                raise errors[i]
            source = frame.row(i)
            spectrum = spectrum_at(source) if spectra is None else spectra.row(i)
            return LiftContext(frame=source, spectrum=spectrum, tau=float(tau[i]),
                               s=None if family == "flat-family" else float(height[i]))

        return LiftRows(values, errors, null_at, context_at if context else None)

    @stacked
    def eval_rows(x) -> LiftRows:
        if len(x) <= _BLOCK:
            return place(pick(x))
        parts = [place(pick(x[k:k + _BLOCK])) for k in range(0, len(x), _BLOCK)]
        return LiftRows(np.concatenate([part.values for part in parts]),
                        [e for part in parts for e in part.errors],
                        lambda i: parts[i // _BLOCK].null_normal(i % _BLOCK),
                        lambda i: parts[i // _BLOCK].context(i % _BLOCK))

    def null_fn(x):
        return eval_rows(np.asarray(x, dtype=float)[None]).null_normal(0)

    def context_fn(x):
        return eval_rows(np.asarray(x, dtype=float)[None]).context(0)

    if centre is None:
        centre = pick(0.5 * (chart.lower + chart.upper)[None])
    _constraint_sanity(ambient, place(centre))
    provenance.setdefault("family", family)
    return LiftedImmersion(ambient, chart, eval_rows, null_fn,
                           context_fn if context else None,
                           Provenance(**provenance), name=name)


def _root_lift(imm, kind, family, root_index, offset=0.0,
               reference=None) -> LiftedImmersion:
    _check_source(imm, kind, family)
    candidates, solved, pattern, count = reference or _reference(imm, kind)
    if not 0 <= root_index < count:
        raise FilteredRootError(
            f"root index {root_index} out of range: {count} root(s) available")

    def select(x, solved):
        frame, spectra, roots = solved
        errors = list(roots.errors)
        changed = np.zeros(len(x), dtype=bool)
        for c, mults in spectra.patterns.items():
            if (len(mults), mults) != pattern:
                changed |= spectra.code == c
        _fail(errors, changed, lambda i: PatternChangeError(
            f"multiplicity pattern changed to {spectra.pattern(i)} at chart {x[i]}"))
        _fail(errors, roots.counts != count, lambda i: PatternChangeError(
            f"root count changed from {count} to {roots.counts[i]} at chart {x[i]}"))
        root = roots.values[:, root_index]
        if offset == 0.0:
            _fail(errors, roots.degenerate[:, root_index],
                  lambda i: DegenerateMetricError(
                      f"root {float(root[i])} hits a breakpoint at chart {x[i]}"))
        return frame, spectra, root + offset, errors

    return _shift_lift(kind, imm.chart, lambda x: select(x, _root_rows(imm, kind, x)),
                       f"{imm.name}:{kind.value}[{root_index}]",
                       centre=select(candidates, solved),
                       source_name=imm.name, root_index=root_index,
                       root_count=count, pattern=pattern,
                       detail="height offset %g" % offset if offset else "")


def _all_lifts(imm, kind, family) -> list:
    """Every root lift of the hypersurface, from one reference solve."""
    _check_source(imm, kind, family)
    reference = _reference(imm, kind)
    return [_root_lift(imm, kind, family, i, reference=reference)
            for i in range(reference[3])]


def space_form_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
                    root_index: int = 0, offset: float = 0.0) -> LiftedImmersion:
    """Flat-family lift whose height t is the root field of the given index.

    `offset` shifts the height away from the root; it exists for negative
    controls and must be zero for a marginally trapped lift.
    """
    return _root_lift(imm, kind, SPACE_FORM_FAMILY, root_index, offset)


def lift_minkowski(imm, root_index: int = 0, offset: float = 0.0):
    return space_form_lift(imm, AmbientKind.MINKOWSKI, root_index, offset)


def lift_desitter(imm, root_index: int = 0, offset: float = 0.0):
    return space_form_lift(imm, AmbientKind.DE_SITTER, root_index, offset)


def lift_antidesitter(imm, root_index: int = 0, offset: float = 0.0):
    return space_form_lift(imm, AmbientKind.ANTI_DE_SITTER, root_index, offset)


def space_form_lifts(imm, kind) -> list:
    return _all_lifts(imm, kind, SPACE_FORM_FAMILY)


def product_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
                 root_index: int = 0) -> LiftedImmersion:
    """Product-ambient lift by a kept root of the product polynomial."""
    return _root_lift(imm, kind, PRODUCT_FAMILY, root_index)


def lift_sphere_product(imm, root_index: int = 0):
    return product_lift(imm, AmbientKind.SPHERE_PRODUCT, root_index)


def lift_hyperbolic_product(imm, root_index: int = 0):
    return product_lift(imm, AmbientKind.HYPERBOLIC_PRODUCT, root_index)


def product_lifts(imm, kind) -> list:
    return _all_lifts(imm, kind, PRODUCT_FAMILY)


def graph_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
               tau_fn: Callable[[PointFrame], Rows],
               name: str = "") -> LiftedImmersion:
    """Flat-family lift with an arbitrary height field tau_fn(frame).

    Used for the surface-curvature closed form (mean over Gauss) and for
    negative controls; marginality is whatever the height field makes it.
    `tau_fn` takes the frame of stacked chart points and returns a `Rows` of
    their heights, values (P,) and one error slot per point; a point whose
    frame failed keeps the frame's error.
    """
    _check_source(imm, kind, SPACE_FORM_FAMILY)

    def pick(x):
        frame = frame_rows(imm, x)
        height = tau_fn(frame)
        errors = [f if f is not None else e
                  for f, e in zip(frame.errors, height.errors)]
        return frame, None, height.values, errors

    return _shift_lift(kind, imm.chart, pick, name or f"{imm.name}:graph",
                       source_name=imm.name, detail="explicit height field")


def product_height_lift(imm: HypersurfaceImmersion, height: float,
                        kind: AmbientKind) -> LiftedImmersion:
    """Product embedding of a hypersurface at one constant height.

    A control object: it is marginally trapped only if the height matches a
    root of the product polynomial through the s = cot/coth correspondence.
    """
    _check_source(imm, kind, PRODUCT_FAMILY)
    ambient = LorentzAmbient.for_kind(kind, imm.chart.dim)

    def eval_fn(x):
        return np.append(imm(x), height)

    def null_fn(x):
        frame = frame_at(imm, x)
        return np.append(frame.normal, 1.0)

    def context_fn(x):
        frame = frame_at(imm, x)
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
    """Totally geodesic hypersurface of a space form with a constant unit
    normal; `eval_fn` takes stacked chart points (P, n)."""

    kind: AmbientKind
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    normal0: np.ndarray

    def __call__(self, x):
        return self.eval_fn(np.asarray(x, dtype=float)[None])[0]


class _SlicePoint(NamedTuple):
    point: np.ndarray
    normal: np.ndarray


def flat_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The coordinate hyperplane of Euclidean space, normal along the last axis."""
    n = chart.dim
    nu0 = np.zeros(n + 1)
    nu0[-1] = 1.0
    return TotallyGeodesicSlice(
        AmbientKind.MINKOWSKI, chart,
        lambda x: np.concatenate([x, np.zeros((len(x), 1))], axis=1), nu0)


def spherical_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The equatorial 2-sphere of S^3, normal along the suppressed axis."""
    if chart.dim != 2:
        raise DimensionMismatchError("spherical slice is implemented for surfaces")

    def fn(x):
        sx, cx = np.sin(x[:, 0]), np.cos(x[:, 0])
        sy, cy = np.sin(x[:, 1]), np.cos(x[:, 1])
        return np.stack([sx * cy, sy, cx * cy, np.zeros_like(sx)], axis=1)

    nu0 = np.array([0.0, 0.0, 0.0, 1.0])
    return TotallyGeodesicSlice(AmbientKind.DE_SITTER, chart, fn, nu0)


def hyperbolic_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The totally geodesic H^2 inside H^3, normal along the suppressed axis."""
    if chart.dim != 2:
        raise DimensionMismatchError("hyperbolic slice is implemented for surfaces")

    def fn(x):
        shu, chu = np.sinh(x[:, 0]), np.cosh(x[:, 0])
        return np.stack([shu * np.cos(x[:, 1]), shu * np.sin(x[:, 1]),
                         np.zeros_like(shu), chu], axis=1)

    nu0 = np.array([0.0, 0.0, 1.0, 0.0])
    return TotallyGeodesicSlice(AmbientKind.ANTI_DE_SITTER, chart, fn, nu0)


def null_lift(slice_: TotallyGeodesicSlice,
              tau_fn: Callable[[np.ndarray], float],
              name: str = "") -> LiftedImmersion:
    """Graph of a height field over a totally geodesic slice, moved along the
    constant null direction (normal, 1), in the ambient the slice targets.

    Its second fundamental form is the height Hessian times that null vector,
    so the lift is marginally trapped for every C^2 height field. Only the
    flat family carries such lifts (the product ambients admit none besides
    the totally geodesic one), so every slice targets a flat-family ambient.
    `tau_fn` takes one chart point and is looped over the rows.
    """
    kind = slice_.kind
    heights = looped(tau_fn)

    def pick(x):
        point = slice_.eval_fn(x)
        tau = heights(x)
        normal = np.broadcast_to(slice_.normal0, point.shape)
        return _SlicePoint(point, normal), None, tau.values[:, 0], tau.errors

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


def support_route_lift(sf: SupportFunction) -> LiftedImmersion:
    """Independent route: reconstruct the front, then lift by the surface
    curvature ratio computed from frames (mean over Gauss curvature)."""
    recon = sf.reconstruction()

    def mean_over_gauss(frame):
        kappas = shape_eigen_rows(frame.metric, frame.second_form, errors=frame.errors)
        k1, k2 = kappas.values[:, 0], kappas.values[:, 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            return Rows(0.5 * (k1 + k2) / (k1 * k2), kappas.errors)

    return graph_lift(recon, AmbientKind.MINKOWSKI, mean_over_gauss,
                      name=f"{sf.name or 'support'}-route")


# ------------------------------------------------------------ root threading

@dataclass(frozen=True)
class RootThreads:
    """Root fields sampled over a raster grid, one column per root index."""

    points: np.ndarray
    values: np.ndarray          # shape (P, count)
    pattern: tuple
    count: int


# A root field step larger than this many times the variation last seen on
# the same axis is a jump between root branches.
_JUMP_FACTOR = 10.0


def thread_root_fields(imm: HypersurfaceImmersion, kind: AmbientKind,
                       resolution: Optional[Sequence[int]] = None) -> RootThreads:
    """Solve the roots over the chart grid and thread them into fields.

    The grid is solved in one array call. Samples are then matched to their
    grid neighbor along each axis, in raster order; a jump larger than
    _JUMP_FACTOR times the variation last seen on the same axis, or any
    multiplicity-pattern change, aborts with PatternChangeError, and so does
    the first sample whose root solve failed. The first step on an axis
    calibrates the local variation instead of being checked.
    """
    _check_source(imm, kind)
    chart = imm.chart if resolution is None else imm.chart.with_resolution(resolution)
    grid = chart.grid(margin=4.0 * DEFAULTS.step_h)
    shape = chart.resolution
    usable = chart.usable(grid)
    if not usable:
        raise ConstructionError("no usable grid points for root threading")
    _, spectra, roots = _root_rows(imm, kind, grid[usable])
    pattern = None
    count = None
    values = None
    last_jump = {}
    for j, idx in enumerate(usable):
        x = grid[idx]
        if roots.errors[j] is not None:
            raise roots.errors[j]
        found, n_roots = spectra.pattern(j), int(roots.counts[j])
        if pattern is None:
            pattern = found
            count = n_roots
            values = np.full((len(grid), count), np.nan)
        if found != pattern or n_roots != count:
            raise PatternChangeError(
                f"pattern changed from {pattern}/{count} roots to "
                f"{found}/{n_roots} at chart {x}")
        values[idx] = roots.values[j, :count]

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
                if np.any(jump > _JUMP_FACTOR * scale):
                    raise PatternChangeError(
                        f"root field jump {float(jump.max()):.3e} at chart {x} "
                        f"exceeds {_JUMP_FACTOR} x the local variation")
            last_jump[axis] = np.maximum(jump, 1e-12)
            break
    return RootThreads(points=grid, values=values, pattern=pattern, count=count)
