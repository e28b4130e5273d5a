"""Marginally trapped lifts of hypersurfaces into five Lorentzian ambients.

The construction has two branches. Lifts with null second fundamental form
are graphs of an arbitrary C^2 height field over a totally geodesic slice,
moved along the constant null direction (normal, 1). All other lifts shift a
hypersurface along its own normal congruence by a root of a curvature
polynomial (`polynomial`, whose names this module re-exports).

Every normal-shift lift is placed in the ambient by one table, `_PLACEMENT`:
per ambient family it takes a source point, its unit normal and a height to
the lift and its distinguished null normal. Both branches go through it, and
so does the support-function route (`lift_palmer`), the flat-family shift of
the reconstructed front f u + grad f along u. It is the one place the lift
formulas live; only the constant-height product embedding
(`product_height_lift`), which is not a normal shift, writes its own.
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
    Rows,
    Signature,
    _call_rows,
    _errored,
    _fail,
    bilinear_rows,
    jet2_of,  # unused here; bench/tracing.py wraps it on this module
    shape_eigen_rows,
)
from .hypersurface import (
    HypersurfaceImmersion,
    PointFrame,
    SpaceForm,
    SpaceFormKind,
    frame_at,  # unused here; bench/tracing.py wraps it on this module
    frame_rows,
    mean_gauss_at,  # unused here; bench/tracing.py wraps it on this module
    spectrum_at,  # unused here; bench/tracing.py wraps it on this module
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
    roots_at,
    solve_roots,
)
from .shapes import equidistant_h3, sphere_chart

__all__ = [
    "AmbientKind",
    "LorentzAmbient",
    "CurvaturePolynomial",
    "Root",
    "LiftedImmersion",
    "LiftRows",
    "LiftContext",
    "lift_map",
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
        if self.kind in PRODUCT_FAMILY:
            z[..., -1] = 0.0
        return z

    @staticmethod
    def for_kind(kind: AmbientKind, n: int) -> "LorentzAmbient":
        return LorentzAmbient(kind=kind, dim=n + 2)


# ------------------------------------------------------------------- lifts

@dataclass(frozen=True)
class LiftContext:
    """Cross-check data the verifier may consult: the lemma identities are
    expressed through the source frame, its raw curvatures and the height
    (tau, and s = cot/coth tau in the products). A context of stacked points
    holds stacked frame rows, `raw` (P, n), `tau` and `s` (P,), and `errors`,
    one entry per point: None, or the GeometryError its context raised."""

    frame: PointFrame
    raw: np.ndarray
    tau: float
    s: Optional[float] = None
    errors: tuple = ()

    def row(self, i: int) -> "LiftContext":
        """The context of stacked point i; raises that point's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return LiftContext(self.frame.row(i), self.raw[i], float(self.tau[i]),
                           None if self.s is None else float(self.s[i]))


class LiftRows(Rows):
    """A lift evaluated at stacked chart points, its one record: `values`
    (P, N) and one error slot per row, as in `Rows`, plus the construction
    data of the first k rows: `nulls`, the distinguished null normals
    (k, N), NaN on failed rows, and `contexts`, one LiftContext of those
    rows. Either is None when the lift carries none or k is 0."""

    __slots__ = ("nulls", "contexts")

    def __init__(self, values, errors, nulls=None, contexts=None):
        super().__init__(values, errors)
        self.nulls, self.contexts = nulls, contexts

    def null_normal(self, i: int) -> Optional[np.ndarray]:
        """Null normal of point i, or None; raises that point's error."""
        self.value(i)
        return None if self.nulls is None else self.nulls[i]

    def context(self, i: int) -> Optional[LiftContext]:
        """Context of point i, or None; raises that point's error."""
        self.value(i)
        return None if self.contexts is None else self.contexts.row(i)


def _context_rows(frame: PointFrame, tau, s=None) -> LiftContext:
    """Context of a frame of stacked points, with raw curvatures from one
    stacked eigen solve."""
    spectra = shape_eigen_rows(frame.metric, frame.second_form, errors=frame.errors)
    return LiftContext(frame, spectra.values, tau, s, tuple(spectra.errors))


def lift_map(fn):
    """Mark `fn` as a lift map: fn(x, k) takes stacked chart points (P, n)
    to a LiftRows with construction data for the first k rows."""
    fn.lift_map = True
    return fn


@dataclass(frozen=True)
class LiftedImmersion:
    """Evaluatable spacelike map into a Lorentzian ambient.

    `evaluate(x)` takes stacked chart points (P, n) to a `LiftRows`. The
    builders here and the catalog's lifts with a null normal pass a
    `lift_map`, which gives values and construction data in one pass; an
    array map (values (P, N), or a `Rows` record when points can fail)
    gives values alone. `construction` is the number of leading rows that
    get construction data (default: every row); the others get values
    alone, all a stencil row needs. A row that fails holds NaN and its
    error, and the rows beside it are unaffected. Calling the lift,
    `null_normal` or `context` at one point evaluates one row and raises
    that row's error.
    """

    ambient: LorentzAmbient
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def evaluate(self, x, construction: Optional[int] = None) -> LiftRows:
        """Rows of the lift at stacked chart points (P, n)."""
        x = np.asarray(x, dtype=float)
        if getattr(self.eval_fn, "lift_map", False):
            return self.eval_fn(x, len(x) if construction is None else construction)
        values, errors = _call_rows(self.eval_fn, x)
        return LiftRows(values, errors or [None] * len(x))

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float)[None], 0).value(0)

    def null_normal(self, x) -> Optional[np.ndarray]:
        return self.evaluate(np.asarray(x, dtype=float)[None]).null_normal(0)

    def context(self, x) -> Optional[LiftContext]:
        return self.evaluate(np.asarray(x, dtype=float)[None]).context(0)


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


def _reference(imm, kind, threads=None):
    """Points with their frames, spectra and roots, and the multiplicity
    pattern and root count every lifted point must keep: the threaded solve
    `threads` of the same hypersurface and ambient as it is (it checked
    both on every sample), or else the roots at the chart centre and the
    first eight grid points, solved in one call, with the pattern and count
    of the first of them whose roots solve."""
    if threads is not None:
        return threads.points, threads.solved, threads.pattern, threads.count
    chart = imm.chart
    # the grid's first eight raster points, taken from its axes
    axes = chart.axes(margin=4.0 * DEFAULTS.step_h)
    first = np.unravel_index(np.arange(min(8, math.prod(chart.resolution))),
                             chart.resolution)
    candidates = np.vstack([0.5 * (chart.lower + chart.upper),
                            np.stack([ax[i] for ax, i in zip(axes, first)], axis=-1)])
    solved = _root_rows(imm, kind, candidates)
    _, spectra, roots = solved
    for i, err in enumerate(roots.errors):
        if err is None:
            return candidates, solved, spectra.pattern(i), int(roots.counts[i])
    raise ConstructionError(f"no usable reference point on the chart: {err}")


def _changes(spectra, roots, pattern, count):
    """Masks of the rows whose multiplicity pattern, and whose root count,
    differ from `pattern` and `count`. A failed row has no pattern, so only
    its count (0) can differ."""
    other = [c for c, mults in spectra.patterns.items() if (len(mults), mults) != pattern]
    changed = (np.isin(spectra.code, other) if other
               else np.zeros(len(spectra.code), dtype=bool))
    return changed, roots.counts != count


def _head(fr: PointFrame, k: int) -> PointFrame:
    """The first k rows of a frame of stacked points."""
    return PointFrame(fr.space, fr.x[:k], fr.point[:k], fr.tangent[:k], fr.normal[:k],
                      fr.metric[:k], fr.second_form[:k], fr.errors[:k])


def _constraint_sanity(ambient: LorentzAmbient, rows: LiftRows):
    """The lift formulas satisfy the ambient constraint identically; a failure
    here means inconsistent construction data, not a bad sample. Only the
    first row of `rows` is read: the lift at the first point of its
    reference (`_reference`), the chart centre or the threaded grid's first
    sample."""
    if rows.errors[0] is not None:
        return
    val = rows.values[0]
    res = ambient.constraint_residual(val)
    if res > DEFAULTS.tol_quadric * (1.0 + float(np.max(np.abs(val)))):
        raise ConstructionError(
            f"lift violates the {ambient.kind.value} constraint by {res:.3e}")


# Rows a normal-shift lift picks and places at once: the rows with
# construction data, or this many if more, then blocks of this many for
# values alone, which bounds the memory of the frames, spectra and root
# solves a pass holds. The stencil of a 24x24 grid (5,184 rows) is one pass.
_BLOCK = 8192


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


class _Source(NamedTuple):
    """What a normal-shift lift places, at stacked chart points: source
    points and their unit normals (P, N), heights (P,) and one error slot per
    row (None: no row failed). `frame`, the source frame of (at least) the
    rows with construction data, gives their contexts, with its raw curvatures
    `raw` (None: solved from the frame); without it no row carries one."""

    point: np.ndarray
    normal: np.ndarray
    height: np.ndarray
    errors: Optional[list] = None
    frame: Optional[PointFrame] = None
    raw: Optional[np.ndarray] = None


def _shift_lift(kind: AmbientKind, chart: Chart, pick, name: str,
                centre=None) -> LiftedImmersion:
    """Normal-shift lift placed by the row of its ambient family.

    pick(x, k) maps stacked chart points (P, n) to their `_Source`, whose
    frame need only cover the first k rows, those with construction data (no
    frame when k is 0). Each row is placed from its source point, unit normal
    and height.
    `centre` is a `_Source` whose first row is a chart point of the caller's
    reference, when it has one (else the chart centre is picked); the
    build-time constraint check reads that row. Flat space has no
    constraint, so there the check and its centre pick are skipped.
    """
    family = "flat-family" if kind in SPACE_FORM_FAMILY else kind.value
    spatial, time, null = _PLACEMENT[family]
    ambient = LorentzAmbient.for_kind(kind, chart.dim)

    def place(src: _Source, k: int) -> LiftRows:
        height = src.height
        errors = src.errors or [None] * len(height)
        failed = _errored(errors)
        tau = np.full(len(height), np.nan)
        tau[~failed] = time(height[~failed])
        s = height[:, None]
        point, normal = src.point, src.normal
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.concatenate([spatial(point, normal, s), tau[:, None]], axis=1)
            values[failed] = np.nan
            if not k:
                return LiftRows(values, errors)
            nulls = np.concatenate([null(point[:k], normal[:k], s[:k]),
                                    np.ones((k, 1))], axis=1)
        nulls[failed[:k]] = np.nan
        if src.frame is None:
            return LiftRows(values, errors, nulls)
        frame, tau = _head(src.frame, k), tau[:k]
        s_rows = None if family == "flat-family" else height[:k]
        context = (_context_rows(frame, tau, s_rows) if src.raw is None
                   else LiftContext(frame, src.raw[:k], tau, s_rows, tuple(errors[:k])))
        return LiftRows(values, errors, nulls, context)

    @lift_map
    def eval_rows(x, k: int) -> LiftRows:
        head = max(k, _BLOCK)
        if len(x) <= head:
            return place(pick(x, k), k)
        parts = [place(pick(x[:head], k), k)] + [
            place(pick(x[i:i + _BLOCK], 0), 0) for i in range(head, len(x), _BLOCK)]
        return LiftRows(np.concatenate([part.values for part in parts]),
                        [e for part in parts for e in part.errors],
                        parts[0].nulls, parts[0].contexts)

    if ambient.quadric_constant is not None:
        if centre is None:
            centre = pick(0.5 * (chart.lower + chart.upper)[None], 0)
        _constraint_sanity(ambient, place(centre, 0))
    return LiftedImmersion(ambient, chart, eval_rows, name=name)


def _root_lift(imm, kind, family, root_index, offset=0.0,
               reference=None) -> LiftedImmersion:
    _check_source(imm, kind, family)
    candidates, solved, pattern, count = reference or _reference(imm, kind)
    if not 0 <= root_index < count:
        raise FilteredRootError(
            f"root index {root_index} out of range: {count} root(s) available")

    def select(x, solved) -> _Source:
        frame, spectra, roots = solved
        errors = list(roots.errors)
        changed, recounted = _changes(spectra, roots, pattern, count)
        _fail(errors, changed, lambda i: PatternChangeError(
            f"multiplicity pattern changed to {spectra.pattern(i)} at chart {x[i]}"))
        _fail(errors, recounted, lambda i: PatternChangeError(
            f"root count changed from {count} to {roots.counts[i]} at chart {x[i]}"))
        root = roots.values[:, root_index]
        if offset == 0.0:
            _fail(errors, roots.degenerate[:, root_index],
                  lambda i: DegenerateMetricError(
                      f"root {float(root[i])} hits a breakpoint at chart {x[i]}"))
        return _Source(frame.point, frame.normal, root + offset, errors, frame,
                       spectra.raw)

    return _shift_lift(kind, imm.chart,
                       lambda x, k: select(x, _root_rows(imm, kind, x)),
                       f"{imm.name}:{kind.value}[{root_index}]",
                       centre=select(candidates, solved))


def _all_lifts(imm, kind, family, threads=None) -> list:
    """Every root lift of the hypersurface, from one reference solve: the
    threaded solve `threads`, when given."""
    _check_source(imm, kind, family)
    reference = _reference(imm, kind, threads)
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


def space_form_lifts(imm, kind, threads=None) -> list:
    return _all_lifts(imm, kind, SPACE_FORM_FAMILY, threads)


def product_lift(imm: HypersurfaceImmersion, kind: AmbientKind,
                 root_index: int = 0) -> LiftedImmersion:
    """Product-ambient lift by a kept root of the product polynomial."""
    return _root_lift(imm, kind, PRODUCT_FAMILY, root_index)


def lift_sphere_product(imm, root_index: int = 0):
    return product_lift(imm, AmbientKind.SPHERE_PRODUCT, root_index)


def lift_hyperbolic_product(imm, root_index: int = 0):
    return product_lift(imm, AmbientKind.HYPERBOLIC_PRODUCT, root_index)


def product_lifts(imm, kind, threads=None) -> list:
    return _all_lifts(imm, kind, PRODUCT_FAMILY, threads)


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

    def pick(x, k) -> _Source:
        frame = frame_rows(imm, x)
        height = tau_fn(frame)
        errors = [f if f is not None else e for f, e in zip(frame.errors, height.errors)]
        return _Source(frame.point, frame.normal, height.values, errors, frame)

    return _shift_lift(kind, imm.chart, pick, name or f"{imm.name}:graph")


def product_height_lift(imm: HypersurfaceImmersion, height: float,
                        kind: AmbientKind) -> LiftedImmersion:
    """Product embedding of a hypersurface at one constant height.

    A control object: it is marginally trapped only if the height matches a
    root of the product polynomial through the s = cot/coth correspondence.
    Its null normal (normal, 1) and context come from the source frame, so a
    row whose frame fails fails when it gets construction data.
    """
    _check_source(imm, kind, PRODUCT_FAMILY)
    ambient = LorentzAmbient.for_kind(kind, imm.chart.dim)
    s = (1.0 / math.tan(height) if kind is AmbientKind.SPHERE_PRODUCT
         else 1.0 / math.tanh(height))

    @lift_map
    def eval_rows(x, k: int) -> LiftRows:
        points, errors = _call_rows(imm.eval_fn, x)
        errors = errors or [None] * len(x)
        values = np.concatenate([points, np.full((len(x), 1), height)], axis=1)
        if not k:
            return LiftRows(values, errors)
        frame = frame_rows(imm, x[:k])
        errors = [e if e is not None else f
                  for e, f in zip(errors, frame.errors)] + errors[k:]
        failed = _errored(errors)
        nulls = np.concatenate([frame.normal, np.ones((k, 1))], axis=1)
        values[failed] = np.nan
        nulls[failed[:k]] = np.nan
        context = _context_rows(frame, np.full(k, height), np.full(k, s))
        return LiftRows(values, errors, nulls, context)

    return LiftedImmersion(ambient, imm.chart, eval_rows,
                           name=f"{imm.name}:height{height:g}")


# --------------------------------------------------------------- null lifts

@dataclass(frozen=True)
class TotallyGeodesicSlice:
    """Totally geodesic hypersurface of a space form with a constant unit
    normal; `eval_fn` takes stacked chart points (P, n)."""

    kind: AmbientKind
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    normal0: np.ndarray


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

    nu0 = np.array([0.0, 0.0, 0.0, 1.0])
    return TotallyGeodesicSlice(AmbientKind.DE_SITTER, chart, lambda x: np.concatenate(
        [sphere_chart(x), np.zeros((len(x), 1))], axis=1), nu0)


def hyperbolic_slice(chart: Chart) -> TotallyGeodesicSlice:
    """The totally geodesic H^2 inside H^3, normal along the suppressed axis."""
    if chart.dim != 2:
        raise DimensionMismatchError("hyperbolic slice is implemented for surfaces")

    # the equidistant surface at distance 0 is the plane itself
    nu0 = np.array([0.0, 0.0, 1.0, 0.0])
    return TotallyGeodesicSlice(AmbientKind.ANTI_DE_SITTER, chart,
                                equidistant_h3(0.0, chart).eval_fn, nu0)


def null_lift(slice_: TotallyGeodesicSlice,
              tau_fn: Callable[[np.ndarray], np.ndarray],
              name: str = "") -> LiftedImmersion:
    """Graph of a height field over a totally geodesic slice, moved along the
    constant null direction (normal, 1), in the ambient the slice targets.

    Its second fundamental form is the height Hessian times that null vector,
    so the lift is marginally trapped for every C^2 height field. Only the
    flat family carries such lifts (the product ambients admit none besides
    the totally geodesic one), so every slice targets a flat-family ambient.
    `tau_fn` is an array map of stacked chart points (P, n) to heights (P,),
    or to a `Rows` record when points can fail.
    """
    kind = slice_.kind

    def pick(x, k) -> _Source:
        point = slice_.eval_fn(x)
        tau, errors = _call_rows(tau_fn, x)
        return _Source(point, np.broadcast_to(slice_.normal0, point.shape), tau[:, 0],
                       errors)

    return _shift_lift(kind, slice_.chart, pick, name or f"null-lift:{kind.value}")


# --------------------------------------------------------- support functions

@dataclass(frozen=True)
class SupportFunction:
    """Scalar field f on a chart of S^2 with its round-metric gradient and
    Laplacian.

    `data` is an array map: it takes stacked unit vectors u (P, 3) to the
    values f (P,), the tangent gradients (P, 3) and the Laplacians (P,), in
    one call. `at` gives u and all three at stacked chart points (P, n);
    `gradient` and `laplacian` are two of them.
    """

    chart: Chart
    data: Callable[[np.ndarray], tuple]
    name: str = ""

    def at(self, x) -> tuple:
        """u, f, grad f and Laplacian f at stacked chart points (P, n)."""
        u = sphere_chart(x)
        return (u, *self.data(u))

    def gradient(self, x) -> np.ndarray:
        return self.at(x)[2]

    def laplacian(self, x) -> np.ndarray:
        return self.at(x)[3]

    def reconstruction(self) -> HypersurfaceImmersion:
        """The convex-front surface with this support data: f u + grad f."""

        def fn(x):
            u, f, grad, _ = self.at(x)
            return f[:, None] * u + grad

        return HypersurfaceImmersion(SpaceForm.euclidean(3), self.chart, fn,
                                     name=f"{self.name or 'support'}-front")


def lift_palmer(sf: SupportFunction, name: str = "") -> LiftedImmersion:
    """Marginally trapped lift from support data alone.

    The flat-family normal shift of the reconstructed front f u + grad f
    along its unit normal u by the height -(f + Laplacian(f)/2), the
    surface-curvature ratio of the front: the spatial part is the focal
    position grad f - (Laplacian(f)/2) u. The distinguished null normal is
    (u, 1); the context is the frame of the front, solved only for the rows
    with construction data.
    """
    recon = sf.reconstruction()

    def pick(x, k) -> _Source:
        u, f, grad, lap = sf.at(x)
        return _Source(f[:, None] * u + grad, u, -(f + 0.5 * lap),
                       frame=frame_rows(recon, x[:k]) if k else None)

    return _shift_lift(AmbientKind.MINKOWSKI, sf.chart, pick, name or f"palmer:{sf.name}")


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
    """Root fields sampled over a raster grid, one column per root index,
    and the grid's frames, spectra and roots (`solved`, as `_root_rows`
    gives them), which serve the lift builders as their reference."""

    points: np.ndarray
    values: np.ndarray          # shape (P, count)
    pattern: tuple
    count: int
    solved: tuple


# A root field step larger than this many times the larger of the two steps
# beside it on its grid line is a jump between root branches (one step alone
# may straddle a symmetry line of the field, where it is round-off).
_JUMP_FACTOR = 10.0
# Floor of those steps, times 1 + |root|: roots solved from finite-difference
# frames (no analytic jets) carried 4e-8 to 2e-7 of noise along the constant
# direction of five plain-map tori at 9x9.
_JUMP_FLOOR = 1e-6


def thread_root_fields(imm: HypersurfaceImmersion, kind: AmbientKind,
                       resolution: Optional[Sequence[int]] = None) -> RootThreads:
    """Solve the roots over the chart grid and thread them into fields.

    The grid is solved in one array call and checked in one array pass.
    Each sample is compared with its grid neighbour on the last axis on
    which its index is not zero; its step is a jump when it exceeds
    _JUMP_FACTOR times the larger of the two steps before it on the same
    grid line (after it, for the line's first step), or of _JUMP_FLOOR
    (1 + |root|). The first sample in raster order whose root solve
    failed (its error), whose multiplicity pattern or root count changed, or
    that jumped (PatternChangeError), in that precedence, aborts.
    """
    _check_source(imm, kind)
    chart = imm.chart if resolution is None else imm.chart.with_resolution(resolution)
    grid = chart.grid(margin=4.0 * DEFAULTS.step_h)
    shape = chart.resolution
    solved = _root_rows(imm, kind, grid)
    _, spectra, roots = solved
    failed = np.not_equal(roots.errors, None)
    if failed[0]:
        raise roots.errors[0]
    pattern, count = spectra.pattern(0), int(roots.counts[0])
    changed, recounted = _changes(spectra, roots, pattern, count)
    values = roots.values[:, :count].copy()
    index = np.arange(len(grid)).reshape(shape)
    jump = np.zeros(len(grid))
    jumped = np.zeros(len(grid), dtype=bool)
    for axis in range(len(shape)):
        # the lines along this axis at index 0 on every later axis, one row
        # per line, in raster order
        tail = (0,) * (len(shape) - 1 - axis)
        cur = index[(..., slice(1, None)) + tail].reshape(-1, shape[axis] - 1)
        prev = index[(..., slice(None, -1)) + tail].reshape(-1, shape[axis] - 1)
        step = np.abs(values[cur] - values[prev])
        jump[cur] = np.max(step, axis=-1, initial=0.0)
        seen = np.maximum(step, 1e-12)
        # a line's first step has no steps before it: it takes the two after
        base = np.concatenate([seen[:, 1:3].max(axis=1, keepdims=True), seen[:, :-1]], axis=1)
        base[:, 2:] = np.maximum(base[:, 2:], seen[:, :-2])
        scale = np.maximum(base, _JUMP_FLOOR * (1.0 + np.abs(values[prev])))
        jumped[cur] = np.any(step > _JUMP_FACTOR * scale, axis=-1)
    bad = failed | changed | recounted | jumped
    if bad.any():
        i = int(np.argmax(bad))
        if failed[i]:
            raise roots.errors[i]
        if changed[i] or recounted[i]:
            raise PatternChangeError(
                f"pattern changed from {pattern}/{count} roots to "
                f"{spectra.pattern(i)}/{int(roots.counts[i])} at chart {grid[i]}")
        raise PatternChangeError(
            f"root field jump {jump[i]:.3e} at chart {grid[i]} "
            f"exceeds {_JUMP_FACTOR} x the local variation")
    return RootThreads(points=grid, values=values, pattern=pattern, count=count,
                       solved=solved)
