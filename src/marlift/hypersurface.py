"""Differential geometry of immersed hypersurfaces of Riemannian space forms.

A hypersurface is an evaluatable map from a chart into Euclidean space, the
round sphere (unit hyperquadric of the flat Euclidean container) or hyperbolic
space (unit timelike hyperquadric of a Lorentzian container). This module
produces the data the lift constructors consume: the unit normal with a
deterministic orientation, the induced metric, the second fundamental form,
and the clustered principal curvature spectrum.

Sign conventions. The shape operator is A = -d(normal), so the second
fundamental form in chart indices is b_ij = <d2 phi_ij, normal> taken with the
flat container form; for the hyperquadrics this equals the intrinsic second
form because the normal is orthogonal to the position vector.
"""

from __future__ import annotations

import enum
import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    DEFAULTS,
    Chart,
    DimensionMismatchError,
    GeometryError,
    Jet2,
    Signature,
    _call_rows,
    _columns,
    _errored,
    _fail,
    _pd_rows,
    bilinear_rows,
    generalized_cross,
    generalized_shape_eigen,
    jet2_of,
    shape_eigen_rows,
)

__all__ = [
    "SpaceFormKind",
    "SpaceForm",
    "HypersurfaceImmersion",
    "PointFrame",
    "ShapeSpectrum",
    "SpectrumRows",
    "frame_rows",
    "frame_at",
    "spectrum_rows",
    "spectrum_at",
    "mean_gauss_at",
    "ImmersionError",
    "QuadricConstraintError",
]


class ImmersionError(GeometryError):
    pass


class QuadricConstraintError(GeometryError):
    pass


class SpaceFormKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


class SpaceForm(NamedTuple):
    """Riemannian space form in its flat container.

    dim is the space form dimension n+1; the container is R^{n+1} for the
    Euclidean case and R^{n+2} (flat or Lorentzian) for the hyperquadrics.
    """

    kind: SpaceFormKind
    dim: int

    @property
    def container_dim(self) -> int:
        return self.dim if self.kind is SpaceFormKind.EUCLIDEAN else self.dim + 1

    @property
    def signature(self) -> Signature:
        if self.kind is SpaceFormKind.HYPERBOLIC:
            return Signature.of(self.dim, 1)
        return Signature.of(self.container_dim, 0)

    @property
    def quadric_constant(self) -> Optional[float]:
        if self.kind is SpaceFormKind.SPHERE:
            return 1.0
        if self.kind is SpaceFormKind.HYPERBOLIC:
            return -1.0
        return None

    @staticmethod
    def euclidean(dim: int) -> "SpaceForm":
        return SpaceForm(SpaceFormKind.EUCLIDEAN, dim)

    @staticmethod
    def sphere(dim: int) -> "SpaceForm":
        return SpaceForm(SpaceFormKind.SPHERE, dim)

    @staticmethod
    def hyperbolic(dim: int) -> "SpaceForm":
        return SpaceForm(SpaceFormKind.HYPERBOLIC, dim)


class HypersurfaceImmersion(NamedTuple):
    """Evaluatable immersion of a chart into a space form.

    `eval_fn` is an array map: it takes stacked chart points (P, n) to
    container points (P, N), or to a `Rows` record when points can fail.
    `jets`, when given, takes stacked points and returns the stacked exact
    Jet2 of `eval_fn`: the `shapes` factories evaluate their own array map
    on Taylor variables (`taylor.taylor_jet`). Without it, derivatives fall
    back to central differences with the shared step, all stencils in one
    call. A point that fails fails alone: its jet row carries its error and
    the other rows are unaffected. Calling the immersion at one point (n,)
    evaluates one row and raises that row's error.
    """

    space: SpaceForm
    chart: Chart
    eval_fn: Callable[[np.ndarray], np.ndarray]
    jets: Optional[Callable[[np.ndarray], Jet2]] = None
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        values, errors = _call_rows(self.eval_fn, np.asarray(x, dtype=float)[None])
        if errors and errors[0] is not None:
            raise errors[0]
        return values[0]

    def jet(self, x, h: Optional[float] = None) -> Jet2:
        """Stacked jet of points (P, n); `h` is the finite-difference step of
        a map without `jets`."""
        if self.jets is not None:
            return self.jets(x)
        return jet2_of(self.eval_fn, x, h=h, chart=self.chart)


class PointFrame(NamedTuple):
    """First and second order data of a hypersurface at one chart point.

    A frame of stacked points carries a leading point axis on every array
    and `errors`, one entry per point: None, or the GeometryError that point
    raised.
    """

    space: SpaceForm
    x: np.ndarray
    point: np.ndarray
    tangent: np.ndarray      # shape (n, container_dim)
    normal: np.ndarray       # unit, orthogonal to tangent (and position on quadrics)
    metric: np.ndarray       # g_ij, positive definite
    second_form: np.ndarray  # b_ij with respect to `normal`
    errors: tuple = ()

    @property
    def n(self) -> int:
        return self.tangent.shape[-2]

    def row(self, i: int) -> "PointFrame":
        """The frame of stacked point i; raises that point's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return PointFrame(space=self.space, x=self.x[i], point=self.point[i],
                          tangent=self.tangent[i], normal=self.normal[i],
                          metric=self.metric[i], second_form=self.second_form[i])


class ShapeSpectrum(NamedTuple("_ShapeSpectrum",
                                [("kappas", tuple), ("mults", tuple), ("raw", tuple)])):
    """Clustered principal curvatures: distinct values with multiplicities."""

    __slots__ = ()

    def __new__(cls, kappas: tuple, mults: tuple, raw: tuple):
        if len(kappas) != len(mults):
            raise DimensionMismatchError("kappas and mults must align")
        if sum(mults) != len(raw):
            raise DimensionMismatchError("multiplicities must sum to the raw count")
        if any(m <= 0 for m in mults):
            raise DimensionMismatchError("multiplicities must be positive")
        return super().__new__(cls, kappas, mults, raw)

    @property
    def p(self) -> int:
        return len(self.kappas)

    @property
    def n(self) -> int:
        return len(self.raw)

    @property
    def pattern(self) -> tuple:
        return (self.p, self.mults)


def frame_rows(imm: HypersurfaceImmersion, x) -> PointFrame:
    """Frame of stacked chart points (P, n): tangent frames, oriented unit
    normals, induced metrics and second forms.

    The normal is fixed by requiring (d phi_1, ..., d phi_n, normal) to be a
    positively oriented container basis, with the position vector appended for
    the hyperquadrics. Each point runs the checks of `frame_at` in its order;
    the first that fails is that point's error.
    """
    x = np.asarray(x, dtype=float)
    space = imm.space
    jet = imm.jet(x)
    errors = list(jet.errors) if jet.errors else [None] * len(x)
    point = jet.value
    tangent = jet.d1
    sig = space.signature
    gsigns = sig.signs
    tol_pd = DEFAULTS.tol_pd

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if space.quadric_constant is not None:
            res = np.abs(bilinear_rows(sig, point, point) - space.quadric_constant)
            scale = 1.0 + _columns(np.maximum, np.abs(point))
            _fail(errors, res > DEFAULTS.tol_quadric * scale,
                  lambda i: QuadricConstraintError(
                      f"point leaves the space form by {res[i]:.3e} at chart {x[i]}"))

        rows = tangent * gsigns  # row i = G @ tangent_i
        # g_ij = rows_i . tangent_j, one np.dot per entry as the stacked
        # matmul rounds it, without its per-matrix dispatch
        g = np.vecdot(rows[:, :, None, :], tangent[:, None, :, :])
        count, n, dim = tangent.shape
        if n == 2:
            pd_ok = ((g[:, 0, 0] > tol_pd)
                     & (g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
                        > tol_pd * np.maximum(g[:, 0, 0], g[:, 1, 1])))
        else:
            live = ~_errored(errors)
            pd_ok = np.zeros(len(x), dtype=bool)
            pd_ok[live] = _pd_rows(g[live])
        _fail(errors, ~pd_ok, lambda i: ImmersionError(
            f"rank-deficient differential at chart {x[i]} (metric not positive "
            f"definite beyond {tol_pd:g})"))

        if space.quadric_constant is not None:
            rows = np.concatenate([rows, (point * gsigns)[:, None, :]], axis=1)
        normal = generalized_cross(rows)
        nn = bilinear_rows(sig, normal, normal)
        _fail(errors, nn <= 0.0, lambda i: ImmersionError(
            f"could not extract a spacelike unit normal at chart {x[i]}"))
        # The cross c of these rows v has det[v; w] = c . w (cofactors), so
        # det[d phi; c] = det G <c, c>_G and det[d phi; c; phi] =
        # -det G <c, c>_G: the oriented normal is c times +1 in E and H and
        # -1 in S, at every n.
        orient = (-1.0) ** (sig.minus + (space.quadric_constant is not None))
        normal = orient * normal / np.sqrt(nn)[:, None]

        gnormal = gsigns * normal
        # one (n n, N) @ (N, 1) product per point rounds each entry as the
        # matrix-vector product of each d2 row does (np.vecdot does not);
        # the sizes are explicit, as -1 fails on an empty batch
        flat = (count, n * n)
        b = (jet.d2.reshape(flat + (dim,)) @ gnormal[:, :, None]).reshape(count, n, n)
        bt = np.swapaxes(b, -1, -2)
        defect = _columns(np.maximum, np.abs(b - bt).reshape(flat))
        asym = defect > DEFAULTS.tol_sym * (
            1.0 + _columns(np.maximum, np.abs(b).reshape(flat)))
    for i in np.flatnonzero(asym):
        if errors[i] is None:
            warnings.warn(f"second-derivative asymmetry {defect[i]:.3e} at chart "
                          f"{x[i]}; check the jet provider", RuntimeWarning)
    b = 0.5 * (b + bt)
    return PointFrame(space=space, x=x, point=point, tangent=tangent, normal=normal,
                      metric=g, second_form=b, errors=tuple(errors))


def frame_at(imm: HypersurfaceImmersion, x) -> PointFrame:
    """Tangent frame, oriented unit normal, induced metric and second form at
    one chart point: one row of `frame_rows`."""
    return frame_rows(imm, np.asarray(x, dtype=float)[None]).row(0)


class SpectrumRows:
    """Clustered spectra at stacked points.

    `raw` holds the ascending raw curvatures (P, n); `kappas` the cluster
    means, first p columns of each row, NaN after. `code[i]` names the
    row's cluster layout, a key of `patterns` (its multiplicities), or is
    -1 where the row failed with errors[i].
    """

    __slots__ = ("raw", "kappas", "code", "patterns", "errors")

    def __init__(self, raw, kappas, code, patterns, errors):
        self.raw, self.kappas, self.code = raw, kappas, code
        self.patterns, self.errors = patterns, errors

    def pattern(self, i: int) -> tuple:
        mults = self.patterns[int(self.code[i])]
        return (len(mults), mults)

    def row(self, i: int) -> ShapeSpectrum:
        """The ShapeSpectrum of point i; raises that point's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        mults = self.patterns[int(self.code[i])]
        return ShapeSpectrum(kappas=tuple(float(k) for k in self.kappas[i, :len(mults)]),
                             mults=mults, raw=tuple(float(r) for r in self.raw[i]))


def spectrum_rows(metric: np.ndarray, second_form: np.ndarray,
                  errors: Optional[list] = None) -> SpectrumRows:
    """Principal curvatures of stacked metric / second-form pairs, merged by
    single linkage.

    Raw eigenvalues closer than `DEFAULTS.tol_cluster` are one principal
    curvature with summed multiplicity; the stored value is the cluster mean.
    Rows already failed in `errors` stay failed.
    """
    eig = shape_eigen_rows(metric, second_form, errors=errors)
    raw, errors = eig.values, eig.errors
    count, n = raw.shape
    gaps = raw[:, 1:] - raw[:, :-1] > DEFAULTS.tol_cluster
    code = gaps.astype(np.int64) @ (1 << np.arange(n - 1, dtype=np.int64))
    code[_errored(errors)] = -1
    kappas = np.full((count, n), np.nan)
    patterns = {}
    # one layout on every row, as is usual, takes its rows as a slice
    whole = bool(count) and bool((code == code[0]).all())
    layouts = code[:1] if whole else code
    for c in sorted(set(layouts.tolist()) - {-1}):
        ends = [i + 1 for i in range(n - 1) if (c >> i) & 1] + [n]
        rows = slice(None) if whole else code == c
        start = 0
        mults = []
        for k, end in enumerate(ends):
            acc = raw[rows, start]
            for i in range(start + 1, end):
                acc = acc + raw[rows, i]
            kappas[rows, k] = acc / (end - start)
            mults.append(end - start)
            start = end
        patterns[c] = tuple(mults)
    return SpectrumRows(raw=raw, kappas=kappas, code=code, patterns=patterns,
                        errors=errors)


def spectrum_at(frame: PointFrame) -> ShapeSpectrum:
    """Principal curvatures of one frame: one row of `spectrum_rows`."""
    return spectrum_rows(frame.metric[None], frame.second_form[None]).row(0)


def mean_gauss_at(frame: PointFrame):
    """Mean curvature H = (k1+k2)/2 and Gauss curvature K = k1 k2; surfaces only."""
    if frame.n != 2:
        raise DimensionMismatchError("mean/Gauss curvature requires a 2-dimensional chart")
    raw = generalized_shape_eigen(frame.metric, frame.second_form)
    h = 0.5 * float(raw[0] + raw[1])
    k = float(raw[0] * raw[1])
    return h, k
