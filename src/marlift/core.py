"""Shared numerical substrate.

Flat bilinear forms of arbitrary signature, second-order jets of evaluatable
maps by central differences, symmetric eigenproblems, and the generalized
eigenvalue solve that turns a metric / second-form pair into principal
curvatures.

Every map the pipeline evaluates is an array map: it takes stacked points
(P, n) to values (P, N). A map whose points can fail returns a `Rows`
record, which holds each failed row's error beside the values of the rows
that did not. `jet2_of`, `shape_eigen_rows` and `generalized_cross` work
on such stacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULTS",
    "Signature",
    "Chart",
    "Jet2",
    "Rows",
    "bilinear",
    "bilinear_rows",
    "jet2_of",
    "sym_eigen",
    "min_eig_and_inverse",
    "generalized_shape_eigen",
    "shape_eigen_rows",
    "generalized_cross",
    "GeometryError",
    "DimensionMismatchError",
    "OutOfDomainError",
    "NonFiniteError",
    "AsymmetricMatrixError",
    "DegenerateMetricError",
]


class GeometryError(Exception):
    """Base class for numerical-geometry failures."""


class DimensionMismatchError(GeometryError):
    pass


class OutOfDomainError(GeometryError):
    pass


class NonFiniteError(GeometryError):
    pass


class AsymmetricMatrixError(GeometryError):
    pass


class DegenerateMetricError(GeometryError):
    pass


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance record.

    The one place tolerances are set: every module reads `DEFAULTS` where it
    uses a tolerance. Callers override only the verifier's finite-difference
    step (`assemble_report(h)`, `jet2_of(h)`, `marlift --step`) and its
    marginality threshold (`tol_marginal`). The default step balances O(h^2)
    truncation against eps/h^2 round-off in second differences at double
    precision; the construction differentiates hypersurfaces without
    analytic jets at it. The root solve needs none: it stops at the
    round-off bound it computes from each polynomial's coefficients.
    """

    step_h: float = 1e-4
    tol_sym: float = 1e-5        # jet d2 asymmetry, relative to 1 + |d2|
    tol_pd: float = 1e-8         # positive-definiteness floor for metrics
    tol_zero: float = 1e-7       # |kappa| below this counts as vanishing curvature
    tol_cluster: float = 1e-5    # single-linkage gap for curvature multiplicities
    tol_marginal: float = 1e-5   # normalized null component of the mean curvature
    tol_quadric: float = 1e-8    # hyperquadric / product factor constraint residual
    tol_minimal: float = 1e-7    # |sum m_i kappa_i| below this counts as minimal
    tol_degenerate: float = 1e-6 # root within this of a breakpoint is flagged


DEFAULTS = Tolerances()


@dataclass(frozen=True)
class Signature:
    """Diagonal flat bilinear form with `plus` +1 entries then `minus` -1 entries."""

    plus: int
    minus: int

    def __post_init__(self):
        if self.plus < 0 or self.minus < 0:
            raise DimensionMismatchError("signature counts must be nonnegative")
        object.__setattr__(self, "_signs", np.concatenate(
            [np.ones(self.plus), -np.ones(self.minus)]))

    @property
    def dim(self) -> int:
        return self.plus + self.minus

    @property
    def signs(self) -> np.ndarray:
        return self._signs

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def of(plus: int, minus: int) -> "Signature":
        return Signature(plus, minus)


def bilinear(sig: Signature, u: Sequence[float], v: Sequence[float]) -> float:
    """Evaluate the flat form: sum over plus slots minus sum over minus slots."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (sig.dim,) or v.shape != (sig.dim,):
        raise DimensionMismatchError(
            f"vectors of length {u.shape}/{v.shape} against signature dim {sig.dim}")
    p = sig.plus
    return float(np.dot(u[:p], v[:p]) - np.dot(u[p:], v[p:]))


def _columns(op, a: np.ndarray) -> np.ndarray:
    """op.reduce(a, axis=-1) for a short last axis, as a chain of `op` over
    the columns, without the per-row dispatch of a short-axis reduction. For
    np.maximum, np.logical_or and np.logical_and the values are the same, NaN
    included; np.add sums the columns in their order."""
    if not a.shape[-1]:
        return op.reduce(a, axis=-1)
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = op(out, a[..., k])
    return out


def bilinear_rows(sig: Signature, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`bilinear` of paired rows (..., N); the products are the same dot
    products, one `np.vecdot` per sign block, as np.dot rounds them."""
    p = sig.plus
    return np.vecdot(u[..., :p], v[..., :p]) - np.vecdot(u[..., p:], v[..., p:])


@dataclass(frozen=True)
class Chart:
    """Sampled open box in R^n.

    Grid sweeps visit every sample point; a point that the construction or
    the verifier cannot handle fails alone, with its own reason.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    resolution: tuple

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        res = tuple(int(r) for r in np.atleast_1d(self.resolution))
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise DimensionMismatchError("chart bounds must have length dim")
        if len(res) != self.dim:
            raise DimensionMismatchError("chart resolution must have length dim")
        if not np.all(lower < upper):
            raise OutOfDomainError("chart requires lower < upper on every axis")
        if any(r < 3 for r in res):
            raise OutOfDomainError("resolution >= 3 per axis (central differences need interior points)")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "resolution", res)

    def with_resolution(self, resolution) -> "Chart":
        return Chart(self.dim, self.lower, self.upper, resolution)

    def axes(self, margin: float = 0.0):
        return [np.linspace(lo + margin, hi - margin, k)
                for lo, hi, k in zip(self.lower, self.upper, self.resolution)]

    def grid(self, margin: float = 0.0) -> np.ndarray:
        """Raster-ordered sample points, shape (prod(resolution), dim)."""
        mesh = np.meshgrid(*self.axes(margin), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class Jet2:
    """Value, first and second derivatives of a map at a point.

    d1[i] is the i-th partial derivative vector, d2[i, j] the mixed second
    derivative. A jet of stacked points carries a leading point axis on all
    three arrays and `errors`, one entry per point: None, or the
    GeometryError that point raised (its rows hold NaN).
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    errors: tuple = ()

    def row(self, i: int) -> "Jet2":
        """The single-point jet of stacked point i; raises that point's error."""
        if self.errors and self.errors[i] is not None:
            raise self.errors[i]
        return Jet2(value=self.value[i], d1=self.d1[i], d2=self.d2[i])


class Rows:
    """Values of an array map at stacked points.

    `values[i]` is the value at point i, NaN where that point failed, and
    `errors[i]` the GeometryError it raised, or None.
    """

    __slots__ = ("values", "errors")

    def __init__(self, values: np.ndarray, errors: list):
        self.values = values
        self.errors = errors

    def value(self, i: int) -> np.ndarray:
        """Value at point i; raises that point's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return self.values[i]


@functools.lru_cache(maxsize=16)
def _stencil(n: int, h: float) -> np.ndarray:
    """Offsets of the central-difference stencil, one row each, in evaluation
    order: the point, then +h e_i and -h e_i per axis, then per pair i < j
    the corners (+,+), (+,-), (-,+), (-,-)."""
    off = np.zeros((1 + 2 * n * n, n))
    k = 1
    for i in range(n):
        off[k, i], off[k + 1, i] = h, -h
        k += 2
    for i in range(n):
        for j in range(i + 1, n):
            off[k:k + 4, i] = (h, h, -h, -h)
            off[k:k + 4, j] = (h, -h, h, -h)
            k += 4
    off.flags.writeable = False
    return off


def _call_rows(fn, points: np.ndarray):
    """Values (P, m) of an array map at `points` and its row errors, if any."""
    out = fn(points)
    errors = None
    if isinstance(out, Rows):
        out, errors = out.values, out.errors
    if not len(points):
        return np.empty((0, 1)), errors
    return np.asarray(out, dtype=float).reshape(len(points), -1), errors


def jet2_of(fn: Callable[[np.ndarray], np.ndarray],
            x: np.ndarray,
            h: Optional[float] = None,
            chart: Optional[Chart] = None) -> Jet2:
    """Second-order jet of the array map `fn` at stacked points `x` (P, n)
    by O(h^2) central differences.

    Mixed derivatives use the 4-point cross stencil, which is symmetric in its
    two indices by construction.

    `fn` is called once, on the points themselves, in the order of `x`,
    followed by all their other stencil rows that lie inside the chart. The
    jet reports, per point, the first stencil row that failed in stencil
    order (`_stencil`): a row outside the chart (OutOfDomainError), a row
    the map failed, or a non-finite value (NonFiniteError). `Jet2.row(i)`
    raises that error.
    """
    x = np.asarray(x, dtype=float)
    count, n = x.shape
    h = np.float64(DEFAULTS.step_h if h is None else h)
    if not 0.0 < h < np.inf:
        raise OutOfDomainError("step h must be positive and finite")

    off = _stencil(n, float(h))
    pts = x[None, :, :] + off[:, None, :]          # (stencil row, point, n)
    outside = None
    # the stencil's extremes per axis: rounding is monotone, so the extreme
    # point plus each offset is the extreme of that offset's rows, bit for bit
    if chart is not None and not (count and ((x.min(0) + off).min(0) >= chart.lower).all()
                                  and ((x.max(0) + off).max(0) <= chart.upper).all()):
        outside = _columns(np.logical_or, (pts < chart.lower) | (pts > chart.upper))
    if outside is None:
        # every stencil row lies inside the chart, as on every report grid
        # by its margin: the map's rows are the whole stencil as it is
        called = np.ones((len(off), count), dtype=bool)
        out, out_errors = _call_rows(fn, np.concatenate([x, pts[1:].reshape(-1, n)]))
        vals = out.reshape(len(off), count, out.shape[1])
    else:
        called = ~outside
        called[0] = True  # the points themselves, inside the chart or not
        out, out_errors = _call_rows(fn, np.concatenate([x, pts[1:][called[1:]]]))
        vals = np.full((len(off), count, out.shape[1]), np.nan)
        vals[called] = out

    failed = ~_columns(np.logical_and, np.isfinite(vals))
    if outside is not None:
        failed |= outside
    raised = None
    if out_errors and out_errors.count(None) < len(out_errors):
        raised = np.full(failed.shape, None, dtype=object)
        raised[called] = out_errors
        failed |= np.not_equal(raised, None)
    errors = [None] * count
    if failed.any():
        for p in np.flatnonzero(failed.any(axis=0)):
            s = int(np.argmax(failed[:, p]))
            if outside is not None and outside[s, p]:
                errors[p] = OutOfDomainError(f"stencil point {pts[s, p]} leaves the chart")
            elif raised is not None and raised[s, p] is not None:
                errors[p] = raised[s, p]
            else:
                errors[p] = NonFiniteError(f"map returned non-finite values at {pts[s, p]}")
        if outside is None:
            vals = vals.copy()  # the NaN below stays out of the map's own values
        vals[:, [e is not None for e in errors]] = np.nan

    f0 = vals[0]
    fp, fm = vals[1:2 * n + 1:2], vals[2:2 * n + 2:2]
    d1 = np.empty((count, n, f0.shape[-1]))
    d2 = np.empty((count, n, n, f0.shape[-1]))
    for i in range(n):
        d1[:, i] = (fp[i] - fm[i]) / (2.0 * h)
        d2[:, i, i] = (fp[i] - 2.0 * f0 + fm[i]) / h ** 2
    k = 2 * n + 1
    for i in range(n):
        for j in range(i + 1, n):
            fpp, fpm, fmp, fmm = vals[k:k + 4]
            mixed = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
            d2[:, i, j] = mixed
            d2[:, j, i] = mixed
            k += 4
    return Jet2(value=f0, d1=d1, d2=d2, errors=tuple(errors))


def sym_eigen(m: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("sym_eigen expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > DEFAULTS.tol_sym * scale:
        raise AsymmetricMatrixError("input matrix is not symmetric to tolerance")
    return np.linalg.eigh(0.5 * (a + a.T))


def min_eig_and_inverse(g: np.ndarray):
    """The smallest eigenvalue (...) of the symmetric part of each matrix of
    a stack g (..., n, n), and each matrix's inverse (..., n, n), NaN where
    that eigenvalue is not positive.

    At n = 2 both are in closed form: the eigenvalue is the mean of the
    diagonal minus the radius of the 2x2 form, and the inverse the adjugate
    over the determinant. At n > 2 they come from numpy's eigvalsh and inv.
    """
    n = g.shape[-1]
    if n == 2:
        g11, g12, g21, g22 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
        low = 0.5 * (g11 + g22) - np.hypot(0.5 * (g11 - g22), 0.5 * (g12 + g21))
        inverse = (np.stack([g22, -g12, -g21, g11], axis=-1).reshape(g.shape)
                   / (g11 * g22 - g12 * g21)[..., None, None])
        return low, np.where((low > 0.0)[..., None, None], inverse, np.nan)
    low = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, -1, -2)))[..., 0]
    inverse = np.full(g.shape, np.nan)
    positive = low > 0.0
    inverse[positive] = np.linalg.inv(g[positive])
    return low, inverse


def _errored(errors) -> np.ndarray:
    """Mask of the rows whose error slot (a list or tuple) holds an error;
    when none does, as is usual, no per-row loop runs."""
    if errors.count(None) == len(errors):
        return np.zeros(len(errors), dtype=bool)
    return np.array([e is not None for e in errors], dtype=bool)


def _fail(errors: list, mask, make) -> None:
    """Record make(i) as the error of each row in `mask` that has none yet."""
    if not mask.any():
        return
    for i in np.flatnonzero(mask):
        if errors[i] is None:
            errors[i] = make(i)


def _pd_rows(g: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: does g - tol_pd I admit a Cholesky factor."""
    shifted = g - DEFAULTS.tol_pd * np.eye(g.shape[-1])
    try:
        np.linalg.cholesky(shifted)
        return np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ok = np.zeros(len(g), dtype=bool)
    for i, gi in enumerate(shifted):
        try:
            np.linalg.cholesky(gi)
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return ok


def shape_eigen_rows(g: np.ndarray, b: np.ndarray,
                     errors: Optional[list] = None) -> Rows:
    """Stacked `generalized_shape_eigen`: rows of ascending eigenvalues.

    A row whose metric is not positive definite reports
    DegenerateMetricError; rows already failed in `errors` stay failed.
    """
    tol_pd = DEFAULTS.tol_pd
    count, n = g.shape[0], g.shape[-1]
    errors = [None] * count if errors is None else list(errors)
    degenerate = lambda i: DegenerateMetricError("metric not positive definite")
    with np.errstate(invalid="ignore", divide="ignore"):
        if n == 2:
            g11, g12, g22 = g[:, 0, 0], 0.5 * (g[:, 0, 1] + g[:, 1, 0]), g[:, 1, 1]
            _fail(errors, (g11 <= tol_pd) | (g11 * g22 - g12 * g12 <= tol_pd * np.maximum(
                np.maximum(g11, g22), 1.0)), degenerate)
            l11 = np.sqrt(g11)
            l21 = g12 / l11
            d = g22 - l21 * l21
            _fail(errors, d <= tol_pd, degenerate)
            l22 = np.sqrt(d)
            b11, b12, b22 = b[:, 0, 0], 0.5 * (b[:, 0, 1] + b[:, 1, 0]), b[:, 1, 1]
            c11 = b11 / l11
            m11 = c11 / l11
            m12 = (b12 - l21 * c11) / (l22 * l11)
            m22 = (b22 - 2.0 * l21 * b12 / l11 + l21 * l21 * m11) / (l22 * l22)
            # one Jacobi rotation of the symmetric 2x2 matrix (m11, m12; m12, m22)
            theta = (m22 - m11) / (2.0 * m12)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            lo, hi = m11 - t * m12, m22 + t * m12
            diagonal = m12 == 0.0
            lo = np.where(diagonal, np.minimum(m11, m22), lo)
            hi = np.where(diagonal, np.maximum(m11, m22), hi)
            raw = np.stack([np.where(lo > hi, hi, lo), np.where(lo > hi, lo, hi)], axis=-1)
        else:
            sym_g = 0.5 * (g + np.swapaxes(g, -1, -2))
            ok = ~_errored(errors)
            ok[ok] = _pd_rows(sym_g[ok])
            _fail(errors, ~ok, degenerate)
            raw = np.full((count, n), np.nan)
            if ok.any():
                ell = np.linalg.cholesky(sym_g[ok])
                bs = b[ok]
                c = np.linalg.solve(ell, 0.5 * (bs + np.swapaxes(bs, -1, -2)))
                mmat = np.swapaxes(np.linalg.solve(ell, np.swapaxes(c, -1, -2)), -1, -2)
                raw[ok] = np.linalg.eigvalsh(0.5 * (mmat + np.swapaxes(mmat, -1, -2)))
    raw[_errored(errors)] = np.nan
    return Rows(raw, errors)


def generalized_shape_eigen(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real eigenvalues of det(b - kappa g) = 0, ascending.

    Solved by Cholesky-style congruence: with g = L L^T the problem reduces to
    the ordinary symmetric eigenproblem for L^-1 b L^-T (one Jacobi rotation
    when n = 2, numpy's symmetric solver otherwise), so the returned values
    are invariant under simultaneous congruence of (g, b). One row of
    `shape_eigen_rows`.
    """
    g = np.asarray(g, dtype=float)
    b = np.asarray(b, dtype=float)
    if g.shape != b.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError("g and b must be square matrices of equal shape")
    return shape_eigen_rows(g[None], b[None]).value(0)


def _det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Determinants of the 3x3 matrices with columns a, b, c, each a stack
    (..., 3), by cofactor expansion."""
    return (a[..., 0] * (b[..., 1] * c[..., 2] - c[..., 1] * b[..., 2])
            - b[..., 0] * (a[..., 1] * c[..., 2] - c[..., 1] * a[..., 2])
            + c[..., 0] * (a[..., 1] * b[..., 2] - b[..., 1] * a[..., 2]))


def generalized_cross(vectors: np.ndarray) -> np.ndarray:
    """Vector orthogonal (Euclidean) to k = N-1 given vectors in R^N.

    Cofactor expansion of the formal determinant; the result completes the
    input list to a positively oriented basis whenever it is nonzero. Takes
    one list (k, N) or a stack of lists (..., k, N).
    """
    vecs = np.asarray(vectors, dtype=float)
    k, nn = vecs.shape[-2:]
    if k != nn - 1:
        raise DimensionMismatchError("generalized cross needs N-1 vectors in R^N")
    if nn == 3:
        a1, a2, a3 = (vecs[..., 0, i] for i in range(3))
        b1, b2, b3 = (vecs[..., 1, i] for i in range(3))
        return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3,
                         a1 * b2 - a2 * b1], axis=-1)
    signs = (-1.0) ** (k + np.arange(nn))
    if nn == 4:
        # minor i drops column i; the columns are views, nothing is gathered
        cols = [vecs[..., j] for j in range(nn)]
        return np.stack([signs[i] * _det3(*cols[:i], *cols[i + 1:])
                         for i in range(nn)], axis=-1)
    # all N minors at once, minor i dropping column i
    keep = [[j for j in range(nn) if j != i] for i in range(nn)]
    return signs * np.linalg.det(np.ascontiguousarray(np.moveaxis(vecs[..., keep], -2, -3)))
