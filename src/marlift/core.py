"""Shared numerical substrate.

Flat bilinear forms of arbitrary signature, second-order jets of evaluatable
maps by central differences, symmetric eigenproblems, and the generalized
eigenvalue solve that turns a metric / second-form pair into principal
curvatures.

Everything here is a pure function of its inputs; the value types are frozen
dataclasses, so grid sweeps can be parallelized point-wise without any
coordination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULTS",
    "Signature",
    "Chart",
    "Jet2",
    "bilinear",
    "jet2_of",
    "sym_eigen",
    "generalized_shape_eigen",
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

    Every module reads these defaults instead of redefining its own. The
    finite-difference step balances O(h^2) truncation against eps/h^2
    round-off in second differences at double precision.
    """

    step_h: float = 1e-4
    tol_sym: float = 1e-5        # jet d2 asymmetry, relative to 1 + |d2|
    tol_pd: float = 1e-8         # positive-definiteness floor for metrics
    tol_zero: float = 1e-7       # |kappa| below this counts as vanishing curvature
    tol_cluster: float = 1e-5    # single-linkage gap for curvature multiplicities
    tol_root: float = 1e-10      # bisection bracket width before Newton polish
    tol_marginal: float = 1e-5   # normalized null component of the mean curvature
    tol_quadric: float = 1e-8    # hyperquadric / product factor constraint residual
    tol_null: float = 1e-8       # |<v,v>| for an extracted null direction
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


@dataclass(frozen=True)
class Chart:
    """Sampled open box in R^n.

    `excluded` marks points to skip (singular or umbilic loci); it is honored
    by grid sweeps, not by point evaluation itself.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    resolution: tuple
    excluded: Optional[Callable[[np.ndarray], bool]] = None

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
        return Chart(self.dim, self.lower, self.upper, resolution, self.excluded)

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
    derivative.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def _eval_checked(fn, x, lo, hi):
    if lo is not None and ((x < lo).any() or (x > hi).any()):
        raise OutOfDomainError(f"stencil point {x} leaves the chart")
    y = np.asarray(fn(x), dtype=float)
    if not np.isfinite(y).all():
        raise NonFiniteError(f"map returned non-finite values at {x}")
    return y


def jet2_of(fn: Callable[[np.ndarray], np.ndarray],
            x: Sequence[float],
            h: float | Sequence[float] | None = None,
            chart: Optional[Chart] = None) -> Jet2:
    """Second-order jet of `fn` at `x` by O(h^2) central differences.

    Mixed derivatives use the 4-point cross stencil, which is symmetric in its
    two indices by construction.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if h is None:
        h = DEFAULTS.step_h
    hs = np.broadcast_to(np.asarray(h, dtype=float), (n,)).copy()
    if np.any(hs <= 0):
        raise OutOfDomainError("step h must be positive")
    lo = hi = None
    if chart is not None:
        lo, hi = chart.lower, chart.upper

    f0 = _eval_checked(fn, x, lo, hi)
    m = f0.shape[0] if f0.ndim else 1
    f0 = np.atleast_1d(f0)

    fp = np.empty((n, m))
    fm = np.empty((n, m))
    for i in range(n):
        e = np.zeros(n)
        e[i] = hs[i]
        fp[i] = _eval_checked(fn, x + e, lo, hi)
        fm[i] = _eval_checked(fn, x - e, lo, hi)

    d1 = (fp - fm) / (2.0 * hs[:, None])
    d2 = np.empty((n, n, m))
    for i in range(n):
        d2[i, i] = (fp[i] - 2.0 * f0 + fm[i]) / hs[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n); ei[i] = hs[i]
            ej = np.zeros(n); ej[j] = hs[j]
            fpp = _eval_checked(fn, x + ei + ej, lo, hi)
            fpm = _eval_checked(fn, x + ei - ej, lo, hi)
            fmp = _eval_checked(fn, x - ei + ej, lo, hi)
            fmm = _eval_checked(fn, x - ei - ej, lo, hi)
            mixed = (fpp - fpm - fmp + fmm) / (4.0 * hs[i] * hs[j])
            d2[i, j] = mixed
            d2[j, i] = mixed
    return Jet2(value=f0, d1=d1, d2=d2)


def sym_eigen(m: np.ndarray, tol: Optional[float] = None):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("sym_eigen expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    if tol is None:
        tol = DEFAULTS.tol_sym
    if np.max(np.abs(a - a.T)) > tol * scale:
        raise AsymmetricMatrixError("input matrix is not symmetric to tolerance")
    return np.linalg.eigh(0.5 * (a + a.T))


def _jacobi_2x2_values(m11: float, m12: float, m22: float):
    """Eigenvalues of a symmetric 2x2 matrix by one Jacobi rotation."""
    if m12 == 0.0:
        lo, hi = sorted((m11, m22))
        return lo, hi
    theta = (m22 - m11) / (2.0 * m12)
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
    lo, hi = m11 - t * m12, m22 + t * m12
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def generalized_shape_eigen(g: np.ndarray, b: np.ndarray,
                            tol_pd: Optional[float] = None) -> np.ndarray:
    """Real eigenvalues of det(b - kappa g) = 0, ascending.

    Solved by Cholesky-style congruence: with g = L L^T the problem reduces to
    the ordinary symmetric eigenproblem for L^-1 b L^-T (one Jacobi rotation
    when n = 2, numpy's symmetric solver otherwise), so the returned values
    are invariant under simultaneous congruence of (g, b).
    """
    g = np.asarray(g, dtype=float)
    b = np.asarray(b, dtype=float)
    if g.shape != b.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError("g and b must be square matrices of equal shape")
    if tol_pd is None:
        tol_pd = DEFAULTS.tol_pd
    n = g.shape[0]
    if n == 2:
        g11, g12, g22 = g[0, 0], 0.5 * (g[0, 1] + g[1, 0]), g[1, 1]
        if g11 <= tol_pd or g11 * g22 - g12 * g12 <= tol_pd * max(g11, g22, 1.0):
            raise DegenerateMetricError("metric not positive definite")
        l11 = math.sqrt(g11)
        l21 = g12 / l11
        d = g22 - l21 * l21
        if d <= tol_pd:
            raise DegenerateMetricError("metric not positive definite")
        l22 = math.sqrt(d)
        b11, b12, b22 = b[0, 0], 0.5 * (b[0, 1] + b[1, 0]), b[1, 1]
        c11 = b11 / l11
        m11 = c11 / l11
        m12 = (b12 - l21 * c11) / (l22 * l11)
        m22 = (b22 - 2.0 * l21 * b12 / l11 + l21 * l21 * m11) / (l22 * l22)
        return np.array(_jacobi_2x2_values(m11, m12, m22))
    try:
        np.linalg.cholesky(0.5 * (g + g.T) - tol_pd * np.eye(n))
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("metric not positive definite")
    ell = np.linalg.cholesky(0.5 * (g + g.T))
    c = np.linalg.solve(ell, 0.5 * (b + b.T))
    mmat = np.linalg.solve(ell, c.T).T
    return np.linalg.eigvalsh(0.5 * (mmat + mmat.T))


def _det3(m) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def generalized_cross(vectors: np.ndarray) -> np.ndarray:
    """Vector orthogonal (Euclidean) to k = N-1 given vectors in R^N.

    Cofactor expansion of the formal determinant; the result completes the
    input list to a positively oriented basis whenever it is nonzero.
    """
    vecs = np.asarray(vectors, dtype=float)
    k, nn = vecs.shape
    if k != nn - 1:
        raise DimensionMismatchError("generalized cross needs N-1 vectors in R^N")
    if nn == 3:
        (a1, a2, a3), (b1, b2, b3) = vecs
        return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3,
                         a1 * b2 - a2 * b1])
    if nn == 4:
        rows = vecs.tolist()
        out = np.empty(4)
        for i in range(4):
            minor = [[row[j] for j in range(4) if j != i] for row in rows]
            out[i] = (-1.0) ** (3 + i) * _det3(minor)
        return out
    out = np.empty(nn)
    cols = np.arange(nn)
    for i in range(nn):
        minor = vecs[:, cols != i]
        out[i] = (-1.0) ** (k + i) * np.linalg.det(minor)
    return out
