"""Independent numerical check of marginality.

Everything here is computed from a lift's raw evaluations: tangents and
second derivatives by central differences in the flat container, the ambient
realized as a hyperquadric or metric product of that container, covariant
derivatives as flat derivatives followed by orthogonal projection, and the
two null normal directions extracted from the induced Lorentzian plane
metric: a Householder QR written on columns of length P gives the plane,
and its 2x2 algebra, like the induced metric's, is in closed form, so a
report makes no per-matrix LAPACK call at n = 2. The constructor's spectrum
is consulted only for the optional lemma cross-checks, never for the
verdict.

Row contract: `assemble_report` takes the grid's stencil in one `jet2_of`
call and runs every later stage on those stacked rows. A point that fails
fails alone, with the error its one-row call `lorentz_frame_at` raises; the
`*_at` and `check_*_identity` functions are one-row calls of the same code.
The construction data comes from the one lift record, the `LiftRows` of the
stencil, which carries it for its leading rows, the grid points: their null
normals and stacked context are read as arrays, by row mask; the other
stencil rows are evaluated without them. The report is the
per-point table, a row per grid point: the chart points, the lift's values,
a column per value of `PointRecord` and the exclusion reasons. The summary,
the verdict, the rendered report and the mesh read its columns; its
`records` are built from them only when read.

Mean curvature convention: the averaged trace (1/n) g^ij h_ij. The verdict
is insensitive to the normalization, but the closed-form identities are not,
so the convention is recorded in every report.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    DEFAULTS,
    GeometryError,
    Jet2,
    _columns,
    _errored,
    _fail,
    bilinear_rows,
    jet2_of,
    min_eig_and_inverse,
    sym_eigen,  # unused here; bench/tracing.py wraps it on this module
)
from .constructor import (
    AmbientKind,
    LiftContext,
    LiftedImmersion,
    SPACE_FORM_FAMILY,
)

__all__ = [
    "LorentzFrame",
    "PointRecord",
    "MarginalityReport",
    "lorentz_frame_rows",
    "lorentz_frame_at",
    "second_form_rows",
    "second_form_at",
    "mean_curvature_rows",
    "mean_curvature_at",
    "check_mean_curvature_identity",
    "check_metric_identity",
    "check_second_form_identity",
    "assemble_report",
    "FrameError",
    "SpacelikeViolationError",
]

CONVENTION_NOTE = "mean curvature = averaged trace (1/n) g^ij h_ij"

VERDICT_TRAPPED = "marginally_trapped"
VERDICT_NOT = "not_marginal"
VERDICT_INCONCLUSIVE = "inconclusive"

# the reason prefix of points excluded by a SpacelikeViolationError
SPACELIKE = "spacelike violation"


class FrameError(GeometryError):
    pass


class SpacelikeViolationError(GeometryError):
    pass


class LorentzFrame(NamedTuple):
    """Tangent data, induced metric and the null normal pair at one point.

    A frame of stacked points carries a leading point axis on every array
    and `errors`, one entry per point: None, or the GeometryError that point
    raised (its metric, normal plane and null pair rows hold NaN). The null
    pair's order does not depend on the basis inside the plane: first comes
    the vector larger in the coordinate where the two differ most.
    """

    x: np.ndarray
    position: np.ndarray
    tangent: np.ndarray          # (n, N)
    metric: np.ndarray           # induced, positive definite
    metric_inv: np.ndarray
    min_eig: float
    normal_basis: np.ndarray     # (2, N), orthonormal, spans the normal plane
    normal_form: np.ndarray      # 2x2 induced Lorentzian form on that plane
    null_pair: np.ndarray        # (2, N), both null, normalized
    null_product: float          # bilinear(null_pair[0], null_pair[1]) != 0
    jet: Jet2
    errors: tuple = ()

    @property
    def n(self) -> int:
        return self.tangent.shape[-2]

    def row(self, i: int) -> "LorentzFrame":
        """The frame of stacked point i; raises that point's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return LorentzFrame(*(a[i] for a in self[:-2]), jet=self.jet.row(i))


def _resolved(name: str, value: float) -> str:
    """A failed eigenvalue for its reason, where it is resolved: below
    -tol_pd. Above that it is round-off, and the reason names the bound
    alone, so that its text does not move with the last bits of the lift."""
    return f" ({name} {value:.3e})" if value < -DEFAULTS.tol_pd else ""


def _sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (component) axis, in component order."""
    return functools.reduce(np.add, a)


def _pairing(signs: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The container form of paired rows (..., N), its products summed over
    the columns in order. `core.bilinear_rows` stays the construction's
    form: its rounding is part of the lift's values."""
    return _columns(np.add, u * signs * v)


def _reflect(v: np.ndarray, scale: np.ndarray, a: np.ndarray) -> None:
    """Apply the Householder reflection I - v v^T / scale, with v (m, P)
    and 1/scale given as `scale` (P,), to the vectors a (m, c, P) in place."""
    a -= v[:, None] * (_sum(v[:, None] * a) * scale)


def _normal_plane(rows: np.ndarray):
    """Euclidean complement of stacked rows (P, k, N) with N - k = 2, by the
    Householder QR of their transposes, in columns of length P: row j is
    reflected onto e_j, and the reflection is applied to the rows after it;
    Q's last two columns are e_{N-2} and e_{N-1} under the reflections in
    reverse order, an orthonormal basis (P, 2, N); |R_jj| (P, k) is the norm
    that row j reflects, and the smallest vanishes when the rows are
    dependent. A zero row's reflection is the identity."""
    count, k, nn = rows.shape
    a = rows.transpose(2, 1, 0).copy()           # (N, k, P): a[i, j] is row j's x_i
    pivots, reflections = np.zeros((k, count)), []
    for j in range(min(k, nn)):
        x = a[j:, j]
        sigma = np.sqrt(_sum(x * x))
        v = x.copy()
        v[0] += np.copysign(sigma, x[0])          # x - beta e_j, beta = -sign(x_j) sigma
        scale = sigma * (sigma + np.abs(x[0]))    # v.v / 2
        scale = np.divide(1.0, scale, out=np.zeros(count), where=scale > 0.0)
        _reflect(v, scale, a[j:, j + 1:])
        pivots[j] = sigma
        reflections.append((v, scale))
    q = np.zeros((nn, 2, count))
    q[nn - 2, 0] = q[nn - 1, 1] = 1.0
    for j in reversed(range(len(reflections))):
        _reflect(*reflections[j], q[j:])
    return q.transpose(2, 1, 0), pivots.T


def _plane_pair(basis: np.ndarray, sig):
    """The container form (P, 2, 2) on the planes of an orthonormal `basis`
    (P, 2, N), its eigenvalues (P, 2) in ascending order, and, where it is
    Lorentzian, its two null directions (P, 2, N): normalized to time
    coordinate 1, or to a unit spatial part where the time coordinate is
    negligible, the first the larger in the coordinate where the two differ
    most, so that neither depends on the basis inside the plane. All in
    closed form, on columns of length P."""
    b = basis.transpose(2, 1, 0)                  # (N, 2, P)
    gb = b * sig.signs[:, None, None]
    (a, off), c = _sum(gb * b[:, :1]), _sum(gb[:, 1] * b[:, 1])
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), off)
    low, high = mean - radius, mean + radius
    # (cos t, sin t) is the eigenvector of `high`, (-sin t, cos t) that of `low`
    t = 0.5 * np.arctan2(2.0 * off, a - c)
    cos, sin, space, time = np.cos(t), np.sin(t), np.sqrt(high), np.sqrt(-low)
    # space +- time, (cos, sin) / space +- (-sin, cos) / time, on the basis
    along0 = np.stack([cos / space - sin / time, cos / space + sin / time])
    along1 = np.stack([sin / space + cos / time, sin / space - cos / time])
    pair = b[:, :1] * along0 + b[:, 1:] * along1  # (N, 2, P)
    last = pair[-1]
    big = np.abs(last) > 1e-6 * functools.reduce(np.maximum, np.abs(pair))
    pair = pair / np.where(big, last, np.sqrt(_sum(pair[:sig.plus] ** 2)))
    # the difference's first coordinate of largest magnitude, and its sign
    diff = pair[:, 0] - pair[:, 1]
    most, top = diff[0], np.abs(diff[0])
    for d in diff[1:]:
        larger = np.abs(d) > top
        most, top = np.where(larger, d, most), np.where(larger, np.abs(d), top)
    pair = np.where(most < 0, pair[:, ::-1], pair)
    form = np.stack([a, off, off, c]).reshape(2, 2, -1).transpose(2, 0, 1)
    return form, np.stack([low, high], axis=-1), pair.transpose(2, 1, 0)


def lorentz_frame_rows(lift: LiftedImmersion, x, jet: Jet2) -> LorentzFrame:
    """Frames of the lift at stacked chart points x (P, n), built from their
    stacked jet of lift evaluations only, on columns of length P.

    The induced metric sums each pair of tangents' products in component
    order, so it is symmetric as built; its smallest eigenvalue and inverse
    are `min_eig_and_inverse`. The normal plane is the orthogonal
    complement, with respect to the flat container form, of the tangent
    space together with the active constraint gradients, taken from their
    column Householder QR (`_normal_plane`); it must carry a Lorentzian
    induced form, whose two null directions, in closed form (`_plane_pair`),
    form the returned pair. Per point the checks run in order (the jet's
    error, the constraint, the induced metric's positive definiteness, the
    dimension of the complement, which the shapes fix for every point, the
    rank of the tangent/constraint system, the normal form's signature, the
    null pair) and the first that fails is that point's error.
    """
    x = np.asarray(x, dtype=float)
    ambient = lift.ambient
    sig, signs, tol_pd = ambient.signature, ambient.signature.signs, DEFAULTS.tol_pd
    errors = list(jet.errors) if jet.errors else [None] * len(x)
    value, tangent = jet.value, jet.d1

    def failed(fill, a, dead):
        """`a` with the rows of `dead` replaced by `fill`, or `a` itself."""
        shape = (-1,) + (1,) * (a.ndim - 1)
        return np.where(dead.reshape(shape), fill, a) if dead.any() else a

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        res = ambient.constraint_residual(value)
        _fail(errors, res > DEFAULTS.tol_quadric * (1.0 + _columns(np.maximum, np.abs(value))),
              lambda i: FrameError(
                  f"ambient constraint violated by {res[i]:.3e} at chart {x[i]}"))

        # on columns (N, k, P): the tangents, then the constraint gradients
        rows = np.ascontiguousarray(np.concatenate(
            [tangent, ambient.constraint_normals(value)], axis=-2).transpose(2, 1, 0))
        n = tangent.shape[-2]
        g = _sum(rows[:, :n, None] * signs[:, None, None, None]
                 * rows[:, None, :n]).transpose(2, 0, 1)
        min_eig, g_inv = min_eig_and_inverse(failed(1.0, g, _errored(errors)))
        _fail(errors, min_eig <= tol_pd, lambda i: SpacelikeViolationError(
            f"induced metric not positive definite beyond {tol_pd:g} at chart "
            f"{x[i]}{_resolved('min eigenvalue', min_eig[i])}"))

        dim = rows.shape[0] - rows.shape[1]
        if dim != 2:
            _fail(errors, np.ones(len(x), dtype=bool), lambda i: FrameError(
                f"normal complement has dimension {dim}, expected 2"))
        # lowered, their Euclidean complement is the container form's
        rows *= signs[:, None, None]
        rows[..., _errored(errors)] = 0.0
        basis, pivots = _normal_plane(rows.transpose(2, 1, 0))
        scale = functools.reduce(np.maximum, np.sqrt(_sum(rows * rows)), np.ones(len(x)))
        _fail(errors, functools.reduce(np.minimum, pivots.T) <= 1e-10 * scale,
              lambda i: FrameError(f"degenerate tangent/constraint system at chart {x[i]}"))

        s2, w2, pair = _plane_pair(basis, sig)
        _fail(errors, ~((w2[:, 0] < -tol_pd) & (tol_pd < w2[:, 1])),
              lambda i: FrameError(
                  f"normal plane metric is not Lorentzian beyond {tol_pd:g} at chart "
                  f"{x[i]}{_resolved('larger eigenvalue', w2[i, 1])}"))
        product = _pairing(signs, pair[:, 0], pair[:, 1])
        _fail(errors, np.abs(product) <= tol_pd,
              lambda i: FrameError(f"null pair degenerate at chart {x[i]}"))
        dead = _errored(errors)
        g, g_inv, min_eig, basis, s2, pair, product = (
            failed(np.nan, a, dead) for a in (g, g_inv, min_eig, basis, s2, pair, product))
        return LorentzFrame(x, value, tangent, g, g_inv, min_eig, basis,
                            s2, pair, product, jet, tuple(errors))


def lorentz_frame_at(lift: LiftedImmersion, x) -> LorentzFrame:
    """Frame of the lift at a chart point: one row of `lorentz_frame_rows`,
    from one stencil of lift evaluations at the default step."""
    x = np.asarray(x, dtype=float)[None]
    jets = jet2_of(lambda p: lift.evaluate(p, 0), x, chart=lift.chart)
    return lorentz_frame_rows(lift, x, jets).row(0)


def second_form_rows(lift: LiftedImmersion, frame: LorentzFrame) -> np.ndarray:
    """Vector-valued second fundamental form, shape (..., n, n, container_dim),
    of a frame at one point or at stacked points.

    Flat second derivatives projected onto the normal plane; the tangential
    and constraint components drop out because the plane is orthogonal to
    both with respect to the container form.
    """
    basis, d2, n = frame.normal_basis, frame.jet.d2, frame.n
    lead, nn = d2.shape[:-3], d2.shape[-1]
    p = len(lead)
    points = tuple(range(p))
    # on columns: the basis (N, 2, ...), the form (2, 2, ...) and the flat
    # second derivatives (N, n * n, ...)
    b = basis.transpose((p + 1, p) + points)
    form = frame.normal_form.transpose((p, p + 1) + points)
    d = np.ascontiguousarray(d2.transpose((p + 2, p, p + 1) + points)).reshape(
        (nn, n * n) + lead)
    gb = b * lift.ambient.signature.signs.reshape((-1,) + (1,) * (b.ndim - 1))
    rhs = _sum(gb[:, :, None] * d[:, None])     # (2, n * n, ...): <d2, b_k>
    # the coefficients on the basis: the 2x2 inverse of the form times rhs
    det = form[0, 0] * form[1, 1] - form[0, 1] * form[1, 0]
    c0 = (form[1, 1] * rhs[0] - form[0, 1] * rhs[1]) / det
    c1 = (form[0, 0] * rhs[1] - form[1, 0] * rhs[0]) / det
    h = (b[:, :1] * c0 + b[:, 1:] * c1).reshape((nn, n, n) + lead)
    return h.transpose(tuple(range(3, 3 + p)) + (1, 2, 0))


def second_form_at(lift: LiftedImmersion, x) -> np.ndarray:
    """Second fundamental form (n, n, container_dim) at one chart point."""
    return second_form_rows(lift, lorentz_frame_at(lift, x))


def mean_curvature_rows(frame: LorentzFrame, sff: np.ndarray) -> np.ndarray:
    """Averaged-trace mean curvature vector (1/n) g^ij h_ij, shape
    (..., container_dim), of a frame at one point or at stacked points."""
    n = frame.n
    ginv = frame.metric_inv.reshape(frame.metric_inv.shape[:-2] + (1, n * n))
    return (ginv @ sff.reshape(sff.shape[:-3] + (n * n, -1)))[..., 0, :] / n


def mean_curvature_at(lift: LiftedImmersion, x) -> np.ndarray:
    """Averaged-trace mean curvature vector at one chart point."""
    frame = lorentz_frame_at(lift, x)
    return mean_curvature_rows(frame, second_form_rows(lift, frame))


# ------------------------------------------------------- closed-form oracles
#
# One point's data or stacked points' data: tau and s scalars or (P,), the
# source metric g and second form b (..., n, n), raw curvatures (..., n).

def _closed_mean_component(kind: AmbientKind, raw_kappas, tau, s) -> np.ndarray:
    k = np.asarray(raw_kappas, dtype=float)
    tau = np.asarray(tau, dtype=float)[..., None]
    if kind in SPACE_FORM_FAMILY:
        terms = k / (1.0 - tau * k)
    elif s is None:
        raise FrameError("product-ambient identity needs the s parameter")
    else:
        s = np.asarray(s, dtype=float)[..., None]
        one = 1.0 if kind is AmbientKind.SPHERE_PRODUCT else -1.0
        terms = (k * s + one) / (s - k)
    return np.sum(terms, axis=-1) / k.shape[-1]


def _closed_forms(kind: AmbientKind, g, b, tau):
    """Closed forms of the lift's induced metric and of <h(.,.), nu>."""
    binvb = b @ min_eig_and_inverse(g)[1] @ b
    tau = np.asarray(tau, dtype=float)[..., None, None]
    if kind in SPACE_FORM_FAMILY:
        return g - 2.0 * tau * b + tau ** 2 * binvb, b - tau * binvb
    if kind is AmbientKind.SPHERE_PRODUCT:
        c, s = np.cos(tau), np.sin(tau)
        return (c * c * g - 2.0 * s * c * b + s * s * binvb,
                (c * c - s * s) * b + s * c * (g - binvb))
    ch, sh = np.cosh(tau), np.sinh(tau)
    return (ch * ch * g - 2.0 * sh * ch * b + sh * sh * binvb,
            (ch * ch + sh * sh) * b - sh * ch * (g + binvb))


def _second_form_gap(lift, sff, nu, closed) -> np.ndarray:
    """Max-norm gap of the measured <h(.,.), nu> from its closed form."""
    measured = (sff @ (lift.ambient.signature.signs * nu)[..., None, :, None])[..., 0]
    return np.max(np.abs(measured - closed), axis=(-2, -1))


def _mean_gap(lift, hvec, nu, raw, tau, s) -> np.ndarray:
    comp = bilinear_rows(lift.ambient.signature, hvec, nu)
    return np.abs(comp - _closed_mean_component(lift.ambient.kind, raw, tau, s))


def _context(lift: LiftedImmersion, x) -> LiftContext:
    ctx = lift.context(x)
    if ctx is None:
        raise FrameError("lift carries no cross-check context")
    return ctx


def check_mean_curvature_identity(lift: LiftedImmersion, x) -> float:
    """|<H, nu> - closed form| with the construction's null normal.

    The closed form sums kappa/(1 - tau kappa) over the raw curvatures for
    the flat family and the corresponding rational expressions in
    s = cot(tau) or coth(tau) for the products.
    """
    ctx = _context(lift, x)
    hvec = mean_curvature_at(lift, x)
    return float(_mean_gap(lift, hvec, lift.null_normal(x), ctx.raw, ctx.tau, ctx.s))


def check_metric_identity(lift: LiftedImmersion, x) -> float:
    """Max-norm gap between the measured induced metric and its closed form."""
    ctx = _context(lift, x)
    frame = lorentz_frame_at(lift, x)
    closed, _ = _closed_forms(lift.ambient.kind, ctx.frame.metric,
                              ctx.frame.second_form, ctx.tau)
    return float(np.max(np.abs(frame.metric - closed)))


def check_second_form_identity(lift: LiftedImmersion, x) -> float:
    """Max-norm gap between <h(.,.), nu> and its closed form."""
    ctx = _context(lift, x)
    sff = second_form_at(lift, x)
    _, closed = _closed_forms(lift.ambient.kind, ctx.frame.metric,
                              ctx.frame.second_form, ctx.tau)
    return float(_second_form_gap(lift, sff, lift.null_normal(x), closed))


# ----------------------------------------------------------------- reports

class PointRecord(NamedTuple):
    x: tuple
    position: Optional[tuple] = None
    min_eig_g: float = math.nan
    null_residual_primary: float = math.nan
    null_residual_opposite: float = math.nan
    hvec_norm_sq: float = math.nan
    legendrian_residual: Optional[float] = None
    lemma_metric_residual: Optional[float] = None
    lemma_secondform_residual: Optional[float] = None
    eqH_residual: Optional[float] = None
    excluded: bool = False
    reason: str = ""

    @property
    def null_residual(self) -> float:
        """The verdict's residual: the smaller normalized null component of H."""
        return min(self.null_residual_primary, self.null_residual_opposite)


class _ReportFields(NamedTuple):
    name: str
    ambient: str
    verdict: str
    summary: dict
    x: np.ndarray
    values: np.ndarray
    table: np.ndarray
    reasons: tuple
    cross_check_failures: int = 0
    convention: str = CONVENTION_NOTE


class MarginalityReport(_ReportFields):
    """The verified lift as its per-point table, a row per grid point.

    `x` (P, n) holds the chart points and `values` (P, N) the lift's values
    there, NaN where the lift failed. `table` (P, 8) holds the value fields
    of `PointRecord` in their order, NaN where a value was not computed and
    on excluded points. `reasons` holds each point's exclusion reason, ""
    on live points. `records` is the table as PointRecords, built when first
    read and kept in the instance dict, the one attribute a report sets.
    Reports compare and hash by identity.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def total(self) -> int:
        return len(self.reasons)

    @property
    def excluded_count(self) -> int:
        return self.total - self.reasons.count("")

    @property
    def spacelike_failures(self) -> int:
        return sum(reason.startswith(SPACELIKE) for reason in self.reasons)

    @property
    def live(self) -> np.ndarray:
        return np.array([not reason for reason in self.reasons], dtype=bool)

    @property
    def null_residual(self) -> np.ndarray:
        return _null_residual(self.table)

    @functools.cached_property
    def records(self) -> tuple:
        return tuple(
            PointRecord(tuple(xi), tuple(pos), *row[:4],
                        *(None if math.isnan(v) else v for v in row[4:]))
            if not reason else PointRecord(tuple(xi), excluded=True, reason=reason)
            for xi, pos, row, reason in zip(self.x.tolist(), self.values.tolist(),
                                            self.table.tolist(), self.reasons))


def _null_residual(table: np.ndarray) -> np.ndarray:
    """The verdict's residual column, the rule of `PointRecord.null_residual`."""
    return np.minimum(table[:, 1], table[:, 2])


_SUMMARY = ("min_eig_g", "null_residual", "null_residual_primary", "hvec_norm_sq",
            "legendrian_residual", "lemma_metric_residual",
            "lemma_secondform_residual", "eqH_residual")


def _summary(columns: np.ndarray) -> dict:
    """Max and median of each column (8, L) of `_SUMMARY`, a row each, over
    its non-NaN entries, None for a column with none, from one sort of the
    contiguous rows: NaN sorts last, and the median is the mean of the
    middle pair, as `np.median` takes it."""
    if not columns.shape[1]:
        return dict.fromkeys(_SUMMARY)
    counts = np.count_nonzero(~np.isnan(columns), axis=1)
    ordered = np.sort(columns, axis=1)
    rows = np.arange(len(_SUMMARY))
    top = ordered[rows, counts - 1].tolist()
    middle = ((ordered[rows, (counts - 1) // 2] + ordered[rows, counts // 2]) / 2).tolist()
    return {name: {"max": t, "median": m} if c else None
            for name, c, t, m in zip(_SUMMARY, counts.tolist(), top, middle)}


def _match_primary(pair: np.ndarray, stored: np.ndarray, sig):
    """Order each extracted null pair (P, 2, N) so index 0 matches the stored
    normal of its row; a row whose stored normal is NaN keeps its order."""
    a, b = pair[:, 0], pair[:, 1]
    # a null vector pairs to zero with itself: the match MINIMIZES |<v, stored>|
    swap = (np.abs(_pairing(sig.signs, a, stored))
            > np.abs(_pairing(sig.signs, b, stored)))[:, None]
    return np.where(swap, b, a), np.where(swap, a, b)


def _legendrian_from_context(ctx: LiftContext):
    """max |<d phi_i, normal>| of the source frame, of one point or per row."""
    fr = ctx.frame
    gnormal = fr.space.signature.signs * fr.normal
    return np.max(np.abs(fr.tangent @ gnormal[..., :, None]), axis=(-2, -1))


def _cross_check_rows(lift: LiftedImmersion, ctx: LiftContext, live,
                      frame: LorentzFrame, sff, hvec, nu):
    """Legendrian, metric, second-form and eqH residuals (P, 4) of the live
    rows, from the stacked context `ctx` of the same rows; NaN where not
    computed. Also the number of live rows whose context row failed or, on a
    product ambient, carries no s."""
    out = np.full((len(live), 4), np.nan)
    ok = live & ~_errored(ctx.errors)
    failures = int(np.count_nonzero(live & ~ok))
    if not ok.any():
        return out, failures
    fr, tau = ctx.frame, ctx.tau[ok]
    out[ok, 0] = _legendrian_from_context(ctx)[ok]
    closed_g, closed_h = _closed_forms(lift.ambient.kind, fr.metric[ok],
                                       fr.second_form[ok], tau)
    out[ok, 1] = np.max(np.abs(frame.metric[ok] - closed_g), axis=(-2, -1))
    out[ok, 2] = _second_form_gap(lift, sff[ok], nu[ok], closed_h)
    s = None
    if lift.ambient.kind not in SPACE_FORM_FAMILY:
        s = np.full(len(tau), np.nan) if ctx.s is None else ctx.s[ok]
        failures += int(np.count_nonzero(np.isnan(s)))
    out[ok, 3] = _mean_gap(lift, hvec[ok], nu[ok], ctx.raw[ok], tau, s)
    return out, failures


def _reason(err) -> str:
    """The exclusion reason of a point's error, "" for none."""
    if err is None:
        return ""
    kind = SPACELIKE if isinstance(err, SpacelikeViolationError) else type(err).__name__
    return f"{kind}: {err}"


def assemble_report(lift: LiftedImmersion,
                    resolution=None,
                    h: Optional[float] = None,
                    tol_marginal: Optional[float] = None) -> MarginalityReport:
    """Sweep the chart grid and classify the lift.

    Verdict: marginally trapped iff at every live sample the smaller of the
    two normalized null components of the mean curvature is at most
    tol_marginal and the induced metric stays positive definite. A majority
    of excluded points makes the run inconclusive. The lemma cross-checks
    run wherever the lift carries contexts; `cross_check_failures` counts
    the live points whose cross-checks could not run (their residuals stay
    None).
    """
    if tol_marginal is None:
        tol_marginal = DEFAULTS.tol_marginal
    step = h if h is not None else DEFAULTS.step_h
    chart = lift.chart if resolution is None else lift.chart.with_resolution(resolution)
    x = chart.grid(margin=4.0 * step)
    sig = lift.ambient.signature

    # One lift call for the whole grid's stencil: jet2_of puts the grid
    # points first, and only they get null normals and contexts.
    stencil = []

    def evaluate(points):
        stencil.append(lift.evaluate(points, len(x)))
        return stencil[0]

    frame = lorentz_frame_rows(lift, x, jet2_of(evaluate, x, h=step, chart=lift.chart))
    sff = second_form_rows(lift, frame)
    hvec = mean_curvature_rows(frame, sff)
    rows, errors = stencil[0], frame.errors
    live = ~_errored(errors)
    any_failed = not live.all()
    nu = np.full(hvec.shape, np.nan)
    if rows.nulls is not None:
        nu[live] = rows.nulls[live]
    primary, opposite = _match_primary(frame.null_pair, nu, sig)
    norm = 1.0 + _columns(np.maximum, np.abs(hvec))

    # The per-point table: one row per grid point, one column per value
    # field of PointRecord in its order, NaN where a value was not computed.
    table = np.full((len(x), 8), np.nan)
    table[:, 0] = frame.min_eig
    table[:, 1] = np.abs(_pairing(sig.signs, hvec, primary)) / norm
    table[:, 2] = np.abs(_pairing(sig.signs, hvec, opposite)) / norm
    table[:, 3] = _pairing(sig.signs, hvec, hvec)
    cross_check_failures = 0
    if rows.contexts is not None:
        table[:, 4:], cross_check_failures = _cross_check_rows(
            lift, rows.contexts, live, frame, sff, hvec, nu)
    table[~live] = np.nan

    residual = _null_residual(table)[live]
    ok = table[live]
    summary = _summary(np.stack(
        [ok[:, 0], residual, ok[:, 1], np.abs(ok[:, 3]), *ok[:, 4:].T]))

    if not len(ok) or len(x) - len(ok) > 0.5 * len(x):
        verdict = VERDICT_INCONCLUSIVE
    else:
        ok_metric = (not (any_failed and any(isinstance(e, SpacelikeViolationError)
                                             for e in errors))
                     and np.min(ok[:, 0]) > DEFAULTS.tol_pd)
        verdict = VERDICT_TRAPPED if (np.max(residual) <= tol_marginal and ok_metric) \
            else VERDICT_NOT

    return MarginalityReport(
        name=lift.name, ambient=lift.ambient.kind.value, verdict=verdict,
        summary=summary, x=x, values=rows.values[:len(x)], table=table,
        reasons=tuple(map(_reason, errors)) if any_failed else ("",) * len(errors),
        cross_check_failures=cross_check_failures)
