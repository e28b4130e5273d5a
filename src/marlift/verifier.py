"""Independent numerical check of marginality.

Everything here is computed from a lift's raw evaluations: tangents and
second derivatives by central differences in the flat container, the ambient
realized as a hyperquadric or metric product of that container, covariant
derivatives as flat derivatives followed by orthogonal projection, and the
two null normal directions extracted from the induced Lorentzian plane
metric: one batched QR gives the plane, and its 2x2 algebra is in closed
form. The constructor's spectrum is consulted only for the optional lemma
cross-checks, never for the verdict.

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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import (
    DEFAULTS,
    GeometryError,
    Jet2,
    _errored,
    _fail,
    bilinear_rows,
    jet2_of,
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


@dataclass(frozen=True)
class LorentzFrame:
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
        arrays = (getattr(self, f.name) for f in fields(self)[:-2])
        return LorentzFrame(*(a[i] for a in arrays), jet=self.jet.row(i))


def _normalize_null(v: np.ndarray, plus: int) -> np.ndarray:
    """Scale null vectors (..., N) to time coordinate 1, or to a unit spatial
    part where the time coordinate is negligible."""
    last = v[..., -1]
    big = np.abs(last) > 1e-6 * np.max(np.abs(v), axis=-1)
    return v / np.where(big, last, np.linalg.norm(v[..., :plus], axis=-1))[..., None]


def _normal_plane(rows: np.ndarray):
    """Euclidean complement of stacked rows (P, k, N) with N - k = 2, from one
    Householder QR of their transposes: the last two columns of Q as an
    orthonormal basis (P, 2, N), and |R_ii| (P, k), whose smallest vanishes
    when the rows are dependent."""
    q, r = np.linalg.qr(np.swapaxes(rows, -1, -2), mode="complete")
    return np.swapaxes(q[..., -2:], -1, -2), np.abs(np.diagonal(r, axis1=-2, axis2=-1))


def _plane_pair(basis: np.ndarray, sig):
    """The container form (P, 2, 2) on the planes of an orthonormal `basis`
    (P, 2, N), its eigenvalues (P, 2) in ascending order, and, where it is
    Lorentzian, its two null directions (P, 2, N): normalized, the first the
    larger in the coordinate where the two differ most, so that neither
    depends on the basis inside the plane. All in closed form."""
    form = (basis * sig.signs) @ np.swapaxes(basis, -1, -2)
    a, b, c = form[:, 0, 0], 0.5 * (form[:, 0, 1] + form[:, 1, 0]), form[:, 1, 1]
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    w = np.stack([mean - radius, mean + radius], axis=-1)
    # (cos t, sin t) is the eigenvector of w[:, 1], (-sin t, cos t) that of w[:, 0]
    t = 0.5 * np.arctan2(2.0 * b, a - c)
    space = np.stack([np.cos(t), np.sin(t)], axis=-1) / np.sqrt(w[:, 1:])
    time = np.stack([-np.sin(t), np.cos(t)], axis=-1) / np.sqrt(-w[:, :1])
    pair = _normalize_null(np.stack([space + time, space - time], axis=1) @ basis,
                           sig.plus)
    diff = pair[:, 0] - pair[:, 1]
    most = np.take_along_axis(diff, np.argmax(np.abs(diff), axis=-1)[:, None], axis=-1)
    return form, w, np.where(most[:, :, None] < 0, pair[:, ::-1], pair)


def lorentz_frame_rows(lift: LiftedImmersion, x, jet: Jet2) -> LorentzFrame:
    """Frames of the lift at stacked chart points x (P, n), built from their
    stacked jet of lift evaluations only.

    The normal plane is the orthogonal complement, with respect to the flat
    container form, of the tangent space together with the active constraint
    gradients, taken from one QR call (`_normal_plane`); it must carry a
    Lorentzian induced form, whose two null directions, in closed form
    (`_plane_pair`), form the returned pair. Per point the checks run in
    order (the jet's error, the constraint, the induced metric's symmetry
    and positive definiteness, the dimension of the complement, which the
    shapes fix for every point, the rank of the tangent/constraint system,
    the normal form's signature, the null pair) and the first that fails is
    that point's error.
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
        _fail(errors, res > DEFAULTS.tol_quadric * (1.0 + np.max(np.abs(value), axis=-1)),
              lambda i: FrameError(
                  f"ambient constraint violated by {res[i]:.3e} at chart {x[i]}"))

        g = (tangent * signs) @ np.swapaxes(tangent, -1, -2)
        gt = np.swapaxes(g, -1, -2)
        # the symmetry check and symmetrization of `core.sym_eigen`
        scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
        _fail(errors, np.max(np.abs(g - gt), axis=(-2, -1)) > DEFAULTS.tol_sym * scale,
              lambda i: FrameError(f"induced metric evaluation failed at {x[i]}: "
                                   "input matrix is not symmetric to tolerance"))
        min_eig = np.linalg.eigvalsh(failed(1.0, 0.5 * (g + gt), _errored(errors)))[:, 0]
        _fail(errors, min_eig <= tol_pd, lambda i: SpacelikeViolationError(
            f"induced metric not positive definite at chart {x[i]} "
            f"(min eigenvalue {min_eig[i]:.3e})"))

        rows = np.concatenate([tangent, ambient.constraint_normals(value)], axis=-2) * signs
        dim = rows.shape[-1] - rows.shape[-2]
        if dim != 2:
            _fail(errors, np.ones(len(x), dtype=bool), lambda i: FrameError(
                f"normal complement has dimension {dim}, expected 2"))
        rows = failed(0.0, rows, _errored(errors))
        basis, pivots = _normal_plane(rows)
        _fail(errors, np.min(pivots, axis=-1) <= 1e-10 * np.maximum(
            1.0, np.max(np.linalg.norm(rows, axis=-1), axis=-1)),
              lambda i: FrameError(f"degenerate tangent/constraint system at chart {x[i]}"))

        s2, w2, pair = _plane_pair(basis, sig)
        _fail(errors, ~((w2[:, 0] < -tol_pd) & (tol_pd < w2[:, 1])),
              lambda i: FrameError(f"normal plane metric is not Lorentzian at "
                                   f"chart {x[i]}: eigenvalues {w2[i]}"))
        product = bilinear_rows(sig, pair[:, 0], pair[:, 1])
        _fail(errors, np.abs(product) <= tol_pd,
              lambda i: FrameError(f"null pair degenerate at chart {x[i]}"))
        dead = _errored(errors)
        g, min_eig, basis, s2, pair, product = (
            failed(np.nan, a, dead) for a in (g, min_eig, basis, s2, pair, product))
        return LorentzFrame(x, value, tangent, g, np.linalg.inv(g), min_eig, basis,
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
    rhs = d2.reshape(d2.shape[:-3] + (n * n, -1)) @ np.swapaxes(
        basis * lift.ambient.signature.signs, -1, -2)
    form = frame.normal_form
    det = form[..., 0, 0] * form[..., 1, 1] - form[..., 0, 1] * form[..., 1, 0]
    # rhs @ inv(form)^T, with the 2x2 inverse: its transpose is the form
    # reversed along both axes, off-diagonal signs flipped, over det
    inv_t = form[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return (rhs @ inv_t / det[..., None, None] @ basis).reshape(d2.shape)


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
    binvb = b @ np.linalg.solve(g, b)
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

@dataclass(frozen=True)
class PointRecord:
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


@dataclass(frozen=True, eq=False)
class MarginalityReport:
    """The verified lift as its per-point table, a row per grid point.

    `x` (P, n) holds the chart points and `values` (P, N) the lift's values
    there, NaN where the lift failed. `table` (P, 8) holds the value fields
    of `PointRecord` in their order, NaN where a value was not computed and
    on excluded points. `reasons` holds each point's exclusion reason, ""
    on live points. `records` is the table as PointRecords, built when first
    read.
    """

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
    """Max and median of each column (L, 8) of `_SUMMARY` over its non-NaN
    entries, None for a column with none, from one sort: NaN sorts last,
    and the median is the mean of the middle pair, as `np.median` takes it."""
    if not len(columns):
        return dict.fromkeys(_SUMMARY)
    counts = np.count_nonzero(~np.isnan(columns), axis=0)
    ordered = np.sort(columns, axis=0)
    cols = np.arange(len(_SUMMARY))
    top = ordered[counts - 1, cols].tolist()
    middle = np.mean(ordered[[(counts - 1) // 2, counts // 2], cols], axis=0).tolist()
    return {name: {"max": t, "median": m} if c else None
            for name, c, t, m in zip(_SUMMARY, counts.tolist(), top, middle)}


def _match_primary(pair: np.ndarray, stored: np.ndarray, sig):
    """Order each extracted null pair (P, 2, N) so index 0 matches the stored
    normal of its row; a row whose stored normal is NaN keeps its order."""
    a, b = pair[:, 0], pair[:, 1]
    # a null vector pairs to zero with itself: the match MINIMIZES |<v, stored>|
    swap = (np.abs(bilinear_rows(sig, a, stored))
            > np.abs(bilinear_rows(sig, b, stored)))[:, None]
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
    norm = 1.0 + np.max(np.abs(hvec), axis=-1)
    ghvec = (hvec * sig.signs)[:, None, :]

    # The per-point table: one row per grid point, one column per value
    # field of PointRecord in its order, NaN where a value was not computed.
    table = np.full((len(x), 8), np.nan)
    table[:, 0] = frame.min_eig
    table[:, 1] = np.abs(ghvec @ primary[:, :, None])[:, 0, 0] / norm
    table[:, 2] = np.abs(ghvec @ opposite[:, :, None])[:, 0, 0] / norm
    table[:, 3] = (ghvec @ hvec[:, :, None])[:, 0, 0]
    cross_check_failures = 0
    if rows.contexts is not None:
        table[:, 4:], cross_check_failures = _cross_check_rows(
            lift, rows.contexts, live, frame, sff, hvec, nu)
    table[~live] = np.nan

    residual = _null_residual(table)[live]
    ok = table[live]
    summary = _summary(np.column_stack(
        [ok[:, 0], residual, ok[:, 1], np.abs(ok[:, 3]), ok[:, 4:]]))

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
