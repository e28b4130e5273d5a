"""Independent numerical check of marginality.

Everything here is computed from a lift's raw evaluations: tangents and
second derivatives by central differences in the flat container, the ambient
realized as a hyperquadric or metric product of that container, covariant
derivatives as flat derivatives followed by orthogonal projection, and the
two null normal directions extracted from the induced Lorentzian plane
metric. The constructor's spectrum is consulted only for the optional lemma
cross-checks, never for the verdict.

Mean curvature convention: the averaged trace (1/n) g^ij h_ij. The verdict
is insensitive to the normalization, but the closed-form identities are not,
so the convention is recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DEFAULTS,
    GeometryError,
    Jet2,
    bilinear,
    jet2_of,
    sym_eigen,
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
    "lorentz_frame_at",
    "second_form_at",
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


class FrameError(GeometryError):
    pass


class SpacelikeViolationError(GeometryError):
    pass


@dataclass(frozen=True)
class LorentzFrame:
    """Tangent data, induced metric and the null normal pair at one point."""

    x: np.ndarray
    position: np.ndarray
    tangent: np.ndarray          # (n, N)
    metric: np.ndarray           # induced, positive definite
    metric_inv: np.ndarray
    min_eig: float
    normal_basis: np.ndarray     # (2, N), spans the normal plane in the ambient
    normal_form: np.ndarray      # 2x2 induced Lorentzian form on that plane
    null_pair: np.ndarray        # (2, N), both null, normalized
    null_product: float          # bilinear(null_pair[0], null_pair[1]) != 0
    jet: Jet2

    @property
    def n(self) -> int:
        return self.tangent.shape[0]


def _normalize_null(v: np.ndarray, plus: int) -> np.ndarray:
    scale = float(np.max(np.abs(v)))
    if abs(v[-1]) > 1e-6 * scale:
        return v / v[-1]
    spat = np.linalg.norm(v[:plus])
    return v / spat


def lorentz_frame_at(lift: LiftedImmersion, x,
                     jet: Optional[Jet2] = None) -> LorentzFrame:
    """Frame of the lift at a chart point, built from its evaluations only.

    The normal plane is the orthogonal complement, with respect to the flat
    container form, of the tangent space together with the active constraint
    gradients; it must carry a Lorentzian induced form, whose two null
    directions form the returned pair. `jet` is the lift's jet at x when the
    caller has it already (a row of a whole-grid stencil); otherwise it is
    taken from one stencil of lift evaluations at the default step.
    """
    x = np.asarray(x, dtype=float)
    ambient = lift.ambient
    sig = ambient.signature
    tol_pd = DEFAULTS.tol_pd

    if jet is None:
        jet = jet2_of(lift.evaluate, x[None], chart=lift.chart).row(0)
    value = jet.value
    res = ambient.constraint_residual(value)
    if res > DEFAULTS.tol_quadric * (1.0 + float(np.max(np.abs(value)))):
        raise FrameError(f"ambient constraint violated by {res:.3e} at chart {x}")

    signs = sig.signs
    tangent = jet.d1
    g = (tangent * signs) @ tangent.T
    try:
        gw, _ = sym_eigen(g)
    except GeometryError as exc:
        raise FrameError(f"induced metric evaluation failed at {x}: {exc}")
    if gw[0] <= tol_pd:
        raise SpacelikeViolationError(
            f"induced metric not positive definite at chart {x} "
            f"(min eigenvalue {gw[0]:.3e})")

    zrows = ambient.constraint_normals(value)
    rows = np.vstack([tangent, zrows]) * signs
    _, sv, vt = np.linalg.svd(rows)
    ncol = rows.shape[1]
    rank = rows.shape[0]
    if sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise FrameError(f"degenerate tangent/constraint system at chart {x}")
    basis = vt[rank:ncol]
    if basis.shape[0] != 2:
        raise FrameError(
            f"normal complement has dimension {basis.shape[0]}, expected 2")

    s2 = (basis * signs) @ basis.T
    w2, v2 = sym_eigen(s2)
    if not (w2[0] < -tol_pd < tol_pd < w2[1]):
        raise FrameError(
            f"normal plane metric is not Lorentzian at chart {x}: eigenvalues {w2}")
    e_time = (v2[:, 0] @ basis) / math.sqrt(-w2[0])
    e_space = (v2[:, 1] @ basis) / math.sqrt(w2[1])
    null_a = _normalize_null(e_space + e_time, sig.plus)
    null_b = _normalize_null(e_space - e_time, sig.plus)
    pair = np.stack([null_a, null_b])
    product = bilinear(sig, null_a, null_b)
    if abs(product) <= tol_pd:
        raise FrameError(f"null pair degenerate at chart {x}")

    return LorentzFrame(x=x, position=value, tangent=tangent, metric=g,
                        metric_inv=np.linalg.inv(g), min_eig=float(gw[0]),
                        normal_basis=basis, normal_form=s2, null_pair=pair,
                        null_product=float(product), jet=jet)


def second_form_at(lift: LiftedImmersion, x,
                   frame: Optional[LorentzFrame] = None) -> np.ndarray:
    """Vector-valued second fundamental form, shape (n, n, container_dim).

    Flat second derivatives projected onto the normal plane; the tangential
    and constraint components drop out because the plane is orthogonal to
    both with respect to the container form.
    """
    if frame is None:
        frame = lorentz_frame_at(lift, x)
    signs = lift.ambient.signature.signs
    basis = frame.normal_basis
    sform = frame.normal_form
    n = frame.n
    rhs = np.tensordot(frame.jet.d2, (basis * signs).T, axes=([2], [0]))
    coeff = np.linalg.solve(sform, rhs.reshape(n * n, 2).T).T
    return (coeff @ basis).reshape(n, n, basis.shape[1])


def mean_curvature_at(lift: LiftedImmersion, x,
                      frame: Optional[LorentzFrame] = None,
                      sff: Optional[np.ndarray] = None) -> np.ndarray:
    """Averaged-trace mean curvature vector (1/n) g^ij h_ij."""
    if frame is None:
        frame = lorentz_frame_at(lift, x)
    if sff is None:
        sff = second_form_at(lift, x, frame=frame)
    n = frame.n
    return np.tensordot(frame.metric_inv, sff, axes=([0, 1], [0, 1])) / n


# ------------------------------------------------------- closed-form oracles

def _closed_mean_component(kind: AmbientKind, raw_kappas, tau: float,
                           s: Optional[float]) -> float:
    n = len(raw_kappas)
    if kind in SPACE_FORM_FAMILY:
        return sum(k / (1.0 - tau * k) for k in raw_kappas) / n
    if s is None:
        raise FrameError("product-ambient identity needs the s parameter")
    if kind is AmbientKind.SPHERE_PRODUCT:
        return sum((k * s + 1.0) / (s - k) for k in raw_kappas) / n
    return sum((k * s - 1.0) / (s - k) for k in raw_kappas) / n


def _closed_metric(kind: AmbientKind, g, b, binvb, tau: float) -> np.ndarray:
    if kind in SPACE_FORM_FAMILY:
        return g - 2.0 * tau * b + tau ** 2 * binvb
    if kind is AmbientKind.SPHERE_PRODUCT:
        c, s = math.cos(tau), math.sin(tau)
        return c * c * g - 2.0 * s * c * b + s * s * binvb
    ch, sh = math.cosh(tau), math.sinh(tau)
    return ch * ch * g - 2.0 * sh * ch * b + sh * sh * binvb


def _closed_second_form(kind: AmbientKind, g, b, binvb, tau: float) -> np.ndarray:
    if kind in SPACE_FORM_FAMILY:
        return b - tau * binvb
    if kind is AmbientKind.SPHERE_PRODUCT:
        c, s = math.cos(tau), math.sin(tau)
        return (c * c - s * s) * b + s * c * (g - binvb)
    ch, sh = math.cosh(tau), math.sinh(tau)
    return (ch * ch + sh * sh) * b - sh * ch * (g + binvb)


def _context_matrices(ctx: LiftContext):
    g = ctx.frame.metric
    b = ctx.frame.second_form
    binvb = b @ np.linalg.solve(g, b)
    return g, b, binvb


def check_mean_curvature_identity(lift: LiftedImmersion, x,
                                  ctx: Optional[LiftContext] = None,
                                  frame: Optional[LorentzFrame] = None,
                                  hvec: Optional[np.ndarray] = None,
                                  nu: Optional[np.ndarray] = None) -> float:
    """|<H, nu> - closed form| with the construction's null normal.

    The closed form sums kappa/(1 - tau kappa) over the raw curvatures for
    the flat family and the corresponding rational expressions in
    s = cot(tau) or coth(tau) for the products.
    """
    ctx = ctx if ctx is not None else lift.context(x)
    if ctx is None:
        raise FrameError("lift carries no cross-check context")
    if hvec is None:
        hvec = mean_curvature_at(lift, x, frame=frame)
    if nu is None:
        nu = lift.null_normal(x)
    comp = bilinear(lift.ambient.signature, hvec, nu)
    closed = _closed_mean_component(lift.ambient.kind, ctx.spectrum.raw,
                                    ctx.tau, ctx.s)
    return abs(comp - closed)


def check_metric_identity(lift: LiftedImmersion, x,
                          ctx: Optional[LiftContext] = None,
                          frame: Optional[LorentzFrame] = None) -> float:
    """Max-norm gap between the measured induced metric and its closed form."""
    ctx = ctx if ctx is not None else lift.context(x)
    if ctx is None:
        raise FrameError("lift carries no cross-check context")
    if frame is None:
        frame = lorentz_frame_at(lift, x)
    g, b, binvb = _context_matrices(ctx)
    closed = _closed_metric(lift.ambient.kind, g, b, binvb, ctx.tau)
    return float(np.max(np.abs(frame.metric - closed)))


def check_second_form_identity(lift: LiftedImmersion, x,
                               ctx: Optional[LiftContext] = None,
                               frame: Optional[LorentzFrame] = None,
                               sff: Optional[np.ndarray] = None,
                               nu: Optional[np.ndarray] = None) -> float:
    """Max-norm gap between <h(.,.), nu> and its closed form."""
    ctx = ctx if ctx is not None else lift.context(x)
    if ctx is None:
        raise FrameError("lift carries no cross-check context")
    if frame is None:
        frame = lorentz_frame_at(lift, x)
    if sff is None:
        sff = second_form_at(lift, x, frame=frame)
    signs = lift.ambient.signature.signs
    if nu is None:
        nu = lift.null_normal(x)
    measured = sff @ (signs * nu)
    g, b, binvb = _context_matrices(ctx)
    closed = _closed_second_form(lift.ambient.kind, g, b, binvb, ctx.tau)
    return float(np.max(np.abs(measured - closed)))


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


@dataclass(frozen=True)
class MarginalityReport:
    name: str
    ambient: str
    records: tuple
    verdict: str
    excluded_count: int
    spacelike_failures: int
    total: int
    summary: dict
    convention: str = CONVENTION_NOTE

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_TRAPPED


def _stat(values):
    vals = [v for v in values if v is not None and not math.isnan(v)]
    if not vals:
        return None
    return {"max": max(vals), "median": float(np.median(vals))}


def _match_primary(frame: LorentzFrame, stored: Optional[np.ndarray], sig):
    """Order the extracted null pair so index 0 matches the stored normal."""
    a, b = frame.null_pair
    if stored is None:
        return a, b
    stored = np.asarray(stored, dtype=float)
    sa = abs(bilinear(sig, a, stored))
    sb = abs(bilinear(sig, b, stored))
    # a null vector pairs to zero with itself: the match MINIMIZES |<v, stored>|
    if sa <= sb:
        return a, b
    return b, a


def _legendrian_from_context(ctx: LiftContext) -> float:
    fr = ctx.frame
    signs = fr.space.signature.signs
    return float(np.max(np.abs(fr.tangent @ (signs * fr.normal))))


def assemble_report(lift: LiftedImmersion,
                    resolution=None,
                    h: Optional[float] = None,
                    tol_marginal: Optional[float] = None,
                    cross_checks: bool = True) -> MarginalityReport:
    """Sweep the chart grid and classify the lift.

    Verdict: marginally trapped iff at every usable sample the smaller of the
    two normalized null components of the mean curvature is at most
    tol_marginal and the induced metric stays positive definite. A majority
    of excluded points makes the run inconclusive.
    """
    if tol_marginal is None:
        tol_marginal = DEFAULTS.tol_marginal
    step = h if h is not None else DEFAULTS.step_h
    chart = lift.chart if resolution is None else lift.chart.with_resolution(resolution)
    points = chart.grid(margin=4.0 * step)
    sig = lift.ambient.signature

    # One stencil for the whole grid: jet2_of evaluates the lift once, the
    # grid points first, so the null normals and cross-check contexts below
    # come from the same rows as the stencil centres.
    kept = chart.usable(points)
    evaluations = []

    def evaluate(rows):
        evaluations.append(lift.evaluate(rows))
        return evaluations[-1]

    if kept:
        jets = jet2_of(evaluate, points[kept], h=step, chart=lift.chart)
    slot = {i: j for j, i in enumerate(kept)}

    records = []
    spacelike_failures = 0
    for i, x in enumerate(points):
        if i not in slot:
            records.append(PointRecord(x=tuple(x), excluded=True,
                                       reason="chart exclusion"))
            continue
        j = slot[i]
        try:
            frame = lorentz_frame_at(lift, x, jet=jets.row(j))
            sff = second_form_at(lift, x, frame=frame)
            hvec = mean_curvature_at(lift, x, frame=frame, sff=sff)
            stored = evaluations[0].null_normal(j)
            primary, opposite = _match_primary(frame, stored, sig)
            norm = 1.0 + float(np.max(np.abs(hvec)))
            p = sig.plus
            ghvec = hvec.copy()
            ghvec[p:] = -ghvec[p:]
            res_p = abs(float(ghvec @ primary)) / norm
            res_o = abs(float(ghvec @ opposite)) / norm
            hsq = float(ghvec @ hvec)

            leg = lmet = lsec = leqh = None
            if cross_checks and lift.context_fn is not None:
                try:
                    ctx = evaluations[0].context(j)
                    leg = _legendrian_from_context(ctx)
                    lmet = check_metric_identity(lift, x, ctx=ctx, frame=frame)
                    lsec = check_second_form_identity(lift, x, ctx=ctx,
                                                      frame=frame, sff=sff,
                                                      nu=stored)
                    leqh = check_mean_curvature_identity(lift, x, ctx=ctx,
                                                         frame=frame,
                                                         hvec=hvec, nu=stored)
                except GeometryError:
                    pass
            records.append(PointRecord(
                x=tuple(x), position=tuple(frame.position),
                min_eig_g=frame.min_eig,
                null_residual_primary=res_p, null_residual_opposite=res_o,
                hvec_norm_sq=hsq, legendrian_residual=leg,
                lemma_metric_residual=lmet, lemma_secondform_residual=lsec,
                eqH_residual=leqh))
        except SpacelikeViolationError as exc:
            spacelike_failures += 1
            records.append(PointRecord(x=tuple(x), excluded=True,
                                       reason=f"spacelike violation: {exc}"))
        except GeometryError as exc:
            records.append(PointRecord(x=tuple(x), excluded=True,
                                       reason=f"{type(exc).__name__}: {exc}"))

    usable = [r for r in records if not r.excluded]
    excluded_count = len(records) - len(usable)
    summary = {
        "min_eig_g": _stat([r.min_eig_g for r in usable]),
        "null_residual": _stat(
            [min(r.null_residual_primary, r.null_residual_opposite) for r in usable]),
        "null_residual_primary": _stat([r.null_residual_primary for r in usable]),
        "hvec_norm_sq": _stat([abs(r.hvec_norm_sq) for r in usable]),
        "legendrian_residual": _stat([r.legendrian_residual for r in usable]),
        "lemma_metric_residual": _stat([r.lemma_metric_residual for r in usable]),
        "lemma_secondform_residual": _stat(
            [r.lemma_secondform_residual for r in usable]),
        "eqH_residual": _stat([r.eqH_residual for r in usable]),
    }

    if not usable or excluded_count > 0.5 * len(records):
        verdict = VERDICT_INCONCLUSIVE
    else:
        worst = max(min(r.null_residual_primary, r.null_residual_opposite)
                    for r in usable)
        ok_metric = (spacelike_failures == 0
                     and min(r.min_eig_g for r in usable) > DEFAULTS.tol_pd)
        verdict = VERDICT_TRAPPED if (worst <= tol_marginal and ok_metric) \
            else VERDICT_NOT

    return MarginalityReport(
        name=lift.name, ambient=lift.ambient.kind.value, records=tuple(records),
        verdict=verdict, excluded_count=excluded_count,
        spacelike_failures=spacelike_failures, total=len(records),
        summary=summary)
