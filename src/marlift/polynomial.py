"""Height polynomials of curvature spectra and their roots.

A normal-shift lift moves each point of a hypersurface along its normal by a
height, a root of a polynomial built from the point's principal curvatures
kappa_i with multiplicities m_i:

  * flat family (Minkowski, de Sitter, anti de Sitter):
        P(t) = sum_i m_i prod_{j != i} (r_j - t),  r_i = 1/kappa_i,
    one root per consecutive pair of curvature radii;
  * sphere x line:
        P(s) = sum_i m_i (kappa_i s + 1) prod_{j != i} (s - kappa_j);
  * hyperbolic x line:
        P(s) = sum_i m_i (kappa_i s - 1) prod_{j != i} (s - kappa_j),
    roots kept only when |s| > 1.

Every root has a bracket with a sign change of P: between neighbouring
breakpoints (curvature radii for the flat family, curvatures for the
products) whose values differ in sign, or, for the products, from an end
breakpoint out to the Cauchy bound 1 + max_k |c_k / c_top|, past which P has
the sign of its end behaviour. Breakpoint values come from their exact
factored forms, so the brackets never rely on cancellation-prone expanded
coefficients. One iteration solves every bracket: Newton from the midpoint,
bisecting when a step leaves the bracket or fails to halve, until |P(t)| is
within the round-off of evaluating P at t, 4 (deg + 1) eps sum |c_k| |t|^k;
the Newton step from that t, if it stays in the bracket, is the root.

Every stage runs on rows, one spectrum per row: a row that fails records its
error and the rows beside it carry on. `curvature_polynomial`, `solve_roots`
and `roots_at` evaluate one row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DEFAULTS, DimensionMismatchError, GeometryError, _columns, _errored, _fail
from .hypersurface import (
    HypersurfaceImmersion,
    ShapeSpectrum,
    frame_rows,
    spectrum_rows,
)

__all__ = [
    "AmbientKind",
    "SPACE_FORM_FAMILY",
    "PRODUCT_FAMILY",
    "CurvaturePolynomial",
    "Root",
    "curvature_polynomial",
    "solve_roots",
    "roots_at",
    "arccot",
    "arccoth",
    "ConstructionError",
    "VanishingCurvatureError",
    "UnsupportedAmbientError",
    "BracketingError",
    "FilteredRootError",
    "PatternChangeError",
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


class AmbientKind(enum.Enum):
    MINKOWSKI = "minkowski"
    DE_SITTER = "desitter"
    ANTI_DE_SITTER = "antidesitter"
    SPHERE_PRODUCT = "sphere-product"
    HYPERBOLIC_PRODUCT = "hyperbolic-product"


SPACE_FORM_FAMILY = (AmbientKind.MINKOWSKI, AmbientKind.DE_SITTER,
                     AmbientKind.ANTI_DE_SITTER)
PRODUCT_FAMILY = (AmbientKind.SPHERE_PRODUCT, AmbientKind.HYPERBOLIC_PRODUCT)


# ----------------------------------------------------- curvature polynomial

def arccot(s):
    """Inverse cotangent on the branch (0, pi), continuous across s = 0."""
    return 0.5 * math.pi - np.arctan(s)


def arccoth(s):
    """Inverse hyperbolic cotangent; every entry needs |s| > 1."""
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) <= 1.0):
        raise FilteredRootError(f"arccoth needs |s| > 1, got {s}")
    return 0.5 * np.log((s + 1.0) / (s - 1.0))


def _polyval(coeffs, t):
    """Horner evaluation; ascending coefficients along the first axis, so
    that on rows each coefficient is one contiguous column."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * t + coeffs[k]
    return acc


def _polyder(slope, t):
    """Horner evaluation of P' from its ascending coefficients k c_k, k >= 1."""
    acc = 0.0
    for c in reversed(slope):
        acc = acc * t + c
    return acc


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
        return _polyval(np.asarray(self.coeffs), t)


def _times_linear(a: np.ndarray, c0, c1) -> np.ndarray:
    """Ascending coefficients (k, R), a column per row, times (c0 + c1 t)."""
    out = np.empty((a.shape[0] + 1, a.shape[1]))
    out[0] = a[0] * c0
    out[1:-1] = a[:-1] * c1 + a[1:] * c0
    out[-1] = a[-1] * c1
    return out


def _expand(kind: AmbientKind, kappas: np.ndarray, mults: tuple) -> np.ndarray:
    """Ascending coefficients (p + 1, R) of the height polynomial, a column
    per row of ascending curvatures `kappas` (R, p)."""
    count, p = kappas.shape
    total = 0.0
    for i in range(p):
        m = float(mults[i])
        if kind in SPACE_FORM_FAMILY:
            term = np.full((1, count), m)
            for j in range(p):
                if j != i:
                    term = _times_linear(term, 1.0 / kappas[:, j], -1.0)
        else:
            sign = 1.0 if kind is AmbientKind.SPHERE_PRODUCT else -1.0
            term = np.stack([np.full(count, m * sign), m * kappas[:, i]])
            for j in range(p):
                if j != i:
                    term = _times_linear(term, -kappas[:, j], 1.0)
        total = total + term
    return total


def _ascending(a: np.ndarray) -> np.ndarray:
    """The rows of `a` (R, p) in ascending order, by odd-even transposition
    of its columns. np.minimum and np.maximum move values without rounding
    them, and make no per-row call as a sort along a short axis does."""
    cols = list(a.T)
    for r in range(len(cols)):
        for i in range(r % 2, len(cols) - 1, 2):
            cols[i], cols[i + 1] = (np.minimum(cols[i], cols[i + 1]),
                                    np.maximum(cols[i], cols[i + 1]))
    return np.stack(cols, axis=1)


def _polynomial_rows(kind: AmbientKind, kappas: np.ndarray, mults: tuple):
    """Height polynomials of spectra sharing multiplicities `mults`, with
    curvatures `kappas` (R, p) ascending per row.

    Returns the ascending coefficients (p + 1, R), a column per row; per
    row the breakpoints and the polynomial's values there, the trace, the
    minimal flag and the error; and `brackets` (4, R, p + 1): a, b, sign_a
    and sign_b of each row's slots, in ascending order of a, the outward
    bracket below the curvatures, one per consecutive breakpoint pair, the
    outward bracket above; NaN marks an empty slot.
    """
    count, p = kappas.shape
    flat = kind in SPACE_FORM_FAMILY
    if not flat and kind not in PRODUCT_FAMILY:
        raise UnsupportedAmbientError(f"unknown ambient kind {kind}")
    errors = [None] * count
    trace = mults[0] * kappas[:, 0]
    for i in range(1, p):
        trace = trace + mults[i] * kappas[:, i]
    minimal = np.abs(trace) <= DEFAULTS.tol_minimal
    brackets = np.full((4, count, p + 1), np.nan)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        coeffs = _expand(kind, kappas, mults)
        if flat:
            _fail(errors, _columns(np.logical_or, np.abs(kappas) <= DEFAULTS.tol_zero),
                  lambda i: VanishingCurvatureError(
                      "flat-family construction needs nonvanishing curvatures, "
                      f"got {[float(k) for k in kappas[i]]}"))
            radii = 1.0 / kappas
            if len(set(mults)) == 1:
                # equal weights need not follow the radii to their places
                bps = _ascending(radii)
                weight = np.full(p, float(mults[0]))
            else:
                order = np.argsort(radii, axis=1, kind="stable")
                bps = np.take_along_axis(radii, order, axis=1)
                weight = np.asarray(mults, dtype=float)[order]
        else:
            bps = kappas
            unit = 1.0 if kind is AmbientKind.SPHERE_PRODUCT else -1.0
            weight = np.asarray(mults) * (kappas ** 2 + unit)
        # P at breakpoint i: weight_i times the product of its gaps, which
        # the products take the other way round
        bp_vals = np.empty((count, p))
        for i in range(p):
            prod = weight[..., i]
            for j in range(p):
                if j != i:
                    gap = bps[:, j] - bps[:, i]
                    prod = prod * (gap if flat else -gap)
            bp_vals[:, i] = prod
        signs = np.sign(bp_vals)
        inner = signs[:, :-1] * signs[:, 1:] < 0.0
        for slots, column in zip(brackets[:, :, 1:p], (bps[:, :-1], bps[:, 1:],
                                                       signs[:, :-1], signs[:, 1:])):
            np.copyto(slots, column, where=inner)
        if flat:
            _fail(errors, ~_columns(np.logical_and, inner), lambda i: BracketingError(
                "breakpoint signs fail to alternate: values "
                f"{[float(v) for v in bp_vals[i]]}"))
            return coeffs, bps, bp_vals, brackets, trace, minimal, errors

        # Outward brackets end at the Cauchy bound, past which P has the
        # sign of its end behaviour: sign(trace) at +inf, times (-1)^p at -inf
        bound = 1.0 + _columns(np.maximum, np.abs(coeffs[:-1] / coeffs[-1]).T)
        sign_pos = np.copysign(1.0, trace)
        for slot, end, far, sign_far in ((p, p - 1, bound, sign_pos),
                                         (0, 0, -bound, sign_pos * (-1.0) ** p)):
            rows = ~minimal & (signs[:, end] * sign_far < 0.0)
            pair = ((bps[:, end], far, signs[:, end], sign_far) if slot
                    else (far, bps[:, end], sign_far, signs[:, end]))
            for slots, column in zip(brackets[:, :, slot], pair):
                np.copyto(slots, column, where=rows)
    return coeffs, bps, bp_vals, brackets, trace, minimal, errors


def curvature_polynomial(spectrum: ShapeSpectrum | Sequence[float],
                         ambient_kind: AmbientKind,
                         mults: Optional[Sequence[int]] = None) -> CurvaturePolynomial:
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
    pairs = sorted(zip(kappas, ms))
    kappas, ms = tuple(k for k, _ in pairs), tuple(m for _, m in pairs)
    coeffs, bps, values, brackets, trace, minimal, errors = _polynomial_rows(
        ambient_kind, np.array([kappas]), ms)
    if errors[0] is not None:
        raise errors[0]
    return CurvaturePolynomial(
        ambient_kind, kappas, ms, tuple(coeffs[:, 0].tolist()), tuple(bps[0].tolist()),
        tuple(values[0].tolist()),
        tuple(tuple(br) for br in brackets[:, 0].T.tolist() if not math.isnan(br[0])),
        float(trace[0]), bool(minimal[0]))


# --------------------------------------------------------------- root solve

@dataclass(frozen=True)
class Root:
    value: float
    bracket: tuple
    degenerate: bool


# Rounds of the root iteration before a row counts as failed; bisection
# alone reaches adjacent doubles in well under this many.
_ROUNDS = 200


def _newton_rows(coeffs, a, b, sa):
    """One root per bracket row (a, b), P of sign `sa` at a and ascending
    coefficients `coeffs` (deg + 1, R), a column per row: Newton from the
    midpoint, bisecting when a step leaves the bracket or is not at most
    half the previous one, the bracket shrunk to the sign change after every
    iterate. A row stops once |P(t)| is within the round-off of evaluating P
    at t, and takes that iterate's Newton step if it stays in the bracket.
    Returns the roots and the rows still running after _ROUNDS."""
    a, b = a.copy(), b.copy()
    sa_negative = sa < 0.0
    size = np.abs(coeffs)
    slope = [k * coeffs[k] for k in range(1, len(coeffs))]  # P' ascending
    slack = 4.0 * len(coeffs) * np.finfo(float).eps
    t = 0.5 * (a + b)
    last = b - a
    active = np.ones(len(t), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_ROUNDS):
            f = _polyval(coeffs, t)
            left = np.signbit(f) == sa_negative
            np.copyto(a, t, where=left)
            np.copyto(b, t, where=~left)
            step = f / _polyder(slope, t)
            newton = t - step
            inside = (a < newton) & (newton < b)
            done = active & (np.abs(f) <= slack * _polyval(size, np.abs(t)))
            np.copyto(t, newton, where=done & inside)
            active &= ~done
            if not active.any():
                break
            nxt = np.where(inside & (np.abs(step) <= 0.5 * last), newton, 0.5 * (a + b))
            last = np.abs(nxt - t)
            np.copyto(t, nxt, where=active)
    return t, active


class _Roots:
    """Solved roots, one row per polynomial: ascending values (NaN-padded),
    their brackets and degenerate flags, the root count and the error.

    `brackets` may be given as a function that makes them: only the one-row
    `roots` reads them, so they are made when first read."""

    __slots__ = ("values", "_brackets", "degenerate", "counts", "errors")

    def __init__(self, values, brackets, degenerate, counts, errors):
        self.values, self._brackets, self.degenerate = values, brackets, degenerate
        self.counts, self.errors = counts, errors

    @property
    def brackets(self):
        if callable(self._brackets):
            self._brackets = self._brackets()
        return self._brackets

    def roots(self, i: int) -> list:
        if self.errors[i] is not None:
            raise self.errors[i]
        return [Root(value=float(self.values[i, k]),
                     bracket=(float(self.brackets[i, k, 0]),
                              float(self.brackets[i, k, 1])),
                     degenerate=bool(self.degenerate[i, k]))
                for k in range(int(self.counts[i]))]


def _solve_rows(kind: AmbientKind, coeffs, brackets, breakpoints, errors) -> _Roots:
    """Roots of polynomial rows, coefficients (deg + 1, R) and bracket
    slots (4, R, B) as `_polynomial_rows` gives them.

    Hyperbolic-product roots with |s| <= 1 are dropped (they produce no
    spacelike lift); roots landing within tolerance of a breakpoint are
    flagged degenerate because the induced metric collapses there.
    """
    errors = list(errors)
    a0, b0, sa, sb = brackets
    count, slots = a0.shape
    present = ~_errored(errors)[:, None] & ~np.isnan(a0)
    invalid = present & ((sa == sb) | (sa == 0.0) | (sb == 0.0))
    invalid_rows = _columns(np.logical_or, invalid)
    for i in np.flatnonzero(invalid_rows):
        k = int(np.argmax(invalid[i]))
        errors[i] = BracketingError(
            f"invalid bracket ({float(a0[i, k])}, {float(b0[i, k])}) signs "
            f"({float(sa[i, k])}, {float(sb[i, k])})")
    present &= ~invalid_rows[:, None]
    at = np.flatnonzero(present)  # row by row, each row's slots ascending
    row = at // slots
    a, b = a0.take(at), b0.take(at)
    t, stuck = _newton_rows(coeffs[:, row], a, b, sa.take(at))
    keep = np.ones(len(t), dtype=bool)
    if stuck.any():
        for k in np.flatnonzero(stuck):
            if errors[row[k]] is None:
                errors[row[k]] = BracketingError(
                    f"no root found in the bracket ({float(a[k])}, {float(b[k])}) "
                    f"within {_ROUNDS} rounds")
        keep = ~np.isin(row, row[stuck])
    bps = breakpoints[row]
    degen = _columns(np.logical_or, np.abs(t[:, None] - bps)
                     <= DEFAULTS.tol_degenerate * (1.0 + np.abs(bps)))
    if kind is AmbientKind.HYPERBOLIC_PRODUCT:
        keep &= np.abs(t) > 1.0
    if not keep.all():
        at, row, t, degen = at[keep], row[keep], t[keep], degen[keep]
    # brackets are disjoint and ascend by slot, so each row's kept roots
    # ascend already: they move to the row's first columns in their order
    counts = np.bincount(row, minlength=count)
    col = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    values = np.full((count, slots), np.nan)
    values[row, col] = t
    flags = np.zeros((count, slots), dtype=bool)
    flags[row, col] = degen

    def kept():
        out = np.full((count, slots, 2), np.nan)
        out[row, col] = np.stack([a0.take(at), b0.take(at)], axis=-1)
        return out

    return _Roots(values, kept, flags, counts, errors)


def solve_roots(poly: CurvaturePolynomial) -> list:
    """One root per bracket, by the safeguarded Newton iteration.

    Hyperbolic-product roots with |s| <= 1 are dropped; roots within
    tolerance of a breakpoint are flagged degenerate. One row of the array
    root solve.
    """
    brackets = np.array(poly.brackets, dtype=float).reshape(-1, 4).T[:, None]
    roots = _solve_rows(poly.ambient_kind, np.array(poly.coeffs, dtype=float)[:, None],
                        brackets, np.array([poly.breakpoints], dtype=float), [None])
    return roots.roots(0)


def _root_rows(imm: HypersurfaceImmersion, kind: AmbientKind, x):
    """Frames, spectra and roots (`_Roots`) of stacked chart points, one
    polynomial batch per multiplicity pattern present."""
    frames = frame_rows(imm, x)
    spectra = spectrum_rows(frames.metric, frames.second_form, errors=frames.errors)
    count, n = spectra.raw.shape
    errors = list(spectra.errors)
    values = np.full((count, n + 1), np.nan)
    degenerate = np.zeros((count, n + 1), dtype=bool)
    counts = np.zeros(count, dtype=int)
    parts = []
    for code, mults in spectra.patterns.items():
        rows = spectra.code == code
        # one pattern on every row, as is usual, takes its rows as a slice
        rows = slice(None) if rows.all() else np.flatnonzero(rows)
        p = len(mults)
        coeffs, bps, _, brackets_p, _, _, errors_p = _polynomial_rows(
            kind, spectra.kappas[rows, :p], mults)
        roots = _solve_rows(kind, coeffs, brackets_p, bps, errors_p)
        values[rows, :p + 1] = roots.values
        degenerate[rows, :p + 1] = roots.degenerate
        counts[rows] = roots.counts
        at = np.arange(count)[rows]
        for j in np.flatnonzero(_errored(roots.errors)):
            errors[at[j]] = roots.errors[j]
        parts.append((rows, p, roots))

    def brackets():
        out = np.full((count, n + 1, 2), np.nan)
        for rows, p, roots in parts:
            out[rows, :p + 1] = roots.brackets
        return out

    return frames, spectra, _Roots(values, brackets, degenerate, counts, errors)


def roots_at(imm: HypersurfaceImmersion, kind: AmbientKind, x):
    """Frame, spectrum and solved roots of one chart point."""
    frames, spectra, roots = _root_rows(imm, kind, np.asarray(x, dtype=float)[None])
    solved = roots.roots(0)
    return frames.row(0), spectra.row(0), solved
