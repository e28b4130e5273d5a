"""Closed-form hypersurface immersions used by the catalog and the tests.

Each factory returns a HypersurfaceImmersion with an analytic jet provider,
so downstream finite differencing only ever happens one level up (on lifts),
never on chains of numerically differentiated maps. The providers take
stacked chart points (P, n) and return stacked jets; the immersion's values
are the jets' values.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import Chart, Jet2, stacked
from .hypersurface import HypersurfaceImmersion, SpaceForm

__all__ = [
    "sphere_chart",
    "sphere_chart_jets",
    "torus",
    "round_sphere",
    "ellipsoid",
    "catenoid",
    "clifford_torus",
    "geodesic_sphere_s3",
    "geodesic_tube_h3",
    "equidistant_h3",
]

TWO_PI = 2.0 * math.pi


def _jet(*parts):
    """Stacked jet from the nested lists (value, d1, d2) of per-point
    coordinate arrays (P,): the point axis moves to the front."""
    return Jet2(*(np.ascontiguousarray(np.moveaxis(np.array(a, dtype=float), -1, 0))
                  for a in parts))


def _immersion(space, chart, jets, name) -> HypersurfaceImmersion:
    return HypersurfaceImmersion(space, chart, stacked(lambda x: jets(x).value),
                                 jets, name=name)


# ------------------------------------------------------------ S^2 charts

def sphere_chart(x):
    """Angular chart of S^2: (x, y) -> (sin x cos y, sin y, cos x cos y), at
    one point (2,) or at stacked points (P, 2)."""
    x = np.asarray(x, dtype=float)
    sx, cx = np.sin(x[..., 0]), np.cos(x[..., 0])
    sy, cy = np.sin(x[..., 1]), np.cos(x[..., 1])
    return np.stack([sx * cy, sy, cx * cy], axis=-1)


def sphere_chart_jets(x):
    """Stacked analytic jets of `sphere_chart` at points (P, 2)."""
    sx, cx = np.sin(x[:, 0]), np.cos(x[:, 0])
    sy, cy = np.sin(x[:, 1]), np.cos(x[:, 1])
    zero = np.zeros_like(sx)
    value = [sx * cy, sy, cx * cy]
    d1 = [[cx * cy, zero, -sx * cy],
          [-sx * sy, cy, -cx * sy]]
    d2 = [[[-sx * cy, zero, -cx * cy], [-cx * sy, zero, sx * sy]],
          [[-cx * sy, zero, sx * sy], [-sx * cy, -sy, -cx * cy]]]
    return _jet(value, d1, d2)


def _sphere_chart_swapped_jet(x):
    # axis order chosen so the oriented frame rule picks the inward normal
    base = sphere_chart_jets(x[:, ::-1])
    return Jet2(value=base.value, d1=base.d1[:, ::-1].copy(),
                d2=base.d2[:, ::-1, ::-1].copy())


# ------------------------------------------------------------ E^3 shapes

def torus(rad_major: float = 2.0, rad_minor: float = 1.0,
          chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Revolution torus in E^3; the default chart stays on the outer band
    where both principal curvatures are bounded away from zero."""
    if chart is None:
        chart = Chart(2, [-1.2, 0.0], [1.2, TWO_PI], (33, 33))
    big, small = float(rad_major), float(rad_minor)

    def jets(x):
        cu, su = np.cos(x[:, 0]), np.sin(x[:, 0])
        cv, sv = np.cos(x[:, 1]), np.sin(x[:, 1])
        zero = np.zeros_like(cu)
        w = big + small * cu
        value = [w * cv, w * sv, small * su]
        d1 = [[-small * su * cv, -small * su * sv, small * cu],
              [-w * sv, w * cv, zero]]
        d2 = [[[-small * cu * cv, -small * cu * sv, -small * su],
               [small * su * sv, -small * su * cv, zero]],
              [[small * su * sv, -small * su * cv, zero],
               [-w * cv, -w * sv, zero]]]
        return _jet(value, d1, d2)

    return _immersion(SpaceForm.euclidean(3), chart, jets, "torus")


def round_sphere(radius: float = 1.0,
                 chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    if chart is None:
        chart = Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17))
    rho = float(radius)

    def jets(x):
        base = _sphere_chart_swapped_jet(x)
        return Jet2(value=rho * base.value, d1=rho * base.d1, d2=rho * base.d2)

    return _immersion(SpaceForm.euclidean(3), chart, jets, "sphere")


def ellipsoid(ax: float = 1.5, ay: float = 1.0, az: float = 0.8,
              chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Triaxial ellipsoid patch; the default chart keeps the second angle away
    from zero, i.e. away from the umbilic plane of the extreme axes."""
    if chart is None:
        chart = Chart(2, [-1.0, 0.25], [1.0, 0.95], (17, 17))
    m = np.array([float(ax), float(ay), float(az)])

    def jets(x):
        base = sphere_chart_jets(x)
        return Jet2(value=m * base.value, d1=m * base.d1, d2=m * base.d2)

    return _immersion(SpaceForm.euclidean(3), chart, jets, "ellipsoid")


def catenoid(chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    if chart is None:
        chart = Chart(2, [-1.0, 0.0], [1.0, TWO_PI], (17, 33))

    def jets(x):
        ch, sh = np.cosh(x[:, 0]), np.sinh(x[:, 0])
        cv, sv = np.cos(x[:, 1]), np.sin(x[:, 1])
        zero, one = np.zeros_like(ch), np.ones_like(ch)
        value = [ch * cv, ch * sv, x[:, 0]]
        d1 = [[sh * cv, sh * sv, one], [-ch * sv, ch * cv, zero]]
        d2 = [[[ch * cv, ch * sv, zero], [-sh * sv, sh * cv, zero]],
              [[-sh * sv, sh * cv, zero], [-ch * cv, -ch * sv, zero]]]
        return _jet(value, d1, d2)

    return _immersion(SpaceForm.euclidean(3), chart, jets, "catenoid")


# ------------------------------------------------------------ S^3 shapes

def clifford_torus(alpha: float = math.pi / 4,
                   chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Flat product torus in S^3; alpha = pi/4 is the minimal (Clifford) one."""
    if chart is None:
        chart = Chart(2, [0.0, 0.0], [TWO_PI, TWO_PI], (33, 33))
    ca, sa = math.cos(float(alpha)), math.sin(float(alpha))

    def jets(x):
        cu, su = np.cos(x[:, 0]), np.sin(x[:, 0])
        cv, sv = np.cos(x[:, 1]), np.sin(x[:, 1])
        z = np.zeros_like(cu)
        value = [ca * cu, ca * su, sa * cv, sa * sv]
        d1 = [[-ca * su, ca * cu, z, z], [z, z, -sa * sv, sa * cv]]
        d2 = [[[-ca * cu, -ca * su, z, z], [z, z, z, z]],
              [[z, z, z, z], [z, z, -sa * cv, -sa * sv]]]
        return _jet(value, d1, d2)

    return _immersion(SpaceForm.sphere(3), chart, jets, "clifford-torus")


def geodesic_sphere_s3(rho: float = math.pi / 6,
                       chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Umbilic distance sphere in S^3 (the 'small sphere')."""
    if chart is None:
        chart = Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17))
    sr, cr = math.sin(float(rho)), math.cos(float(rho))

    def jets(x):
        base = sphere_chart_jets(x)
        count = len(x)
        value = np.concatenate([sr * base.value, np.full((count, 1), cr)], axis=1)
        d1 = np.concatenate([sr * base.d1, np.zeros((count, 2, 1))], axis=2)
        d2 = np.concatenate([sr * base.d2, np.zeros((count, 2, 2, 1))], axis=3)
        return Jet2(value=value, d1=d1, d2=d2)

    return _immersion(SpaceForm.sphere(3), chart, jets, "small-sphere")


# ------------------------------------------------------------ H^3 shapes

def geodesic_tube_h3(radius: float = 0.8,
                     chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Equidistant tube around a geodesic of H^3; curvatures coth r and tanh r."""
    if chart is None:
        chart = Chart(2, [0.0, -1.0], [TWO_PI, 1.0], (33, 17))
    shb, chb = math.sinh(float(radius)), math.cosh(float(radius))

    def jets(x):
        cu, su = np.cos(x[:, 0]), np.sin(x[:, 0])
        chv, shv = np.cosh(x[:, 1]), np.sinh(x[:, 1])
        z = np.zeros_like(cu)
        value = [shb * cu, shb * su, chb * shv, chb * chv]
        d1 = [[-shb * su, shb * cu, z, z], [z, z, chb * chv, chb * shv]]
        d2 = [[[-shb * cu, -shb * su, z, z], [z, z, z, z]],
              [[z, z, z, z], [z, z, chb * shv, chb * chv]]]
        return _jet(value, d1, d2)

    return _immersion(SpaceForm.hyperbolic(3), chart, jets, "hyperbolic-tube")


def equidistant_h3(dist: float = 0.8,
                   chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Umbilic surface at distance `dist` from a totally geodesic plane of H^3.

    Its curvature tanh(dist) lies in (0, 1), which is exactly the regime where
    the hyperbolic product construction keeps one root.
    """
    if chart is None:
        chart = Chart(2, [0.3, 0.0], [1.3, TWO_PI], (17, 33))
    shb, chb = math.sinh(float(dist)), math.cosh(float(dist))

    def jets(x):
        shu, chu = np.sinh(x[:, 0]), np.cosh(x[:, 0])
        cv, sv = np.cos(x[:, 1]), np.sin(x[:, 1])
        z = np.zeros_like(shu)
        value = [chb * shu * cv, chb * shu * sv, z + shb, chb * chu]
        d1 = [[chb * chu * cv, chb * chu * sv, z, chb * shu],
              [-chb * shu * sv, chb * shu * cv, z, z]]
        d2 = [[[chb * shu * cv, chb * shu * sv, z, chb * chu],
               [-chb * chu * sv, chb * chu * cv, z, z]],
              [[-chb * chu * sv, chb * chu * cv, z, z],
               [-chb * shu * cv, -chb * shu * sv, z, z]]]
        return _jet(value, d1, d2)

    return _immersion(SpaceForm.hyperbolic(3), chart, jets, "equidistant")
