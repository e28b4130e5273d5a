"""Closed-form hypersurface immersions used by the catalog and the tests.

Each factory is a value-only array map from stacked chart points (P, n) to
container points (P, N). Its analytic jets come from one evaluation of the
same map on Taylor variables (`taylor.taylor_jet`), so the maps carry no
derivative formulas, and downstream finite differencing only ever happens
one level up (on lifts), never on chains of numerically differentiated maps.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .core import Chart
from .hypersurface import HypersurfaceImmersion, SpaceForm
from .taylor import taylor_jet

__all__ = ["sphere_chart", "torus", "round_sphere", "ellipsoid", "catenoid",
           "clifford_torus", "geodesic_sphere_s3", "geodesic_tube_h3", "equidistant_h3"]

TWO_PI = 2.0 * math.pi


def _immersion(space, fn, name, chart) -> HypersurfaceImmersion:
    return HypersurfaceImmersion(space, chart, fn,
                                 functools.partial(taylor_jet, fn), name=name)


# ------------------------------------------------------------ S^2 charts

def sphere_chart(x):
    """Angular chart of S^2: (x, y) -> (sin x cos y, sin y, cos x cos y), at
    one point (2,) or at stacked points (P, 2), arrays or Taylor numbers."""
    sx, cx = np.sin(x[..., 0]), np.cos(x[..., 0])
    sy, cy = np.sin(x[..., 1]), np.cos(x[..., 1])
    return np.stack([sx * cy, sy, cx * cy], axis=-1)


# ------------------------------------------------------------ E^3 shapes

def torus(rad_major: float = 2.0, rad_minor: float = 1.0,
          chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Revolution torus in E^3; the default chart stays on the outer band
    where both principal curvatures are bounded away from zero."""
    big, small = float(rad_major), float(rad_minor)

    def fn(x):
        u, v = x[:, 0], x[:, 1]
        w = big + small * np.cos(u)
        return np.stack([w * np.cos(v), w * np.sin(v), small * np.sin(u)], axis=-1)

    return _immersion(SpaceForm.euclidean(3), fn, "torus",
                      chart or Chart(2, [-1.2, 0.0], [1.2, TWO_PI], (33, 33)))


def round_sphere(radius: float = 1.0,
                 chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    rho = float(radius)
    # axis order chosen so the oriented frame rule picks the inward normal
    return _immersion(SpaceForm.euclidean(3), lambda x: rho * sphere_chart(x[:, ::-1]),
                      "sphere", chart or Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17)))


def ellipsoid(ax: float = 1.5, ay: float = 1.0, az: float = 0.8,
              chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Triaxial ellipsoid patch; the default chart keeps the second angle away
    from zero, i.e. away from the umbilic plane of the extreme axes."""
    m = np.array([float(ax), float(ay), float(az)])
    return _immersion(SpaceForm.euclidean(3), lambda x: m * sphere_chart(x), "ellipsoid",
                      chart or Chart(2, [-1.0, 0.25], [1.0, 0.95], (17, 17)))


def catenoid(chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    def fn(x):
        u, v = x[:, 0], x[:, 1]
        ch = np.cosh(u)
        return np.stack([ch * np.cos(v), ch * np.sin(v), u], axis=-1)

    return _immersion(SpaceForm.euclidean(3), fn, "catenoid",
                      chart or Chart(2, [-1.0, 0.0], [1.0, TWO_PI], (17, 33)))


# ------------------------------------------------------------ S^3 shapes

def clifford_torus(alpha: float = math.pi / 4,
                   chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Flat product torus in S^3; alpha = pi/4 is the minimal (Clifford) one."""
    ca, sa = math.cos(float(alpha)), math.sin(float(alpha))

    def fn(x):
        u, v = x[:, 0], x[:, 1]
        return np.stack([ca * np.cos(u), ca * np.sin(u), sa * np.cos(v), sa * np.sin(v)],
                        axis=-1)

    return _immersion(SpaceForm.sphere(3), fn, "clifford-torus",
                      chart or Chart(2, [0.0, 0.0], [TWO_PI, TWO_PI], (33, 33)))


def geodesic_sphere_s3(rho: float = math.pi / 6,
                       chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Umbilic distance sphere in S^3 (the 'small sphere')."""
    sr, cr = math.sin(float(rho)), math.cos(float(rho))

    def fn(x):
        return np.concatenate([sr * sphere_chart(x), np.full((len(x), 1), cr)], axis=-1)

    return _immersion(SpaceForm.sphere(3), fn, "small-sphere",
                      chart or Chart(2, [-1.0, -1.0], [1.0, 1.0], (17, 17)))


# ------------------------------------------------------------ H^3 shapes

def geodesic_tube_h3(radius: float = 0.8,
                     chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Equidistant tube around a geodesic of H^3; curvatures coth r and tanh r."""
    shb, chb = math.sinh(float(radius)), math.cosh(float(radius))

    def fn(x):
        u, v = x[:, 0], x[:, 1]
        return np.stack([shb * np.cos(u), shb * np.sin(u), chb * np.sinh(v),
                         chb * np.cosh(v)], axis=-1)

    return _immersion(SpaceForm.hyperbolic(3), fn, "hyperbolic-tube",
                      chart or Chart(2, [0.0, -1.0], [TWO_PI, 1.0], (33, 17)))


def equidistant_h3(dist: float = 0.8,
                   chart: Optional[Chart] = None) -> HypersurfaceImmersion:
    """Umbilic surface at distance `dist` from a totally geodesic plane of H^3.

    Its curvature tanh(dist) lies in (0, 1), which is exactly the regime where
    the hyperbolic product construction keeps one root.
    """
    shb, chb = math.sinh(float(dist)), math.cosh(float(dist))

    def fn(x):
        u, v = x[:, 0], x[:, 1]
        r = chb * np.sinh(u)
        return np.stack([r * np.cos(v), r * np.sin(v), np.full(len(x), shb),
                         chb * np.cosh(u)], axis=-1)

    return _immersion(SpaceForm.hyperbolic(3), fn, "equidistant",
                      chart or Chart(2, [0.3, 0.0], [1.3, TWO_PI], (17, 33)))
