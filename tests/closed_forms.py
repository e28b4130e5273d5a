"""Closed-form roots of two-curvature spectra, the tests' oracles.

They are written from the formulas alone, without the library, so that a
test comparing them with the root solver compares two independent routes.
"""

import math

# |k1 + k2| at or below this counts as a minimal surface, as in the library
MINIMAL = 1e-7


def height_ratio(k1: float, k2: float) -> float:
    """Surface height of the flat-family lift: mean over Gauss curvature."""
    return 0.5 * (1.0 / k1 + 1.0 / k2)


def sphere_product_closed_roots(k1: float, k2: float):
    """Two-curvature closed form for the sphere product: a +- sqrt(a^2+1)."""
    if abs(k1 + k2) <= MINIMAL:
        raise ValueError("closed form needs a non-minimal surface")
    a = (k1 * k2 - 1.0) / (k1 + k2)
    d = math.sqrt(a * a + 1.0)
    return a - d, a + d


def hyperbolic_product_closed_roots(k1: float, k2: float):
    """Closed form for the hyperbolic product; only |s| > 1 roots survive."""
    if abs(k1 + k2) <= MINIMAL:
        raise ValueError("closed form needs a non-minimal surface")
    a = (k1 * k2 + 1.0) / (k1 + k2)
    if a * a <= 1.0:
        return ()
    d = math.sqrt(a * a - 1.0)
    return tuple(s for s in (a - d, a + d) if abs(s) > 1.0)
