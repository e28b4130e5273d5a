"""Lifts into the two Lorentzian products: sphere x line and hyperbolic x line.

Here the height enters through circular and hyperbolic angles. The root
parameter s is the cotangent (respectively hyperbolic cotangent) of the
height; for the hyperbolic product only roots with |s| > 1 produce spacelike
lifts, and how many survive is controlled by how many curvatures lie beyond
the unit band.
"""

import math

import numpy as np

from marlift import shapes
from marlift.constructor import (
    AmbientKind,
    arccoth,
    lift_sphere_product,
    product_lifts,
    roots_at,
)
from marlift.verifier import assemble_report

# ---------------------------------------------------------------------------
# The minimal Clifford torus: trace of the curvatures is zero, so exactly one
# root survives, s = 0, and the lift is the normal torus at equator height.
clifford = shapes.clifford_torus()
_, spectrum, roots = roots_at(clifford, AmbientKind.SPHERE_PRODUCT, [1.0, 2.0])
print("Clifford curvatures:", spectrum.kappas, " root s =", roots[0].value)

lift = lift_sphere_product(clifford)
print("height of the lift:", lift([1.0, 2.0])[-1], "=", math.pi / 2)
print("verdict:", assemble_report(lift, resolution=(12, 12)).verdict)

# A non-minimal product torus has two roots, hence two lifts.
for i, lft in enumerate(product_lifts(shapes.clifford_torus(1.0),
                                      AmbientKind.SPHERE_PRODUCT)):
    rep = assemble_report(lft, resolution=(10, 10))
    print(f"non-minimal torus, root {i}: height {lft([0.5, 0.5])[-1]:.4f}, "
          f"verdict {rep.verdict}")

# ---------------------------------------------------------------------------
# Hyperbolic product. Two curvatures give the roots a +- sqrt(a^2 - 1),
# a = (k1 k2 + 1)/(k1 + k2), and only |s| > 1 is kept: the synthetic
# spectrum (2, 3) keeps (7 + sqrt 24)/5, whose height is a quarter of log 6.
a = (2.0 * 3.0 + 1.0) / (2.0 + 3.0)
kept = a + math.sqrt(a * a - 1.0)
print("\nspectrum (2, 3): kept root", kept,
      " height", arccoth(kept), "= (1/4) log 6 =", 0.25 * math.log(6.0))

# An umbilic equidistant surface has curvature tanh(d) inside the unit band;
# its reciprocal root lies outside and produces one spacelike lift.
equi = shapes.equidistant_h3(0.8)
lifts = product_lifts(equi, AmbientKind.HYPERBOLIC_PRODUCT)
print("equidistant surface: kept roots:", len(lifts))
rep = assemble_report(lifts[0], resolution=(12, 12))
print("verdict:", rep.verdict,
      f"(null component {rep.summary['null_residual']['max']:.3e})")

# A geodesic tube has curvatures tanh(r) and coth(r): the root parameter would
# need to sit between them inside the unit band, so no lift survives.
tube = shapes.geodesic_tube_h3(0.8)
print("geodesic tube kept roots:",
      len(product_lifts(tube, AmbientKind.HYPERBOLIC_PRODUCT)))
