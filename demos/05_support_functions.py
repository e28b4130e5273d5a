"""Support functions: two independent routes to the same trapped surface.

A convex surface is recovered from its support function f on the normal
sphere as f u + grad f. Its marginally trapped lift can be computed two ways:
directly from (f, grad f, laplacian f), or by reconstructing the surface and
running the full curvature pipeline. The two routes must agree.

The cautionary tale at the end: adding a first spherical harmonic to a
constant support function only translates the round front. The front stays
umbilic, every normal geodesic meets the center, and the lift collapses to
that focal point; no perturbation of this kind produces a genuine surface.
"""

import numpy as np

from marlift.catalog import catalog_lookup
from marlift.constructor import lift_palmer, support_route_lift
from marlift.verifier import assemble_report

# ---------------------------------------------------------------------------
# A quadric support function (the support of an ellipsoid with semiaxes
# 1.3, 1.0, 0.8), genuinely nonumbilic on the chart.
_, sf = catalog_lookup("palmer-sphere")
direct = lift_palmer(sf)
route = support_route_lift(sf)

pts = sf.chart.grid(margin=0.01)[::9]
gap = max(np.max(np.abs(direct(x) - route(x))) for x in pts)
print("max pointwise gap between the two routes:", f"{gap:.3e}")

rep = assemble_report(direct, resolution=(12, 12))
print("direct route verdict:", rep.verdict)
print("route via the curvature pipeline:",
      assemble_report(route, resolution=(12, 12)).verdict)

# ---------------------------------------------------------------------------
# The degenerate family: f = 1 + 0.1 u3.
_, offset = catalog_lookup("palmer-sphere",
                           {"preset": "offset", "c": 1.0, "eps": 0.1})
lift = lift_palmer(offset)
vals = np.array([lift(x) for x in offset.chart.grid(margin=0.01)[::9]])
print("\noffset support field: image spread over the chart =",
      f"{np.max(vals.max(axis=0) - vals.min(axis=0)):.2e}")
print("every point maps to the focal point", np.round(vals[0], 12))
print("verdict:",
      assemble_report(lift, resolution=(8, 8)).verdict,
      "(the induced metric degenerates identically)")
