"""The catalog of published example families, re-verified numerically.

All four are graphs of a height field over a totally geodesic slice moved
along a constant null direction, so their second fundamental form is null and
marginality holds for free; the verifier confirms it from raw evaluations.
The two negative controls show what failure looks like.
"""

import numpy as np

from marlift.catalog import catalog_lookup
from marlift.hypersurface import HypersurfaceImmersion, SpaceForm, frame_rows
from marlift.verifier import assemble_report

for name, params in [("chen-l1", {"f": "x**2"}),
                     ("chen-l2", None),
                     ("chen-l3", {"f": "2+sin(x)"}),
                     ("chen-l4", None),
                     ("l1-perturbed", None),
                     ("spacelike-graph", None)]:
    entry, lift = catalog_lookup(name, params)
    report = assemble_report(lift, resolution=(16, 16))
    print(f"{name:<16} ambient={report.ambient:<18} verdict={report.verdict:<18}"
          f" worst residual={report.summary['null_residual']['max']:.3e}")

# ---------------------------------------------------------------------------
# The anti-de Sitter example has the constant null normal (-1, 0, 1, -1, 1).
# Removing the height along its spatial part projects the surface back into
# hyperbolic 3-space, where it is totally geodesic:
_, l4 = catalog_lookup("chen-l4")
nu = np.array([-1.0, 0.0, 1.0, -1.0])


def projection(x):
    psi = l4.evaluate(x, 0).values
    return psi[:, :4] - psi[:, 4:] * nu


proj = HypersurfaceImmersion(SpaceForm.hyperbolic(3), l4.chart, projection)
worst = np.max(np.abs(frame_rows(proj, l4.chart.grid(margin=0.01)[::19]).second_form))
print(f"\nnull projection of chen-l4: max |second form| = {worst:.3e} "
      "(totally geodesic)")
