"""marlift: marginally trapped spacelike submanifolds of simple Lorentzian
ambient spaces, built from hypersurface curvature data and verified by
independent numerical differential geometry.

The five supported ambients are flat Lorentzian space, the two Lorentzian
space forms of nonzero curvature, and the metric products of the round sphere
and of hyperbolic space with a time line.
"""

from .core import (
    DEFAULTS,
    Chart,
    Jet2,
    Signature,
    Tolerances,
    bilinear,
    generalized_shape_eigen,
    jet2_of,
    sym_eigen,
)
from .hypersurface import (
    HypersurfaceImmersion,
    PointFrame,
    ShapeSpectrum,
    SpaceForm,
    SpaceFormKind,
    frame_at,
    mean_gauss_at,
    spectrum_at,
)
from .constructor import (
    AmbientKind,
    CurvaturePolynomial,
    LiftContext,
    LiftedImmersion,
    LorentzAmbient,
    Root,
    SupportFunction,
    TotallyGeodesicSlice,
    arccot,
    arccoth,
    curvature_polynomial,
    flat_slice,
    graph_lift,
    hyperbolic_slice,
    lift_antidesitter,
    lift_desitter,
    lift_hyperbolic_product,
    lift_minkowski,
    lift_palmer,
    lift_sphere_product,
    null_lift,
    product_lifts,
    roots_at,
    solve_roots,
    space_form_lifts,
    spherical_slice,
    support_route_lift,
    thread_root_fields,
)
from .verifier import (
    LorentzFrame,
    MarginalityReport,
    assemble_report,
    check_mean_curvature_identity,
    check_metric_identity,
    check_second_form_identity,
    lorentz_frame_at,
    mean_curvature_at,
    second_form_at,
)
from .catalog import CATALOG, catalog_lookup
from . import shapes

__version__ = "0.1.0"
