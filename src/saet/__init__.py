"""Exact-arithmetic toolkit for piecewise-linear semialgebraic sets.

Marked simplicial complexes with rational coordinates; local-closedness
strata and the obstruction set of defective boundary germs; certified
tubular neighborhoods and the carving deformation that makes any marked
set appropriately embedded; weak continuous extension of piecewise
linear-fractional functions; evaluation homomorphisms along path germs.
"""

from .carve import (
    CarvedSet,
    DeformCoeffs,
    DeformationMap,
    appropriate_embed,
    carve_level,
    deformation_coeffs,
    probe_germ,
)
from .complexes import (
    Complex,
    PLSet,
    Simplex,
    barycentric_subdivide,
    build_complex,
    closure,
    eta,
    germ_connected,
    is_appropriately_embedded,
    lc_part,
    local_dim,
    rho,
)
from .extend import (
    ExtensionReport,
    LimitResult,
    PLFFunction,
    RatioForm,
    face_limit,
    graph_closure_oracle,
    weak_extension,
)
from .germs import (
    ConeSet,
    GermValue,
    PathGerm,
    adjacency_test,
    cone_restriction,
    core,
    depth,
    distinct_homs_witness,
    eval_hom,
    evaluate,
    hom_via_cone,
    is_in_extension,
)
from .intervals import Interval, IntervalPoint, sqrt_enclosure
from .metric import (
    FaceFunctionals,
    Hyperplane,
    certificate_for,
    certify_epsilon,
    incenter,
    separating_hyperplane,
)
from .rationals import AffineForm, rat, rat_str
from .tubes import (
    INSIDE_OPEN,
    ON_BOUNDARY,
    OUTSIDE,
    Tube,
    VertexBall,
    hat_lift_membership,
    membership,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
