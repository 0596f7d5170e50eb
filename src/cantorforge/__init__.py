"""Verified companion constructions for thin Cantor-like sets.

Everything certified runs on exact rationals with directed outward
rounding where roots are unavoidable.  See the README for a tour.
"""

from .cantor1d import (
    CantorForgeError,
    GapConstraintViolation,
    GapTree,
    Interval,
    InvalidRatio,
    LevelOutOfRange,
    SymmetricGapTree,
    ZeroScale,
    affine_image,
    as_rat,
    build_binary_ifs,
    canonical_json,
    middle_thirds,
    tree_from_json_obj,
    write_intervals_csv,
)
from .containment1d import (
    ChainBroken,
    DominanceNotVerified,
    DominanceReport,
    NoMargin,
    PerturbationSpec,
    SweepReport,
    WitnessChain,
    build_companion,
    certify_difference_interior,
    check_dominance,
    find_chain,
    grid_values,
    robustness_sweep,
)
from .nested_rd import (
    AllCandidatesFailed,
    CertificateNotFound,
    Component,
    DegeneratePair,
    EmptyGeometry,
    InvalidCertificate,
    NestedRep,
    ProductGeometry,
    RotationMatrix,
    RotationResult,
    UndCertificate,
    build_nested_rep,
    components_at,
    d_min,
    default_candidates,
    image_separations,
    kappa_ratios,
    rotation_search,
    und_certificate,
    verify_certificate,
)
from .containment_rd import (
    ChainRd,
    InfeasibleGaps,
    ProductCompanion,
    SlitBlocked,
    build_product_companion,
    certify_sum_interior_rd,
    find_chain_rd,
)
from .applications import (
    DistanceDemoReport,
    FamilyOutOfSlack,
    HSpec,
    InteriorReport,
    MonotoneImageTree,
    ObstructionReport,
    SignNotDefinite,
    derivative_bound,
    erdos_obstruction,
    nonlinear_companion,
    pinned_distance_demo,
    verify_H_interior,
)
from .dyadic import precision_bits, root_bounds, sqrt_bounds

__version__ = "0.1.0"
