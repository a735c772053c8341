"""bpblab: norm attainment and approximation on finite-dimensional l_p spaces.

Building blocks: l_p space primitives and polyhedral face lattices
(`spaces`), operators with exact attainment sets (`operators`), extremality
and isometry classification (`classify`), explicit attainment-preserving
approximant constructors (`approximants`), and a sampling-based certificate
engine (`bpbverify`).  The `bpblab` console script exposes all of it as JSON
subcommands.
"""

from .approximants import (
    ApproximantReport,
    convex_witness_approx,
    direct_sum_shrink_approx,
    functional_approx_lp2,
    hilbert_nonpreserving_demo,
    hilbert_rotate_approx,
    l1_extreme_approx,
    linf3_l13_extreme_approx,
    linf_extreme_approx,
    rank_one_approx,
    sbpbp_counterexample_family,
)
from .bpbverify import (
    BpbCertificate,
    Epsilon0Report,
    HilbertChecks,
    PropertyPWitness,
    attainment_cardinality_check,
    check_ball_inclusion,
    epsilon0_lp2,
    hilbert_necessary_checks,
    is_only_approximation,
    pair_property_sweep,
    property_p_witness,
    verify_uniform_bpb,
)
from .classify import (
    ExtremalityVerdict,
    enumerate_extreme_linf3_l13,
    enumerate_isometries,
    equivalence_orbit,
    is_extreme_contraction,
    is_isometry,
    l1_column_condition,
    linf_row_condition,
)
from .operators import (
    AttainmentSet,
    OperatorMatrix,
    approx_attainment,
    attainment_equal,
    attainment_set,
    delta_for_epsilon,
    is_smooth_operator,
    op_norm,
    operator,
    restricted_norm,
)
from .spaces import (
    INF,
    Face,
    Point,
    SpaceSpec,
    SupportSet,
    arc_length_constant,
    arc_length_total,
    birkhoff_orthogonal,
    enumerate_faces,
    extreme_points,
    is_smooth_point,
    l1,
    l2,
    linf,
    lp,
    norm,
    point,
    support_functionals,
)

__version__ = "0.1.0"
