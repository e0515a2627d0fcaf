"""Exact disk-count generating functions for semi-Fano toric manifolds.

The pipeline: validate a fan, pick a nef basis of the curve-class lattice,
scan the truncation box once for correction classes and sum them into each
ray's hypergeometric correction series, assemble and invert the coordinate
change they generate, and read off the one-pointed disk invariants and
corrected superpotentials.  All arithmetic is exact.
"""

from .fans import (
    CurveLattice,
    Fan,
    FanError,
    alpha_class,
    cone_coordinates,
    curve_lattice,
    fan_polytope_vertices,
    is_semi_fano,
    validate_fan,
)
from .mirror import (
    MirrorMapPair,
    assemble_mirror_map,
    compute_g0_family,
    enumerate_g0_classes,
)
from .series import (
    MultiSeries,
    SeriesError,
    TruncationBox,
    combine,
    exp_series,
    mul,
    pull_back,
    render,
    sub,
)
from .superpotential import (
    CheckReport,
    InvariantSeries,
    InvariantTable,
    SuperpotentialExpr,
    ToricAnalysis,
    analyze,
    assemble_W_HV,
    assemble_W_LF,
    assemble_W_PF,
    check_multiplicative_consistency,
    check_PF_equals_LF,
    compare_superpotentials,
    cross_validate_surface,
    invariant_table,
    normalize_W_LF,
    render_table,
    structural_report,
    surface_admissible_deltas,
)

__version__ = "0.1.0"
