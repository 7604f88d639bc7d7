"""Exact determinantal matrices for unmixed sparse resultants of four
trivariate Laurent polynomials.

The pipeline: take a common Newton polytope, pick a partial shelling of its
facet fan, slide along the induced resolution window, and substitute
coefficient minors for the wedge entries.  The resulting square matrix has
the resultant as a determinant factor, with size and degree predicted
exactly by lattice point counting.
"""

from .bracket import (
    BracketMatrix,
    CoefficientSystem,
    apply_U4,
    bracket_value,
    evaluate,
    export_matrix,
    format_coefficients,
    import_matrix,
    parse_coefficients,
    random_coefficients,
)
from .ehrhart import (
    EhrhartPair,
    ehrhart_pair,
    predicted_size,
    resultant_degree,
    size_bounds_report,
    squareness_check,
)
from .errors import (
    DegenerateSpan,
    DegreePatternViolation,
    DetformError,
    DimensionMismatch,
    EmptyInput,
    InterpolationMismatch,
    InvariantViolation,
    NoDiskSelection,
    NonGenericDirection,
    NotStabilized,
    ParseError,
    SearchTooLarge,
    UnsupportedDimension,
)
from .lattice import (
    Polytope,
    convex_hull_with_facets,
    interior_points,
    lattice_points_scaled,
    parse_support,
    points_off_facets,
)
from .shelling import (
    PartialShelling,
    best_selection,
    boundary_lattice_count,
    is_disk,
    line_shelling,
    shelling_order_for,
)
from .tate import TateWindow, build_window, check_exactness, window_dump
from .verify import (
    CohomologyEntry,
    cohomology_profile,
    common_root_system,
    divisor_cohomology,
    feasibility_dim4,
    feasibility_high_dim,
    high_dim_feasible_selection,
    reduced_cohomology,
)

__version__ = "0.1.0"

__all__ = [
    "BracketMatrix",
    "CoefficientSystem",
    "CohomologyEntry",
    "DegenerateSpan",
    "DegreePatternViolation",
    "DetformError",
    "DimensionMismatch",
    "EhrhartPair",
    "EmptyInput",
    "InterpolationMismatch",
    "InvariantViolation",
    "NoDiskSelection",
    "NonGenericDirection",
    "NotStabilized",
    "ParseError",
    "PartialShelling",
    "Polytope",
    "SearchTooLarge",
    "TateWindow",
    "UnsupportedDimension",
    "apply_U4",
    "best_selection",
    "boundary_lattice_count",
    "bracket_value",
    "build_window",
    "check_exactness",
    "cohomology_profile",
    "common_root_system",
    "convex_hull_with_facets",
    "divisor_cohomology",
    "ehrhart_pair",
    "evaluate",
    "export_matrix",
    "feasibility_dim4",
    "feasibility_high_dim",
    "format_coefficients",
    "high_dim_feasible_selection",
    "import_matrix",
    "interior_points",
    "is_disk",
    "lattice_points_scaled",
    "line_shelling",
    "parse_coefficients",
    "parse_support",
    "points_off_facets",
    "predicted_size",
    "random_coefficients",
    "reduced_cohomology",
    "resultant_degree",
    "shelling_order_for",
    "size_bounds_report",
    "squareness_check",
    "window_dump",
]
