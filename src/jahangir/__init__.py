"""Exact spanning-tree counting and enumeration for Jahangir graphs.

The names this module imports are the public API; __all__ lists them.
"""

from types import ModuleType as _ModuleType

from .asymptotics import (
    ConjectureReport,
    DeltaEstimate,
    NDirectionRatios,
    RatioSeries,
    conjecture_report,
    decimal_round_half_even,
    decimal_truncate,
    delta_estimate,
    n_direction_ratios,
    ratio,
    ratio_series,
)
from .combinatorics import (
    GapSignature,
    SpokeCombination,
    TreeCountBreakdown,
    class_census,
    class_contribution,
    gap_transform,
    polynomial_coefficients,
    sigma,
    sigma_k,
    sigma_table,
)
from .cycles import CensusReport, CycleRecord, census_j2m, find_simple_cycles, verify_census
from .enumeration import enumerate_all, enumerate_jahangir, verify_spanning_tree
from .errors import (
    EnumerationCapError,
    GraphValidationError,
    ParameterDomainError,
    SizeGuardError,
)
from .graph_core import (
    IntegerMatrix,
    JahangirParams,
    LabeledGraph,
    SpanningTree,
    adjacency_matrix,
    build_jahangir,
    degree_matrix,
    laplacian_matrix,
    oriented_incidence_matrix,
    to_dot,
)
from .matrix_tree import count_spanning_trees_det, eigenvalue_product_estimate

__version__ = "0.1.0"

# the relative imports above bind each submodule too; those are not API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
