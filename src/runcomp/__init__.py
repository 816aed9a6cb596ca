"""Exact counting of integer compositions with forbidden factors and bounded runs.

The package computes, with exact integer arithmetic throughout, the
bivariate generating functions of compositions that avoid a reduced list
of forbidden contiguous factors, and specializes them to Carlitz
compositions and to compositions whose runs are all shorter than a bound.
An independent oracle, which counts through an automaton of the forbidden
blocks, is shipped alongside so every analytic count can be cross-checked.
"""

from .errors import (
    BoundMismatchError,
    CoefficientRangeError,
    EnumerationCapError,
    InvalidWordError,
    NotEasyCaseError,
    NotInvertibleError,
    PivotError,
    ReducednessError,
    RuncompError,
)
from .oracle import (
    ENUMERATION_CAP,
    CompositionFilter,
    count_by_parts,
    oracle_count,
)
from .runs import (
    RunDistribution,
    bounded_run_count,
    bounded_run_series,
    carlitz_series,
    longest_run_distribution,
)
from .series import Series
from .solver import (
    AvoidanceSystem,
    avoidance_series,
    build_system,
    easy_case_series,
)
from .words import (
    CorrelationVector,
    ForbiddenList,
    Word,
    correlation_polynomial,
    correlation_vector,
    is_factor,
    is_reduced,
    make_forbidden_list,
    parse_word_list,
)

__version__ = "0.1.0"

__all__ = [
    "AvoidanceSystem",
    "BoundMismatchError",
    "CoefficientRangeError",
    "CompositionFilter",
    "CorrelationVector",
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "ForbiddenList",
    "InvalidWordError",
    "NotEasyCaseError",
    "NotInvertibleError",
    "PivotError",
    "ReducednessError",
    "RunDistribution",
    "RuncompError",
    "Series",
    "Word",
    "avoidance_series",
    "bounded_run_count",
    "bounded_run_series",
    "build_system",
    "carlitz_series",
    "correlation_polynomial",
    "correlation_vector",
    "count_by_parts",
    "easy_case_series",
    "is_factor",
    "is_reduced",
    "longest_run_distribution",
    "make_forbidden_list",
    "oracle_count",
    "parse_word_list",
]
