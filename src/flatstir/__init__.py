"""Flattened k-Stirling permutations and good k-colored set partitions.

Exact-arithmetic construction, enumeration, counting and statistics, with
every closed form cross-validated against brute-force enumeration.
"""

from .analysis import (
    conjecture_report,
    descent_polynomial_bruteforce,
    is_real_rooted,
    is_unimodal,
)
from .bijection import phi, phi_inverse
from .counting import (
    DEFAULT_BUDGET,
    CountContext,
    CountTable,
    CountTableRow,
    bell_number,
    count_flattened_identity,
    count_flattened_recurrence,
    count_flattened_series_approx,
    count_max_runs_k2,
    count_runs_2,
    count_runs_3,
    count_table,
    max_runs_bound,
    run_distribution_bruteforce,
)
from .enumeration import (
    gen_flattened,
    gen_gcp,
    gen_stirling,
    predicted_stirling_count,
)
from .errors import (
    AlignmentError,
    BFileParseError,
    BudgetExceededError,
    ConvergenceError,
    DomainError,
    FlatstirError,
    MalformedPartitionError,
    MalformedWordError,
    NotFlattenedError,
    NotStirlingError,
    PartitionRuleError,
)
from .oeis import CrossCheckReport, cross_check
from .partitions import (
    ColoredPartition,
    block_descent_count,
    good_partition,
    parse_partition,
)
from .series import (
    EgfSeries,
    IntPolynomial,
    descent_egf,
    egf_flattened,
    extract_descent_polynomial,
)
from .words import (
    StirlingWord,
    WordStats,
    is_flattened,
    is_valid_stirling,
    parse_word,
    word_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BFileParseError",
    "BudgetExceededError",
    "ColoredPartition",
    "ConvergenceError",
    "CountContext",
    "CountTable",
    "CountTableRow",
    "CrossCheckReport",
    "DEFAULT_BUDGET",
    "DomainError",
    "EgfSeries",
    "FlatstirError",
    "IntPolynomial",
    "MalformedPartitionError",
    "MalformedWordError",
    "NotFlattenedError",
    "NotStirlingError",
    "PartitionRuleError",
    "StirlingWord",
    "WordStats",
    "bell_number",
    "block_descent_count",
    "conjecture_report",
    "count_flattened_identity",
    "count_flattened_recurrence",
    "count_flattened_series_approx",
    "count_max_runs_k2",
    "count_runs_2",
    "count_runs_3",
    "count_table",
    "cross_check",
    "descent_egf",
    "descent_polynomial_bruteforce",
    "egf_flattened",
    "extract_descent_polynomial",
    "gen_flattened",
    "gen_gcp",
    "gen_stirling",
    "good_partition",
    "is_flattened",
    "is_real_rooted",
    "is_unimodal",
    "is_valid_stirling",
    "max_runs_bound",
    "parse_partition",
    "parse_word",
    "phi",
    "phi_inverse",
    "predicted_stirling_count",
    "run_distribution_bruteforce",
    "word_stats",
]
