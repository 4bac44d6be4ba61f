"""The package's exports resolve from their home modules on first use."""

from importlib import import_module

import pytest

import flatstir

EXPORTED = [
    "AlignmentError", "BFileParseError", "BudgetExceededError", "ColoredPartition",
    "ConvergenceError", "CountContext", "CountTable", "CountTableRow", "CrossCheckReport",
    "DEFAULT_BUDGET", "DomainError", "EgfSeries", "FlatstirError", "IntPolynomial",
    "MalformedPartitionError", "MalformedWordError", "NotFlattenedError", "NotStirlingError",
    "PartitionRuleError", "StirlingWord", "WordStats", "bell_number", "block_descent_count",
    "conjecture_report", "count_flattened_dobinski", "count_flattened_identity",
    "count_flattened_recurrence", "count_flattened_series_approx", "count_max_runs_k2",
    "count_runs_2", "count_runs_3", "count_table", "cross_check", "descent_egf",
    "descent_polynomial_bruteforce", "egf_flattened", "extract_descent_polynomial",
    "gen_flattened", "gen_gcp", "gen_stirling", "is_flattened", "is_real_rooted",
    "is_unimodal", "is_valid_stirling", "max_runs_bound", "parse_partition", "parse_word",
    "phi", "phi_inverse", "predicted_stirling_count", "run_distribution_bruteforce",
    "word_stats",
]


def test_lazy_exports_resolve_to_their_home_modules():
    assert flatstir.__all__ == EXPORTED
    for name in EXPORTED:
        home = import_module(f"flatstir.{flatstir._HOME[name]}")
        assert getattr(flatstir, name) is getattr(home, name), name
    namespace = {}
    exec("from flatstir import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED
    with pytest.raises(AttributeError, match="no_such_name"):
        flatstir.no_such_name
    from flatstir import bijection, verify  # submodules, not exported names

    assert bijection.__name__ == "flatstir.bijection"
    assert verify.__name__ == "flatstir.verify"
