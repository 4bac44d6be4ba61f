"""Flattened k-Stirling permutations and good k-colored set partitions.

Exact-arithmetic construction, enumeration, counting and statistics, with
every closed form cross-validated against brute-force enumeration.

Each exported name is imported from its home module on first use
(PEP 562), so a command loads only the modules it calls.
"""

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "analysis": ("conjecture_report", "descent_polynomial_bruteforce", "is_real_rooted",
                 "is_unimodal"),
    "bijection": ("phi", "phi_inverse"),
    "counting": ("DEFAULT_BUDGET", "CountContext", "CountTable", "CountTableRow",
                 "bell_number", "count_flattened_dobinski", "count_flattened_identity",
                 "count_flattened_recurrence", "count_flattened_series_approx",
                 "count_max_runs_k2", "count_runs_2", "count_runs_3", "count_table",
                 "max_runs_bound", "predicted_stirling_count", "run_distribution_bruteforce"),
    "enumeration": ("gen_flattened", "gen_gcp", "gen_stirling"),
    "errors": ("BFileError", "BudgetExceededError", "ConvergenceError", "DomainError",
               "FlatstirError", "MalformedPartitionError", "MalformedWordError",
               "NotFlattenedError", "NotStirlingError", "PartitionRuleError"),
    "oeis": ("CrossCheckReport", "cross_check"),
    "partitions": ("ColoredPartition", "block_descent_count", "parse_partition"),
    "series": ("EgfSeries", "IntPolynomial", "descent_egf", "egf_flattened",
               "extract_descent_polynomial"),
    "words": ("StirlingWord", "WordStats", "is_flattened", "is_valid_stirling", "parse_word",
              "word_stats"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import `name` from its home module and keep it in the package."""
    if name not in _HOME:  # `from flatstir import verify` then loads the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
