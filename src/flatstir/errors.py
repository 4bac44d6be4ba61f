"""Exception hierarchy shared across the package.

Every error raised by flatstir derives from FlatstirError so callers can
catch the whole family; most also derive from the matching builtin
(ValueError, RuntimeError) so they behave normally in generic code.
"""


class FlatstirError(Exception):
    """Base class for all flatstir errors."""


class MalformedWordError(FlatstirError, ValueError):
    """Letters do not form the multiset {1^k, ..., n^k}."""


class NotStirlingError(FlatstirError, ValueError):
    """A letter smaller than i occurs between two consecutive copies of i."""


class NotFlattenedError(FlatstirError, ValueError):
    """Run leaders are not weakly increasing left to right."""


class MalformedPartitionError(FlatstirError, ValueError):
    """Blocks do not partition [1..n] or a color is out of range."""


class PartitionRuleError(FlatstirError, ValueError):
    """A coloring rule of good k-colored partitions is violated.

    The message names the first failed rule.
    """


class DomainError(FlatstirError, ValueError):
    """Argument outside the mathematical domain of an operation (e.g. n=0)."""


class BudgetExceededError(FlatstirError, RuntimeError):
    """Predicted enumeration size exceeds the budget (the default cap unless lifted)."""


class ConvergenceError(FlatstirError, RuntimeError):
    """A numeric series evaluation failed to converge within its term cap."""


class BFileError(FlatstirError, ValueError):
    """Unusable sequence data: a saved b-file that cannot be read, a line that
    does not parse, an index that is not the previous one plus 1, no data rows,
    first three computed terms that appear nowhere, or a file that ends before
    `max_n`.  `cross_check` puts the path or URL first; `oeis` and `verify` exit 4."""
