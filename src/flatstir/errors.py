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


class BFileParseError(FlatstirError, ValueError):
    """A b-file line could not be parsed; message carries the line number."""


class AlignmentError(FlatstirError, RuntimeError):
    """The first computed terms appear nowhere in a fetched b-file."""
