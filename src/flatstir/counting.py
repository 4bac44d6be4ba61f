"""Exact counting of flattened k-Stirling words, total and run-refined.

Three independent routes compute the total count (a recurrence, a Stirling
number identity, and an EGF coefficient in `series`); closed forms cover
words with two runs, three runs, and the k=2 maximum-run case.  All are
cross-checked against brute-force enumeration in the test suite.

`count_table` reads its run refinements off the descent EGF (runs =
descents + 1) and never enumerates, so every `CountTableRow` carries a
refinement; `run_distribution_bruteforce` is the enumeration oracle that
tests and `verify` hold the table to.

All arithmetic is exact arbitrary-precision integers except the explicit
series approximation, which evaluates a convergent positive series in
precision-controlled floating point and must round to the exact count.

Stirling numbers of the second kind use S(0,0)=1 and S(a,0)=0 for a >= 1;
the identity's boundary term requires the S(0,0)=1 convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import mpmath

from .errors import ConvergenceError, DomainError


@dataclass
class CountContext:
    """Memo tables, passed explicitly; confine one instance to one thread."""

    _stirling_rows: list[list[int]] = field(default_factory=lambda: [[1]])
    _flat_by_k: dict[int, list[int]] = field(default_factory=dict)
    _bell: list[int] = field(default_factory=lambda: [1])
    _bell_row: list[int] = field(default_factory=lambda: [1])


def stirling2(a: int, b: int, ctx: CountContext | None = None) -> int:
    """Stirling number of the second kind S(a, b).

    S(0,0)=1; S(a,0)=0 for a >= 1; zero for b > a or negative arguments.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    ctx = ctx or CountContext()
    rows = ctx._stirling_rows
    while len(rows) <= a:
        prev = rows[-1]
        m = len(rows)
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            row[j] = j * prev[j] + prev[j - 1] if j < m else prev[j - 1]
        rows.append(row)
    return rows[a][b]


def bell_number(n: int, ctx: CountContext | None = None) -> int:
    """Bell number B(n) via the Bell triangle; independent of stirling2."""
    if n < 0:
        raise DomainError(f"Bell numbers need n >= 0, got {n}")
    ctx = ctx or CountContext()
    while len(ctx._bell) <= n:
        row = [ctx._bell_row[-1]]
        for v in ctx._bell_row:
            row.append(row[-1] + v)
        ctx._bell_row = row
        ctx._bell.append(row[0])
    return ctx._bell[n]


def count_flattened_recurrence(n: int, k: int, ctx: CountContext | None = None) -> int:
    """|flt(Q_n^k)| by the recurrence

        f(m+1) = (k-1) f(m) + sum_{r=1}^{m} C(m-1, r-1) k^(r-1) f(m-r+1)

    with f(1) = 1, grown on demand per k.
    """
    _check_nk(n, k)
    ctx = ctx or CountContext()
    table = ctx._flat_by_k.setdefault(k, [0, 1])  # index by order; table[0] unused
    while len(table) <= n:
        m = len(table) - 1  # currently known up to order m; compute order m+1
        total = (k - 1) * table[m]
        for r in range(1, m + 1):
            total += comb(m - 1, r - 1) * k ** (r - 1) * table[m - r + 1]
        table.append(total)
    return table[n]


def count_flattened_identity(n: int, k: int, ctx: CountContext | None = None) -> int:
    """|flt(Q_n^k)| by the double sum over first-block size and block count:

        sum_{i=0}^{m} C(m, i) (k-1)^i  sum_{r=0}^{m-i} k^(m-i-r) S(m-i, r)

    with m = n-1.  The i=m boundary term is S(0,0)=1.
    """
    _check_nk(n, k)
    ctx = ctx or CountContext()
    m = n - 1
    total = 0
    for i in range(m + 1):
        inner = 0
        for r in range(m - i + 1):
            inner += k ** (m - i - r) * stirling2(m - i, r, ctx)
        total += comb(m, i) * (k - 1) ** i * inner
    return total


def count_flattened_series_approx(
    n: int, k: int, precision_bits: int = 128, *, max_terms: int = 10000
) -> tuple[mpmath.mpf, int]:
    """Evaluate e^(-1/k) * sum_{r>=0} (kr+k-1)^n / (r! k^r) numerically.

    The exponent n counts words of order n+1.  Terms are added until the
    tail bound (twice the next term, valid once the term ratio is below
    1/2) falls under 2^(-precision_bits/2) of the partial sum.  Returns
    (approximation, nearest integer); the integer must equal the exact
    count and the tests hold it to that.
    """
    if n < 0 or k < 1:
        raise DomainError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if precision_bits < 64:
        raise DomainError("precision_bits must be at least 64")
    with mpmath.workprec(precision_bits):
        eps = mpmath.mpf(2) ** (-(precision_bits // 2))
        partial = mpmath.mpf(0)
        r = 0
        term = _series_term(n, k, 0)
        while True:
            partial += term
            nxt = _series_term(n, k, r + 1)
            if term > 0 and nxt < term / 2 and 2 * nxt < eps * partial:
                break
            if r >= max_terms:
                raise ConvergenceError(
                    f"series for n={n}, k={k} not converged after {max_terms} terms "
                    f"(last term {mpmath.nstr(nxt, 8)}, partial {mpmath.nstr(partial, 8)})"
                )
            term = nxt
            r += 1
        approx = mpmath.exp(mpmath.mpf(-1) / k) * partial
        rounded = int(mpmath.nint(approx))
    return approx, rounded


def _series_term(n: int, k: int, r: int) -> mpmath.mpf:
    num = (k * r + k - 1) ** n
    den = factorial(r) * k**r
    return mpmath.mpf(num) / mpmath.mpf(den)


def count_runs_2(n: int, k: int) -> int:
    """Flattened words of order n with exactly two runs:
    (2k-1) (2^(n-1) - 1) - k (n-1)."""
    _check_nk(n, k)
    return (2 * k - 1) * (2 ** (n - 1) - 1) - k * (n - 1)


def count_runs_3(n: int, k: int) -> int:
    """Flattened words of order n with exactly three runs (four-term form).

    The two double sums count the two-non-singleton-block cases; the inner
    sum collapses to 2^M - 1 - M.
    """
    _check_nk(n, k)
    total = Fraction(k - 1) * (k - 2) / 2 * (3 ** (n - 1) - 2**n + 1)
    total += Fraction(k) * (k - 1) / 12 * (3**n - 6 * 2**n + 6 * n + 3)
    s_with_first = 0  # one non-singleton contains the element 1
    for i in range(1, n - 2):
        m = n - 1 - i
        s_with_first += comb(n - 1, i) * (2**m - 1 - m)
    s_without_first = 0
    for i in range(2, n - 2):
        m = n - 1 - i
        s_without_first += comb(n - 1, i) * (2**m - 1 - m)
    total += k * (k - 1) * s_with_first
    total += Fraction(k * k) / 2 * s_without_first
    if total.denominator != 1:
        raise AssertionError(f"three-run closed form produced non-integer {total}")
    return int(total)


def count_max_runs_k2(n: int) -> int:
    """Flattened 2-Stirling words of order n attaining the maximum run
    count ceil(2n/3).  With m = floor((n-1)/3):

        n = 3m+1 or 3m+2:  (3m+1)! / (m! 3^m)
        n = 3m+3:          (9m+10)/4 * (3m+2)! / (m! 3^m)
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    m = (n - 1) // 3
    if n % 3 in (1, 2):
        value = Fraction(factorial(3 * m + 1), factorial(m) * 3**m)
    else:
        value = Fraction(9 * m + 10, 4) * Fraction(factorial(3 * m + 2), factorial(m) * 3**m)
    if value.denominator != 1:
        raise AssertionError(f"maximum-run closed form produced non-integer {value}")
    return int(value)


def max_runs_bound(n: int, k: int) -> int:
    """ceil(kn / (k+1)), the largest run count a flattened word can have."""
    _check_nk(n, k)
    return -(-k * n // (k + 1))


@dataclass(frozen=True)
class CountTableRow:
    """One order: total count plus counts refined by run number (s >= 1).

    The refinement must sum to the total.
    """

    n: int
    total: int
    run_refined: tuple[int, ...]

    def __post_init__(self):
        if sum(self.run_refined) != self.total:
            raise AssertionError(
                f"run refinement {self.run_refined} does not sum to total {self.total}"
            )


@dataclass(frozen=True)
class CountTable:
    k: int
    rows: tuple[CountTableRow, ...]


def run_distribution_bruteforce(
    n: int,
    k: int,
    *,
    budget: int | None = None,
    force: bool = False,
    via: str = "filter",
) -> CountTableRow:
    """Tally flattened words of order n by run count, by enumeration."""
    from . import enumeration  # local import: enumeration depends on this module
    from .words import word_stats

    counts: dict[int, int] = {}
    total = 0
    for w in enumeration.gen_flattened(n, k, via=via, budget=budget, force=force):
        s = word_stats(w).runs
        counts[s] = counts.get(s, 0) + 1
        total += 1
    top = max(counts) if counts else 0
    _check_run_bound(n, k, top)
    refined = tuple(counts.get(s, 0) for s in range(1, top + 1))
    return CountTableRow(n, total, refined)


def count_table(k: int, max_n: int, *, ctx: CountContext | None = None) -> CountTable:
    """Totals and run-refined counts for n=1..max_n, without enumeration.

    Runs = descents + 1, so the refinement at order n is the descent
    polynomial, entry n-1 of one descent EGF.  The total comes from the
    recurrence, and each row's sum check holds the two routes to each other.
    """
    from . import series  # local import: series depends on this module

    _check_nk(max_n, k)
    ctx = ctx or CountContext()
    egf = series.descent_egf(k, max_n - 1, ctx)
    rows = []
    for n in range(1, max_n + 1):
        refined = egf.coeffs[n - 1]
        _check_run_bound(n, k, len(refined))
        rows.append(CountTableRow(n, count_flattened_recurrence(n, k, ctx), refined))
    return CountTable(k, tuple(rows))


def _check_run_bound(n: int, k: int, top: int) -> None:
    bound = max_runs_bound(n, k)
    if top > bound:
        raise AssertionError(f"observed {top} runs, beyond the proven bound {bound}")


def _check_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
