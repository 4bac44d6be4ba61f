"""Exact counting of flattened k-Stirling words, total and run-refined.

Three independent routes compute the total count: a derivative triangle
from F' = ((k-1) + e^(kz)) F, a Stirling number double sum streamed one
k-weighted Stirling row at a time in O(n) memory, and the exponential
formula in `series` (whose exp step is the paper's one-index
recurrence).  Closed forms cover words with two runs, three runs, and
the k=2 maximum-run case.  All are cross-checked against brute-force
enumeration in the test suite.

`count_table` reads its run refinements off the descent EGF (runs =
descents + 1) and never enumerates, so every `CountTableRow` carries a
refinement; `run_distribution_bruteforce` is the enumeration oracle that
tests and `verify` hold the table to.

All arithmetic is exact: the series approximation sums truncated series
in integers, so its error bound holds by construction.

No route keeps state across calls.  `flattened_totals` makes one triangle
pass and returns every total up to its order, so a caller that wants many
orders asks for them at once.  The identity and `series.descent_egf` step
their Stirling rows per call with `_next_stirling_row`, using S(0,0)=1 (the
identity's boundary term needs it) and S(a,0)=0 for a >= 1.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConvergenceError, DomainError

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_BUDGET = 10**8  # the enumeration size cap; None lifts it
SERIES_MAX_TERMS = 10000  # the series route's term cap, read at call time


class CountContext:
    """Holds nothing: the three total routes ignore it.  The benchmark harness
    still passes one; its next change deletes this class."""

    __slots__ = ()


def _next_stirling_row(prev: list[int], k: int = 1) -> list[int]:
    """Row T(a, 0..a) from row T(a-1, 0..a-1) by T(a, j) = jk T(a-1, j) + T(a-1, j-1);
    T(a, j) = k^(a-j) S(a, j), so k = 1 steps the Stirling row itself."""
    return [0, *map(add, map(mul, range(k, len(prev) * k, k), prev[1:]), prev), prev[-1]]


def bell_number(n: int) -> int:
    """Bell number B(n) via the Bell triangle; independent of the Stirling rows."""
    if n < 0:
        raise DomainError(f"Bell numbers need n >= 0, got {n}")
    row = [1]
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def predicted_stirling_count(n: int, k: int) -> int:
    """|Q_n^k| = prod_{i=0}^{n-1} (i*k + 1)."""
    total = 1
    for i in range(n):
        total *= i * k + 1
    return total


def flattened_totals(k: int, max_n: int) -> list[int]:
    """[f(1), ..., f(max_n)], f(n) = |flt(Q_n^k)|, by one pass of the derivative
    triangle of F = egf_flattened(k): F' = ((k-1) + e^(kz)) F, so
    D_a(m) = m! [z^m] e^(akz) F satisfies D_a(m+1) = (ak+k-1) D_a(m) + D_{a+1}(m)
    with D_a(0) = 1, and f(m+1) = D_0(m).  Only the last anti-diagonal
    D_a(m-a), a = 0..m, is kept.
    """
    _check_nk(max_n, k)
    totals, diag = [1], [1]
    while len(totals) < max_n:
        diag.append(1)  # D_{m+1}(0)
        for a in range(len(diag) - 2, -1, -1):
            diag[a] = (a * k + k - 1) * diag[a] + diag[a + 1]
        totals.append(diag[0])
    return totals


def count_flattened_recurrence(n: int, k: int, ctx: CountContext | None = None) -> int:
    """|flt(Q_n^k)|, the last of `flattened_totals(k, n)`: a caller that wants
    many orders reads them from one such list.  `ctx` is ignored."""
    return flattened_totals(k, n)[-1]


def count_flattened_identity(n: int, k: int, ctx: CountContext | None = None) -> int:
    """|flt(Q_n^k)| by the double sum over first-block size and block count:

        sum_{i=0}^{m} C(m, i) (k-1)^i  sum_{r=0}^{m-i} k^(m-i-r) S(m-i, r)

    with m = n-1.  The i=m boundary term is S(0,0)=1.  The sum is streamed
    over j = m-i: one row T(j, r) = k^(j-r) S(j, r) is held at a time, so the
    inner sum is the row's sum, and the outer sum is taken by Horner in k-1
    with C(m, j) advanced from C(m, j-1); memory is O(n) integers.  `ctx` is
    ignored.
    """
    _check_nk(n, k)
    m = n - 1
    total, c, row = 1, 1, [1]  # the j = 0 term, C(m, 0) T(0, 0)
    for j in range(1, m + 1):
        row = _next_stirling_row(row, k)
        c = c * (m - j + 1) // j
        total = total * (k - 1) + c * sum(row)
    return total


def count_flattened_series_approx(
    n: int, k: int, precision_bits: int = 128
) -> tuple[Fraction, int]:
    """Evaluate e^(-1/k) * sum_{r>=0} (kr+k-1)^n / (r! k^r) in exact integers.

    The exponent n counts words of order n+1.  With h = precision_bits // 2:
    the term ratio decreases in r, so once it is below 1/2 the tail is at
    most twice the next term, and terms are added until that bound is below
    2^-h.  e^(-1/k) comes from its alternating series, whose error is below
    the first omitted term; terms are added until the partial sum P times
    that term is below 2^-(h+1).  The approximation is then within
    1.5 * 2^-h < 1/2 of the exact count.  Returns (approximation, integer).
    """
    from fractions import Fraction  # local import: it loads decimal and numbers too

    if n < 0 or k < 1:
        raise DomainError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if precision_bits < 64:
        raise DomainError("precision_bits must be at least 64")
    h = precision_bits // 2
    num, den = 0, 1  # P = num / den with den = r! k^r
    term = (k - 1) ** n  # term r times den
    r = 0
    while True:
        num += term
        nxt = (k * r + 2 * k - 1) ** n  # term r+1 times den * step
        step = (r + 1) * k
        if term and 2 * nxt < term * step and nxt << (h + 1) < den * step:
            break
        if r >= SERIES_MAX_TERMS:
            raise ConvergenceError(
                f"series for n={n}, k={k} not converged after {SERIES_MAX_TERMS} terms"
            )
        num, den, term, r = num * step, den * step, nxt, r + 1
    # e^(-1/k) ~ e_num / (j! k^j), and den_e = den * j! k^j is the product's denominator
    e_num, j, den_e, scaled = 1, 0, den, num << (h + 1)
    while scaled >= den_e * (j + 1) * k:
        j += 1
        e_num = e_num * j * k + (-1) ** j
        den_e *= j * k
    approx = Fraction(num * e_num, den_e)
    return approx, round(approx)


def count_runs_2(n: int, k: int) -> int:
    """Flattened words of order n with exactly two runs:
    (2k-1) (2^(n-1) - 1) - k (n-1)."""
    _check_nk(n, k)
    return (2 * k - 1) * (2 ** (n - 1) - 1) - k * (n - 1)


def count_runs_3(n: int, k: int) -> int:
    """Flattened words of order n with exactly three runs (four-term form).

    The two double sums count the two-non-singleton-block cases; the inner
    sum collapses to 2^M - 1 - M.  The terms are summed over the common
    denominator 12.
    """
    _check_nk(n, k)
    total = 6 * (k - 1) * (k - 2) * (3 ** (n - 1) - 2**n + 1)
    total += k * (k - 1) * (3**n - 6 * 2**n + 6 * n + 3)
    s_with_first = 0  # one non-singleton contains the element 1
    for i in range(1, n - 2):
        m = n - 1 - i
        s_with_first += comb(n - 1, i) * (2**m - 1 - m)
    s_without_first = 0
    for i in range(2, n - 2):
        m = n - 1 - i
        s_without_first += comb(n - 1, i) * (2**m - 1 - m)
    total += 12 * k * (k - 1) * s_with_first
    total += 6 * k * k * s_without_first
    return _exact_quotient(total, 12, "three-run")


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
        return _exact_quotient(factorial(3 * m + 1), factorial(m) * 3**m, "maximum-run")
    return _exact_quotient(
        (9 * m + 10) * factorial(3 * m + 2), 4 * factorial(m) * 3**m, "maximum-run"
    )


def _exact_quotient(num: int, den: int, form: str) -> int:
    """num / den, which a closed form guarantees is an integer."""
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{form} closed form produced non-integer {num}/{den}")
    return q


def max_runs_bound(n: int, k: int) -> int:
    """ceil(kn / (k+1)), the largest run count a flattened word can have."""
    _check_nk(n, k)
    return -(-k * n // (k + 1))


class _CountTableRow(NamedTuple):
    n: int
    total: int
    run_refined: tuple[int, ...]


class CountTableRow(_CountTableRow):
    """One order: total count plus counts refined by run number (s >= 1),
    which must sum to the total."""

    __slots__ = ()

    def __new__(cls, n: int, total: int, run_refined: tuple[int, ...]):
        if sum(run_refined) != total:
            raise AssertionError(f"run refinement {run_refined} does not sum to total {total}")
        return super().__new__(cls, n, total, run_refined)


class CountTable(NamedTuple):
    k: int
    rows: tuple[CountTableRow, ...]


def run_distribution_bruteforce(
    n: int, k: int, *, budget: int | None = DEFAULT_BUDGET
) -> CountTableRow:
    """Tally flattened words of order n by run count, by enumeration."""
    from . import enumeration  # local import: enumeration depends on this module
    from .words import word_stats

    counts: dict[int, int] = {}
    total = 0
    for w in enumeration.gen_flattened(n, k, budget=budget):
        s = word_stats(w).runs
        counts[s] = counts.get(s, 0) + 1
        total += 1
    top = max(counts) if counts else 0
    _check_run_bound(n, k, top)
    refined = tuple(counts.get(s, 0) for s in range(1, top + 1))
    return CountTableRow(n, total, refined)


def count_table(k: int, max_n: int) -> CountTable:
    """Totals and run-refined counts for n=1..max_n, without enumeration.

    Runs = descents + 1, so the refinement at order n is the descent
    polynomial, entry n-1 of one descent EGF.  The totals come from one
    triangle pass; each row's sum check holds the two routes together.
    """
    from . import series  # local import: series depends on this module

    totals = flattened_totals(k, max_n)
    egf = series.descent_egf(k, max_n - 1)
    rows = []
    for n, (total, refined) in enumerate(zip(totals, egf.coeffs, strict=True), start=1):
        _check_run_bound(n, k, len(refined))
        rows.append(CountTableRow(n, total, refined))
    return CountTable(k, tuple(rows))


def _check_run_bound(n: int, k: int, top: int) -> None:
    bound = max_runs_bound(n, k)
    if top > bound:
        raise AssertionError(f"observed {top} runs, beyond the proven bound {bound}")


def _check_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
