import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from flatstir import (
    ConvergenceError,
    CountContext,
    CountTableRow,
    DomainError,
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
    stirling2,
)
from flatstir.counting import _next_stirling_row

TOTALS_K2 = [1, 2, 6, 24, 116, 648, 4088, 28640, 219920, 1832224]  # n = 1..10


def brute_partitions(elements):
    """Oracle: all set partitions of a tuple, by direct recursion."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for smaller in brute_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


class TestStirling2:
    @pytest.mark.parametrize("a", range(7))
    def test_matches_bruteforce(self, a, ctx):
        parts = list(brute_partitions(tuple(range(a))))
        for b in range(a + 2):
            oracle = sum(1 for p in parts if len(p) == b)
            assert stirling2(a, b, ctx) == oracle

    def test_s42(self, ctx):
        assert stirling2(4, 2, ctx) == 7

    def test_s00_is_one(self, ctx):
        assert stirling2(0, 0, ctx) == 1

    def test_more_blocks_than_elements(self, ctx):
        assert stirling2(3, 5, ctx) == 0

    def test_negative_arguments(self, ctx):
        assert stirling2(-1, 0, ctx) == 0
        assert stirling2(2, -1, ctx) == 0

    def test_zero_blocks_of_nonempty_set(self, ctx):
        assert stirling2(4, 0, ctx) == 0

    def test_memo_rows_unchanged(self, ctx):
        """The shared row step fills the memo with the textbook triangle."""
        size = 60
        table = [[0] * (size + 2) for _ in range(size + 1)]
        table[0][0] = 1
        for a in range(1, size + 1):
            for b in range(1, a + 1):
                table[a][b] = b * table[a - 1][b] + table[a - 1][b - 1]
        for a in range(size + 1):
            assert [stirling2(a, b, ctx) for b in range(a + 2)] == table[a][: a + 2]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_weighted_row_is_scaled_stirling(self, k):
        """The identity's row step T(a, j) = jk T(a-1, j) + T(a-1, j-1) gives
        k^(a-j) S(a, j), with S from its explicit inclusion-exclusion sum."""
        row = [1]
        for a in range(61):
            if a:
                row = _next_stirling_row(row, k)
            explicit = [
                sum((-1) ** i * comb(j, i) * (j - i) ** a for i in range(j + 1)) // factorial(j)
                for j in range(a + 1)
            ]
            assert row == [k ** (a - j) * s for j, s in enumerate(explicit)]


class TestTotals:
    def test_recurrence_reference_values(self, ctx):
        assert [count_flattened_recurrence(n, 2, ctx) for n in range(1, 11)] == TOTALS_K2

    def test_base_case_any_k(self, ctx):
        assert count_flattened_recurrence(1, 7, ctx) == 1

    def test_identity_examples(self, ctx):
        assert count_flattened_identity(2, 2, ctx) == 2
        assert count_flattened_identity(6, 2, ctx) == 648
        assert count_flattened_identity(4, 3, ctx) == 63

    @pytest.mark.parametrize("k", range(1, 7))
    def test_identity_equals_recurrence(self, k, ctx):
        for n in range(1, 26):
            assert count_flattened_identity(n, k, ctx) == count_flattened_recurrence(n, k, ctx)

    @pytest.mark.parametrize(
        "n,k", [(300, 1), (300, 2), (300, 3), (300, 4), (600, 2), (600, 3), (600, 4)]
    )
    def test_identity_equals_recurrence_at_large_n(self, n, k):
        ctx = CountContext()  # fresh: the triangle's memo for k grows to order n
        assert count_flattened_identity(n, k, ctx) == count_flattened_recurrence(n, k, ctx)

    def test_identity_memory_is_linear(self):
        """One Stirling row at a time: no triangle, in the memo or in memory."""
        ctx = CountContext()
        tracemalloc.start()
        try:
            count_flattened_identity(600, 2, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # the whole triangle up to 600 peaks near 41 MiB
        assert ctx._stirling_rows == [[1]]

    def test_shared_context_grows_out_of_order(self):
        shared = CountContext()
        for k in (2, 3):
            for n in (50, 3, 79):
                fresh = count_flattened_recurrence(n, k, CountContext())
                assert count_flattened_recurrence(n, k, shared) == fresh

    def test_rejects_n0(self, ctx):
        with pytest.raises(DomainError):
            count_flattened_recurrence(0, 2, ctx)
        with pytest.raises(DomainError):
            count_flattened_identity(0, 2, ctx)

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (3, 4)])
    def test_matches_bruteforce(self, n, k, ctx):
        brute = run_distribution_bruteforce(n, k).total
        assert count_flattened_recurrence(n, k, ctx) == brute


class TestSeriesApprox:
    def test_order5_k2(self):
        approx, rounded = count_flattened_series_approx(4, 2, 128)
        assert rounded == 116
        assert abs(approx - 116) < 1e-6 * 116

    def test_order1_k3(self):
        assert count_flattened_series_approx(0, 3, 128)[1] == 1

    def test_order10_k2(self):
        assert count_flattened_series_approx(9, 2, 128)[1] == 1832224

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rounds_to_exact(self, k, ctx):
        for n in range(12):
            exact = count_flattened_recurrence(n + 1, k, ctx)
            approx, rounded = count_flattened_series_approx(n, k, 128)
            assert rounded == exact
            assert abs(approx - exact) < 1e-6 * exact

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rounds_to_exact_far_beyond_the_precision(self, k, ctx):
        # a tail bound relative to the sum (2^-64 at 128 bits) went wrong from
        # exponent 26, 22, 20 and 19 on for k = 1..4
        for n in range(101):
            exact = count_flattened_recurrence(n + 1, k, ctx)
            assert count_flattened_series_approx(n, k, 128)[1] == exact, f"n={n}"

    def test_order40_k2(self):
        exact = 4439679512667761787625302425489448814772224
        for bits in (64, 128, 512):
            assert count_flattened_series_approx(39, 2, bits)[1] == exact

    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_error_is_certified(self, bits, ctx):
        # the approximation itself, not only its rounding, is within 1.5 * 2^-(bits/2)
        bound = Fraction(3, 2 ** (bits // 2 + 1))
        for k in (1, 2, 3, 4):
            for n in range(101):
                exact = count_flattened_recurrence(n + 1, k, ctx)
                approx, rounded = count_flattened_series_approx(n, k, bits)
                assert isinstance(approx, Fraction)
                assert abs(approx - exact) < bound, f"n={n}, k={k}"
                assert rounded == exact

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            count_flattened_series_approx(39, 2, 128, max_terms=5)

    def test_rejects_low_precision(self):
        with pytest.raises(DomainError):
            count_flattened_series_approx(3, 2, 32)


class TestRunCounts:
    def test_two_runs_examples(self):
        assert count_runs_2(4, 2) == 15
        assert count_runs_2(5, 2) == 37
        assert count_runs_2(1, 1) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_runs_vs_bruteforce(self, k):
        for n in range(1, 7):
            row = run_distribution_bruteforce(n, k).run_refined
            brute = row[1] if len(row) >= 2 else 0
            assert count_runs_2(n, k) == brute

    def test_three_runs_examples(self):
        assert count_runs_3(5, 2) == 70
        assert count_runs_3(6, 2) == 374
        assert count_runs_3(3, 2) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_three_runs_vs_bruteforce(self, k):
        for n in range(1, 7):
            row = run_distribution_bruteforce(n, k).run_refined
            brute = row[2] if len(row) >= 3 else 0
            assert count_runs_3(n, k) == brute

    def test_max_runs_examples(self):
        assert count_max_runs_k2(4) == 8
        assert count_max_runs_k2(6) == 190
        assert count_max_runs_k2(7) == 280

    def test_max_runs_vs_bruteforce(self):
        for n in range(1, 7):
            row = run_distribution_bruteforce(n, 2).run_refined
            assert len(row) == max_runs_bound(n, 2)  # the bound is attained
            assert count_max_runs_k2(n) == row[-1]

    def test_bound_examples(self):
        assert max_runs_bound(6, 2) == 4
        assert max_runs_bound(1, 5) == 1
        assert max_runs_bound(10, 2) == 7


class TestRunDistribution:
    def test_n5_k2(self):
        row = run_distribution_bruteforce(5, 2)
        assert row.run_refined == (1, 37, 70, 8)
        assert row.total == 116

    def test_n2_k2(self):
        assert run_distribution_bruteforce(2, 2).run_refined == (1, 1)

    def test_n3_k3(self):
        assert run_distribution_bruteforce(3, 3).run_refined == (1, 9, 2)

    def test_row_invariant(self):
        with pytest.raises(AssertionError):
            CountTableRow(2, 5, (1, 1))


class TestBell:
    def test_against_partition_oracle(self, ctx):
        for n in range(8):
            oracle = sum(1 for _ in brute_partitions(tuple(range(n))))
            assert bell_number(n, ctx) == oracle

    def test_k1_counts_are_bell_numbers(self, ctx):
        for n in range(13):
            assert count_flattened_recurrence(n + 1, 1, ctx) == bell_number(n, ctx)

    def test_rejects_negative(self, ctx):
        with pytest.raises(DomainError):
            bell_number(-1, ctx)


class TestCountTable:
    def test_within_budget(self, ctx):
        table = count_table(2, 4, ctx=ctx)
        assert [row.total for row in table.rows] == [1, 2, 6, 24]
        assert table.rows[3].run_refined == (1, 15, 8)

    @pytest.mark.parametrize("k,max_n", [(1, 6), (2, 6), (3, 5)])
    def test_rows_match_bruteforce(self, k, max_n, ctx):
        table = count_table(k, max_n, ctx=ctx)
        assert table.rows == tuple(run_distribution_bruteforce(n, k) for n in range(1, max_n + 1))
