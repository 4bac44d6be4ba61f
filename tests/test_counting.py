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
    count_flattened_dobinski,
    count_flattened_identity,
    count_flattened_recurrence,
    count_flattened_series_approx,
    count_max_runs_k2,
    count_runs_2,
    count_runs_3,
    count_table,
    descent_egf,
    egf_flattened,
    gen_flattened,
    max_runs_bound,
    run_distribution_bruteforce,
    word_stats,
)
from flatstir.counting import _next_bell_row, _next_stirling_row, flattened_totals

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


def stirling_rows(count):
    """S(a, 0..a) for a = 0..count-1, each row stepped from the last."""
    row = [1]
    for _ in range(count):
        yield row
        row = _next_stirling_row(row)


class TestStirling2:
    """The row step at k = 1 builds the Stirling numbers of the second kind."""

    @pytest.mark.parametrize("a", range(7))
    def test_matches_bruteforce(self, a):
        parts = list(brute_partitions(tuple(range(a))))
        oracle = [sum(1 for p in parts if len(p) == b) for b in range(a + 1)]
        assert list(stirling_rows(a + 1))[a] == oracle

    def test_s42(self):
        assert list(stirling_rows(5))[4][2] == 7

    def test_s00_is_one(self):
        assert next(stirling_rows(1)) == [1]

    def test_zero_blocks_of_nonempty_set(self):
        assert [row[0] for row in stirling_rows(8)] == [1] + [0] * 7

    def test_rows_match_textbook_triangle(self):
        size = 60
        table = [[0] * (size + 1) for _ in range(size + 1)]
        table[0][0] = 1
        for a in range(1, size + 1):
            for b in range(1, a + 1):
                table[a][b] = b * table[a - 1][b] + table[a - 1][b - 1]
        for a, row in enumerate(stirling_rows(size + 1)):
            assert row == table[a][: a + 1]


class TestTotals:
    def test_recurrence_reference_values(self):
        assert flattened_totals(2, 10) == TOTALS_K2
        assert count_flattened_recurrence(10, 2) == TOTALS_K2[-1]

    def test_base_case_any_k(self):
        assert count_flattened_recurrence(1, 7) == 1
        assert flattened_totals(7, 1) == [1]

    def test_identity_examples(self):
        assert count_flattened_identity(2, 2) == 2
        assert count_flattened_identity(6, 2) == 648
        assert count_flattened_identity(4, 3) == 63

    @pytest.mark.parametrize("k", range(1, 7))
    def test_identity_equals_recurrence(self, k):
        for n, total in enumerate(flattened_totals(k, 25), start=1):
            assert count_flattened_identity(n, k) == total

    @pytest.mark.parametrize(
        "n,k",
        [(300, 1), (300, 2), (300, 3), (300, 4), (300, 5), (300, 6), (600, 2), (600, 3), (600, 4)],
    )
    def test_identity_equals_recurrence_at_large_n(self, n, k):
        assert count_flattened_identity(n, k) == count_flattened_recurrence(n, k)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_dobinski_equals_one_triangle_pass(self, k):
        totals = flattened_totals(k, 150)
        assert [count_flattened_dobinski(n, k) for n in range(1, 151)] == totals

    @pytest.mark.parametrize("k", [2, 3])
    def test_dobinski_equals_recurrence_at_large_n(self, k):
        assert count_flattened_dobinski(600, k) == count_flattened_recurrence(600, k)

    def test_other_routes_hold_for_every_k_at_orders_up_to_31(self):
        """At order n the triangle, the identity and the EGF entry are
        polynomials in k of degree <= n-1: the triangle sums descent counts
        (the degree lemma in `descent_egf`), the identity's terms have degree
        i + (n-1-i-r), and EGF entry n-1 sums products of exponent entries A_j,
        each of degree <= j, over the blocks of partitions of n-1 elements.
        So agreement at k = 1..n proves the identity and the EGF route for
        every k at order n.  The finite Dobinski sum is N(k) / (k^(n-1) (n-1)!),
        whose numerator N has degree <= 2(n-1); N(k) - k^(n-1) (n-1)! total(k)
        then vanishes at k = 1..2n-1, so it is 0 and the sum holds for every k.
        """
        for k in range(1, 62):
            totals = flattened_totals(k, 31)
            egf = egf_flattened(k, 30) if k <= 31 else None
            for n in range((k + 2) // 2, 32):  # the orders n <= 31 with k <= 2n-1
                total = totals[n - 1]
                assert count_flattened_dobinski(n, k) == total, (n, k)
                if k <= n:
                    assert count_flattened_identity(n, k) == total, (n, k)
                    assert egf.egf_coefficient(n - 1) == total, (n, k)

    def test_identity_memory_is_linear(self):
        """One Stirling row at a time: no triangle in memory."""
        tracemalloc.start()
        try:
            count_flattened_identity(600, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # the whole triangle up to 600 peaks near 41 MiB

    def test_stateless_routes_accept_a_positional_context(self):
        """The benchmark harness passes a context to all three; they ignore it."""
        ctx = CountContext()
        assert count_flattened_recurrence(6, 2, ctx) == 648
        assert count_flattened_identity(6, 2, ctx) == 648
        assert egf_flattened(2, 5, ctx).egf_coefficient(5) == 648

    @pytest.mark.parametrize("k", range(1, 7))
    def test_totals_end_at_the_recurrence(self, k):
        for n in (1, 2, 7, 40):
            assert flattened_totals(k, n)[-1] == count_flattened_recurrence(n, k)

    @pytest.mark.parametrize("k,max_n", [(0, 5), (-1, 5), (2, 0), (2, -3)])
    def test_totals_reject_bad_domain(self, k, max_n):
        with pytest.raises(DomainError):
            flattened_totals(k, max_n)

    def test_rejects_n0(self):
        with pytest.raises(DomainError):
            count_flattened_recurrence(0, 2)
        with pytest.raises(DomainError):
            count_flattened_identity(0, 2)
        with pytest.raises(DomainError):
            count_flattened_dobinski(0, 2)

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (3, 4)])
    def test_matches_bruteforce(self, n, k):
        brute = run_distribution_bruteforce(n, k).total
        assert count_flattened_recurrence(n, k) == brute


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
    def test_rounds_to_exact(self, k):
        for n, exact in enumerate(flattened_totals(k, 12)):
            approx, rounded = count_flattened_series_approx(n, k, 128)
            assert rounded == exact
            assert abs(approx - exact) < 1e-6 * exact

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rounds_to_exact_far_beyond_the_precision(self, k):
        # a tail bound relative to the sum (2^-64 at 128 bits) went wrong from
        # exponent 26, 22, 20 and 19 on for k = 1..4
        for n, exact in enumerate(flattened_totals(k, 101)):
            assert count_flattened_series_approx(n, k, 128)[1] == exact, f"n={n}"

    def test_order40_k2(self):
        exact = 4439679512667761787625302425489448814772224
        for bits in (64, 128, 512):
            assert count_flattened_series_approx(39, 2, bits)[1] == exact

    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_error_is_certified(self, bits):
        # the approximation itself, not only its rounding, is within 1.5 * 2^-(bits/2)
        bound = Fraction(3, 2 ** (bits // 2 + 1))
        for k in (1, 2, 3, 4):
            for n, exact in enumerate(flattened_totals(k, 101)):
                approx, rounded = count_flattened_series_approx(n, k, bits)
                assert isinstance(approx, Fraction)
                assert abs(approx - exact) < bound, f"n={n}, k={k}"
                assert rounded == exact

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr("flatstir.counting.SERIES_MAX_TERMS", 5)
        message = r"^series for n=39, k=2 not converged after 5 terms$"
        with pytest.raises(ConvergenceError, match=message):
            count_flattened_series_approx(39, 2, 128)

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

    @pytest.mark.parametrize("k", range(1, 32))
    def test_two_and_three_runs_vs_descent_egf(self, k):
        # runs = descents + 1: entry n-1 of the descent EGF is the run refinement.
        # Each side is a polynomial in k of degree <= n-1 <= 30 (the degree lemma
        # in `descent_egf`), so agreement at k = 1..31 holds for every k.
        egf = descent_egf(k, 30)
        for n, total in enumerate(flattened_totals(k, 31), start=1):
            row = egf.coeffs[n - 1]
            assert count_runs_2(n, k) == (row[1] if len(row) >= 2 else 0), n
            assert count_runs_3(n, k) == (row[2] if len(row) >= 3 else 0), n
            assert sum(row) == total, n

    def test_descent_counts_are_polynomials_in_k_of_degree_at_most_n(self):
        """At order n+1 the (n+1)-th difference over k = 1..n+2 vanishes."""
        rows = [descent_egf(k, 9).coeffs for k in range(1, 12)]
        for n in range(10):
            for j in range(n + 1):
                values = [r[n][j] if j < len(r[n]) else 0 for r in rows[: n + 2]]
                diff = sum((-1) ** (n + 1 - i) * comb(n + 1, i) * v for i, v in enumerate(values))
                assert diff == 0, (n, j)

    def test_max_runs_vs_descent_egf(self):
        egf = descent_egf(2, 59)
        for n in range(1, 61):
            row = egf.coeffs[n - 1]
            assert len(row) == max_runs_bound(n, 2)
            assert count_max_runs_k2(n) == row[-1], n

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_descent_tally_equals_the_word_stats_tally(self, k):
        for n in range(1, 7):
            counts = {}
            for w in gen_flattened(n, k):
                runs = word_stats(w).runs
                counts[runs] = counts.get(runs, 0) + 1
            expected = tuple(counts.get(s, 0) for s in range(1, max(counts) + 1))
            assert run_distribution_bruteforce(n, k).run_refined == expected, f"n={n}"

    def test_row_invariant(self, monkeypatch):
        """`count_table` is where the triangle's totals meet the EGF rows, so a
        wrong total fails its sum check; the row itself is a plain tuple."""
        monkeypatch.setattr("flatstir.counting.flattened_totals",
                            lambda k, max_n: [1, 5][:max_n])
        message = r"^run refinement \(1, 1\) does not sum to total 5$"
        with pytest.raises(AssertionError, match=message):
            count_table(2, 2)
        assert CountTableRow(n=3, total=6, run_refined=(1, 5)) == (3, 6, (1, 5))


class TestBell:
    def test_against_partition_oracle(self):
        for n in range(8):
            oracle = sum(1 for _ in brute_partitions(tuple(range(n))))
            assert bell_number(n) == oracle

    def test_k1_counts_are_bell_numbers(self):
        for n, total in enumerate(flattened_totals(1, 13)):
            assert total == bell_number(n)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            bell_number(-1)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_weighted_step_gives_the_weighted_stirling_sum(self, k):
        """The identity's inner sum: the weighted Bell step's a(j, 0) is
        sum_r k^(j-r) S(j, r), with S from its explicit inclusion-exclusion sum."""
        row = [1]
        for j in range(61):
            if j:
                row = _next_bell_row(row, k)
            explicit = [
                sum((-1) ** i * comb(r, i) * (r - i) ** j for i in range(r + 1)) // factorial(r)
                for r in range(j + 1)
            ]
            assert len(row) == j + 1
            assert row[0] == sum(k ** (j - r) * s for r, s in enumerate(explicit))


class TestCountTable:
    def test_within_budget(self):
        table = count_table(2, 4)
        assert [row.total for row in table.rows] == [1, 2, 6, 24]
        assert table.rows[3].run_refined == (1, 15, 8)

    @pytest.mark.parametrize("k,max_n", [(1, 6), (2, 6), (3, 5)])
    def test_rows_match_bruteforce(self, k, max_n):
        table = count_table(k, max_n)
        assert table.rows == tuple(run_distribution_bruteforce(n, k) for n in range(1, max_n + 1))

    def test_totals_disagreeing_with_the_descent_egf_raise(self, monkeypatch):
        """A wrong triangle total fails the row's sum check against the EGF."""

        def off_by_one(k, max_n):
            return [f + (n >= 5) for n, f in enumerate(flattened_totals(k, max_n), start=1)]

        monkeypatch.setattr("flatstir.counting.flattened_totals", off_by_one)
        assert [row.total for row in count_table(2, 4).rows] == [1, 2, 6, 24]
        with pytest.raises(AssertionError, match=r"\(1, 37, 70, 8\) does not sum to total 117"):
            count_table(2, 5)
