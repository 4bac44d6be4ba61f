import sys
import tracemalloc
from itertools import product

import pytest

from flatstir import (
    BudgetExceededError,
    ColoredPartition,
    DomainError,
    StirlingWord,
    bell_number,
    count_flattened_recurrence,
    descent_polynomial_bruteforce,
    gen_flattened,
    gen_gcp,
    gen_stirling,
    is_flattened,
    is_valid_stirling,
    phi,
    predicted_stirling_count,
    run_distribution_bruteforce,
)
from flatstir.counting import flattened_totals
from flatstir.enumeration import _set_partitions
from flatstir.partitions import first_failed_rule

STIRLING_COUNTS_K2 = [1, 3, 15, 105, 945]  # n = 1..5
SMALL = [(n, k) for n in range(1, 6) for k in range(1, 4)]
BUDGET_GRID = [(n, k) for n in range(1, 9) for k in range(1, 5)]


class TestStirlingGenerator:
    def test_small_counts_match_product_formula(self):
        for n, expected in enumerate(STIRLING_COUNTS_K2, start=1):
            assert predicted_stirling_count(n, 2) == expected
            assert sum(1 for _ in gen_stirling(n, 2)) == expected

    def test_n2_k2_words(self):
        words = {w.letters for w in gen_stirling(2, 2)}
        assert words == {(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)}

    def test_single_letter(self):
        words = list(gen_stirling(1, 4))
        assert len(words) == 1
        assert words[0].letters == (1, 1, 1, 1)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (3, 3)])
    def test_all_yields_are_valid_and_distinct(self, n, k):
        seen = set()
        for w in gen_stirling(n, k):
            assert is_valid_stirling(w)
            assert w not in seen
            seen.add(w)
        assert len(seen) == predicted_stirling_count(n, k)

    def test_rejects_n0(self):
        with pytest.raises(DomainError):
            next(gen_stirling(0, 2))

    def test_rejects_k0(self):
        with pytest.raises(DomainError):
            next(gen_stirling(2, 0))

    @pytest.mark.parametrize("n,k", SMALL)
    def test_stream_order_is_left_to_right_insertion(self, n, k):
        assert [w.letters for w in gen_stirling(n, k)] == insertion_reference(n, k)


def insertion_reference(n, k):
    """Q_n^k from the definition: insert m^k into each gap of every word of
    order m-1, gaps left to right, recursively."""
    out = []

    def extend(word, m):
        if m > n:
            out.append(tuple(word))
            return
        for pos in range(len(word) + 1):
            extend(word[:pos] + [m] * k + word[pos:], m + 1)

    extend([], 1)
    return out


class TestFlattenedGenerator:
    def test_count_n5_k2(self):
        assert sum(1 for _ in gen_flattened(5, 2)) == 116

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_order_one(self, k):
        assert sum(1 for _ in gen_flattened(1, k)) == 1

    def test_count_n3_k3(self):
        assert sum(1 for _ in gen_flattened(3, 3)) == 12

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 4)])
    def test_routes_agree(self, n, k):
        filtered = set(gen_flattened(n, k, via="filter"))
        mapped = set(gen_flattened(n, k, via="bijection"))
        assert filtered == mapped

    def test_walk_is_lazy(self):
        # a materialised level (Q_6^2 alone) would take about 1.5 MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in gen_flattened(7, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 4088
        assert peak < 64 * 1024

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            next(gen_flattened(2, 2, via="magic"))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, 4)])
    def test_deleting_the_top_block_keeps_a_word_flattened(self, n, k):
        # the lemma the filter route prunes by, checked on every flattened word
        for w in gen_stirling(n, k):
            if not is_flattened(w):
                continue
            first = w.letters.index(n)
            assert w.letters[first:first + k] == (n,) * k
            parent = w.letters[:first] + w.letters[first + k:]
            assert is_flattened(StirlingWord(parent, n - 1, k))


class TestGcpGenerator:
    def test_n2_k2(self):
        texts = {p.to_text() for p in gen_gcp(2, 2)}
        assert texts == {"1_1 2_1", "1_1 | 2_1"}

    def test_n1_k1(self):
        assert sum(1 for _ in gen_gcp(1, 1)) == 1

    def test_n4_k2_count(self):
        assert sum(1 for _ in gen_gcp(4, 2)) == 24

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_recurrence_and_all_validate(self, n, k):
        seen = set()
        for p in gen_gcp(n, k):
            assert first_failed_rule(p) is None
            assert p not in seen
            seen.add(p)
        assert len(seen) == count_flattened_recurrence(n, k)

    def test_k1_first_block_is_singleton(self):
        for p in gen_gcp(4, 1):
            assert p.blocks[0] == ((1, 1),)

    def test_rejects_n0(self):
        with pytest.raises(DomainError):
            next(gen_gcp(0, 1))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, 4)])
    def test_stream_order_is_growth_string_then_colors(self, n, k):
        # the order `enumerate --as partitions` prints, from a key that knows
        # nothing of the walk: strictly increasing, so no ties either
        keys = [growth_string_then_colors(p) for p in gen_gcp(n, k)]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, 4)])
    def test_stream_equals_a_literal_enumeration(self, n, k):
        assert list(gen_gcp(n, k)) == literal_gcp(n, k)

    def test_walk_is_lazy(self):
        # the first block's colorings alone are 199^2 tuples, about 3 MB
        tracemalloc.start()
        try:
            first = next(gen_gcp(3, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.blocks == (((1, 1), (2, 1), (3, 1)),)
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n", range(9))
    def test_set_partitions_are_distinct_and_kept(self, n):
        # held all at once: a walk that reuses its blocks would collapse them
        kept = list(_set_partitions(n))
        assert len(set(kept)) == len(kept) == bell_number(n)
        assert all(sorted(e for b in blocks for e in b) == list(range(1, n + 1)) for blocks in kept)


def literal_gcp(n, k):
    """GCP_k(n) from the definitions, in stream order: restricted growth
    strings ascending, then the non-minimum elements' colors ascending, block
    by block; minima take color 1, the first block's other elements 1..k-1."""
    out = []
    for growth in product(range(n), repeat=n):
        if any(g > max(growth[:i], default=-1) + 1 for i, g in enumerate(growth)):
            continue
        blocks = [[e for e in range(1, n + 1) if growth[e - 1] == b] for b in range(max(growth) + 1)]
        ranges = [range(1, k) if b == 0 else range(1, k + 1)
                  for b, block in enumerate(blocks) for _ in block[1:]]
        for colors in product(*ranges):
            it = iter(colors)
            colored = [[(block[0], 1)] + [(e, next(it)) for e in block[1:]] for block in blocks]
            out.append(ColoredPartition(n, k, colored))
    return out


def growth_string_then_colors(p):
    """The restricted growth string of p's set partition (element i's block
    index), then the colors of the non-minimum elements, block by block."""
    growth = [0] * p.n
    for index, block in enumerate(p.blocks):
        for e, _ in block:
            growth[e - 1] = index
    return tuple(growth), tuple(c for block in p.blocks for _, c in block[1:])


class TestTrustedConstruction:
    """Generated objects skip validation; they must equal validated ones."""

    @pytest.mark.parametrize("n,k", SMALL)
    def test_stirling_words_equal_validated(self, n, k):
        for w in gen_stirling(n, k):
            assert w == StirlingWord(w.letters, n, k)
            assert is_valid_stirling(w)

    @pytest.mark.parametrize("n,k", SMALL)
    def test_partitions_equal_validated(self, n, k):
        for p in gen_gcp(n, k):
            q = ColoredPartition(n, k, p.blocks)
            assert p == q
            assert first_failed_rule(p) is None

    @pytest.mark.parametrize("n,k", SMALL + [(7, 2), (6, 3), (5, 4)])
    def test_filter_route_is_the_checked_filter(self, n, k):
        expected = [w for w in gen_stirling(n, k) if is_flattened(w)]
        assert list(gen_flattened(n, k, via="filter")) == expected

    @pytest.mark.parametrize("n,k", SMALL)
    def test_bijection_route_is_checked_phi(self, n, k):
        expected = [phi(p) for p in gen_gcp(n, k)]
        assert list(gen_flattened(n, k, via="bijection")) == expected


def _refuses_exactly_past(gen, n, k, size, **route):
    """gen(n, k) refuses at budget size - 1 and yields its first object at size."""
    with pytest.raises(BudgetExceededError):
        next(gen(n, k, budget=size - 1, **route))
    next(gen(n, k, budget=size, **route))


def _lines_run(fn, cap=10_000):
    """The Python lines that fn() runs, counted by a tracer that stops it past cap."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        if lines > cap:
            raise RuntimeError(f"more than {cap} lines run")
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return lines


class TestBudget:
    def test_stirling_over_budget(self):
        with pytest.raises(BudgetExceededError):
            next(gen_stirling(2, 2, budget=2))
        # both walks over Q_n^k are guarded by the Stirling count
        for n, k in BUDGET_GRID:
            size = predicted_stirling_count(n, k)
            _refuses_exactly_past(gen_stirling, n, k, size)
            _refuses_exactly_past(gen_flattened, n, k, size, via="filter")

    def test_force_overrides(self):
        assert sum(1 for _ in gen_stirling(2, 2, budget=None)) == 3

    def test_default_budget_blocks_huge_instances(self):
        with pytest.raises(BudgetExceededError):
            next(gen_stirling(30, 2))

    @pytest.mark.parametrize("n,k", [(4, 2), (3, 3), (5, 1)])
    def test_filter_route_over_budget_on_first_next(self, n, k):
        size = predicted_stirling_count(n, k)
        with pytest.raises(BudgetExceededError):
            next(gen_flattened(n, k, budget=size - 1))
        assert sum(1 for _ in gen_flattened(n, k, budget=size)) == count_flattened_recurrence(n, k)

    def test_bijection_route_over_budget_on_first_next(self):
        size = count_flattened_recurrence(4, 2)
        with pytest.raises(BudgetExceededError):
            next(gen_flattened(4, 2, via="bijection", budget=size - 1))
        assert sum(1 for _ in gen_flattened(4, 2, via="bijection", budget=size)) == size
        for k in range(1, 5):
            for n, size in enumerate(flattened_totals(k, 8), start=1):
                _refuses_exactly_past(gen_flattened, n, k, size, via="bijection")

    @pytest.mark.parametrize("tally", [run_distribution_bruteforce, descent_polynomial_bruteforce])
    @pytest.mark.parametrize("n,k", [(4, 2), (3, 3)])
    def test_bruteforce_tallies_stop_at_the_stirling_count(self, tally, n, k):
        size = predicted_stirling_count(n, k)
        with pytest.raises(BudgetExceededError):
            tally(n, k, budget=size - 1)
        assert tally(n, k, budget=size) == tally(n, k, budget=None)

    def test_gcp_over_budget(self):
        with pytest.raises(BudgetExceededError):
            next(gen_gcp(5, 2, budget=10))
        for k in range(1, 5):
            for n, size in enumerate(flattened_totals(k, 8), start=1):
                _refuses_exactly_past(gen_gcp, n, k, size)

    def test_refusal_stops_at_the_order_past_the_cap(self):
        """The guard reads sizes up to the first one past the cap and no further,
        so a refusal costs the same at n = 40 as at n = 10^5, and names that order."""
        with pytest.raises(BudgetExceededError) as info:
            next(gen_gcp(40, 2))
        message = str(info.value)
        # f(11) = 16,430,176 <= 10^8 < f(12) = 157,554,048
        assert "at order 12, with 157554048 objects" in message
        assert "GCP_2(40)" in message and "budget=None" in message
        assert len(message) < 200

        def refusal_lines(gen, n):
            def refuse():
                with pytest.raises(BudgetExceededError):
                    next(gen(n, 2))

            return _lines_run(refuse)

        for gen in (gen_gcp, gen_stirling):
            assert refusal_lines(gen, 10**5) == refusal_lines(gen, 40)
