import pytest

from flatstir import (
    BudgetExceededError,
    ColoredPartition,
    DomainError,
    StirlingWord,
    count_flattened_recurrence,
    gen_flattened,
    gen_gcp,
    gen_stirling,
    is_flattened,
    is_valid_stirling,
    predicted_stirling_count,
    validate,
)

STIRLING_COUNTS_K2 = [1, 3, 15, 105, 945]  # n = 1..5


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

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            next(gen_flattened(2, 2, via="magic"))


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
    def test_counts_match_recurrence_and_all_validate(self, n, k, ctx):
        seen = set()
        for p in gen_gcp(n, k):
            assert validate(p)
            assert p not in seen
            seen.add(p)
        assert len(seen) == count_flattened_recurrence(n, k, ctx)

    def test_k1_first_block_is_singleton(self):
        for p in gen_gcp(4, 1):
            assert p.blocks[0] == ((1, 1),)

    def test_rejects_n0(self):
        with pytest.raises(DomainError):
            next(gen_gcp(0, 1))


SMALL = [(n, k) for n in range(1, 6) for k in range(1, 4)]


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
            assert q.input_was_standard
            assert validate(p)

    @pytest.mark.parametrize("n,k", SMALL)
    def test_filter_route_is_the_checked_filter(self, n, k):
        expected = [w for w in gen_stirling(n, k) if is_flattened(w)]
        assert list(gen_flattened(n, k, via="filter")) == expected


class TestBudget:
    def test_stirling_over_budget(self):
        with pytest.raises(BudgetExceededError):
            next(gen_stirling(2, 2, budget=2))

    def test_force_overrides(self):
        assert sum(1 for _ in gen_stirling(2, 2, budget=2, force=True)) == 3

    def test_default_budget_blocks_huge_instances(self):
        with pytest.raises(BudgetExceededError):
            next(gen_stirling(30, 2))

    def test_gcp_over_budget(self):
        with pytest.raises(BudgetExceededError):
            next(gen_gcp(5, 2, budget=10))
