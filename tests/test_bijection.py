import random

import pytest

from flatstir import (
    ColoredPartition,
    MalformedWordError,
    NotFlattenedError,
    NotStirlingError,
    PartitionRuleError,
    StirlingWord,
    block_descent_count,
    gen_flattened,
    gen_gcp,
    is_flattened,
    parse_partition,
    parse_word,
    phi,
    phi_inverse,
    word_stats,
)

EXAMPLE_PARTITION = "1_1 2_3 4_2 6_3 | 3_1 | 5_1"
EXAMPLE_WORD = "1 2 2 2 2 6 6 6 6 1 4 4 4 4 1 1 3 3 3 3 5 5 5 5"


class TestWorkedExample:
    def test_forward(self):
        p = parse_partition(EXAMPLE_PARTITION, 4)
        assert phi(p).to_text() == EXAMPLE_WORD

    def test_inverse(self):
        w = parse_word(EXAMPLE_WORD, 4)
        assert phi_inverse(w) == parse_partition(EXAMPLE_PARTITION, 4)


class TestSmallCases:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_singletons_map_to_sorted_word(self, k):
        n = 5
        p = ColoredPartition(n, k, [[(e, 1)] for e in range(1, n + 1)])
        one_run = StirlingWord(tuple(v for v in range(1, n + 1) for _ in range(k)), n, k)
        assert phi(p) == one_run
        assert phi_inverse(one_run) == p

    def test_two_in_one_block(self):
        p = ColoredPartition(2, 2, [[(1, 1), (2, 1)]])
        assert phi(p).letters == (1, 2, 2, 1)

    def test_inverse_of_1221(self):
        w = StirlingWord((1, 2, 2, 1), 2, 2)
        assert phi_inverse(w) == ColoredPartition(2, 2, [[(1, 1), (2, 1)]])

    def test_gap_numbering_is_right_to_left(self):
        # the color-2 element lands left of the color-1 element
        p = ColoredPartition(3, 3, [[(1, 1), (2, 2), (3, 1)]])
        assert phi(p).letters == (1, 2, 2, 2, 1, 3, 3, 3, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partition_side(self, n, k):
        for p in gen_gcp(n, k):
            w = phi(p)
            assert is_flattened(w)
            assert phi_inverse(w) == p

    @pytest.mark.parametrize(
        "n,k",
        [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (7, 1), (6, 2), (5, 3), (4, 4)],
    )
    def test_word_side(self, n, k):
        for w in gen_flattened(n, k):
            assert phi(phi_inverse(w)) == w

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [30, 60, 100])
    def test_random_large_partitions(self, n, k):
        rng = random.Random(1000 * n + k)
        for _ in range(20):
            p = random_good_partition(rng, n, k)
            assert phi_inverse(phi(p)) == p

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
    def test_image_is_exactly_the_flattened_subset(self, n, k):
        image = {phi(p) for p in gen_gcp(n, k)}
        assert image == set(gen_flattened(n, k))

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (4, 3)])
    def test_descent_transport(self, n, k):
        for p in gen_gcp(n, k):
            assert word_stats(phi(p)).descents == block_descent_count(p)


def phi_by_insertion(p):
    """phi from the paper's construction, independent of `_phi_letters`.

    Each block starts as the k copies of its minimum.  Gap i is the gap
    just left of the copy with i copies at or right of it, so gaps k..1 run
    right to left; each other element, in increasing order, puts its k
    copies at the right end of its color's gap.
    """
    letters = []
    for block in p.blocks:
        minimum = block[0][0]
        sub = [minimum] * p.k
        for x, color in block[1:]:
            copies = [i for i, v in enumerate(sub) if v == minimum]
            end = copies[-color]
            sub[end:end] = [x] * p.k
        letters += sub
    return tuple(letters)


def test_phi_is_the_gap_construction():
    checked = 0
    for k in range(1, 5):
        for n in range(1, 7):
            for p in gen_gcp(n, k):
                letters = phi_by_insertion(p)
                assert phi(p).letters == letters, p.to_text()
                assert phi_inverse(StirlingWord(letters, n, k)) == p, p.to_text()
                checked += 1
    assert checked == 14822


def random_good_partition(rng, n, k):
    """A good partition drawn element by element: each element joins a
    random existing block or opens a new one, then takes a legal color."""
    blocks = [[(1, 1)]]
    for e in range(2, n + 1):
        # at k = 1 the first block must stay {1}, so it is closed
        i = rng.randrange(0 if k > 1 else 1, len(blocks) + 1)
        if i == len(blocks):
            blocks.append([(e, 1)])
        else:
            blocks[i].append((e, rng.randint(1, k - 1 if i == 0 else k)))
    return ColoredPartition(n, k, blocks)


class TestDomainErrors:
    def test_phi_rejects_bad_partition(self):
        bad = ColoredPartition(2, 2, (((1, 1), (2, 2)),))  # breaks Rule 2
        with pytest.raises(PartitionRuleError):
            phi(bad)

    def test_inverse_rejects_non_flattened(self):
        with pytest.raises(NotFlattenedError):
            phi_inverse(StirlingWord((2, 2, 1, 1), 2, 2))

    def test_inverse_rejects_non_stirling(self):
        with pytest.raises(NotStirlingError):
            phi_inverse(StirlingWord((2, 1, 1, 2), 2, 2))

    def test_inverse_rejects_empty_word(self):
        with pytest.raises(MalformedWordError):
            phi_inverse(StirlingWord((), 0, 2))
