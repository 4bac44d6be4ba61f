import json

import pytest

from flatstir import (
    ColoredPartition,
    MalformedPartitionError,
    PartitionRuleError,
    block_descent_count,
    gen_gcp,
    good_partition,
    parse_partition,
    partitions,
    phi,
    word_stats,
)
from flatstir.partitions import first_failed_rule, partition_from_json

GOOD_K4 = "1_1 2_3 4_2 | 3_1 | 5_1"


class TestValidate:
    def test_published_example_good_at_k4(self):
        assert first_failed_rule(parse_partition(GOOD_K4, 4)) is None

    def test_published_example_bad_at_k3(self):
        p = parse_partition(GOOD_K4, 3)
        assert first_failed_rule(p) is not None
        assert "Rule 2" in first_failed_rule(p)

    def test_singleton(self):
        assert first_failed_rule(ColoredPartition(1, 1, (((1, 1),),))) is None

    def test_rule1_violation(self):
        p = ColoredPartition(2, 2, (((1, 1),), ((2, 2),)))
        assert first_failed_rule(p) is not None
        assert "Rule 1" in first_failed_rule(p)

    def test_k1_first_block_must_be_singleton(self):
        p = ColoredPartition(2, 1, (((1, 1), (2, 1)),))
        assert first_failed_rule(p) is not None
        assert "first block" in first_failed_rule(p)

    def test_k1_all_singletons_good(self):
        p = ColoredPartition(3, 1, (((1, 1),), ((2, 1), (3, 1))))
        assert first_failed_rule(p) is None


class TestGoodPartitionConstructor:
    def test_builds_good(self):
        p = good_partition(2, 2, [[(1, 1), (2, 1)]])
        assert p.blocks == (((1, 1), (2, 1)),)

    def test_raises_naming_rule_2(self):
        with pytest.raises(PartitionRuleError, match="Rule 2"):
            good_partition(2, 2, [[(1, 1), (2, 2)]])

    def test_raises_naming_rule_1(self):
        with pytest.raises(PartitionRuleError, match="Rule 1"):
            good_partition(2, 3, [[(1, 1)], [(2, 3)]])


class TestStructure:
    def test_not_a_partition(self):
        with pytest.raises(MalformedPartitionError):
            ColoredPartition(3, 2, (((1, 1), (2, 1)),))  # 3 missing

    def test_duplicate_element(self):
        with pytest.raises(MalformedPartitionError):
            ColoredPartition(2, 2, (((1, 1), (1, 1)), ((2, 1),)))

    def test_color_out_of_range(self):
        with pytest.raises(MalformedPartitionError):
            ColoredPartition(2, 2, (((1, 1), (2, 3)),))

    def test_empty_block(self):
        with pytest.raises(MalformedPartitionError):
            ColoredPartition(1, 1, (((1, 1),), ()))


class TestNormalization:
    def test_blocks_and_elements_sorted(self):
        p = ColoredPartition(5, 4, (((3, 1),), ((4, 2), (1, 1), (2, 3)), ((5, 1),)))
        assert p.blocks == (((1, 1), (2, 3), (4, 2)), ((3, 1),), ((5, 1),))

    def test_standard_input_flagged(self):
        p = ColoredPartition(2, 2, (((1, 1),), ((2, 1),)))
        assert p.blocks == (((1, 1),), ((2, 1),))

    def test_idempotent(self):
        messy = ColoredPartition(5, 4, (((3, 1),), ((4, 2), (1, 1), (2, 3)), ((5, 1),)))
        again = ColoredPartition(messy.n, messy.k, messy.blocks)
        assert again == messy
        assert again.blocks == messy.blocks

    def test_normalization_does_not_affect_equality(self):
        a = ColoredPartition(2, 2, (((2, 1),), ((1, 1),)))
        b = ColoredPartition(2, 2, (((1, 1),), ((2, 1),)))
        assert a == b


class TestBlockDescentCount:
    def test_published_example(self):
        p = parse_partition("1_1 2_3 4_2 6_3 | 3_1 | 5_1", 4)
        assert block_descent_count(p) == 2

    def test_all_singletons(self):
        p = good_partition(4, 3, [[(1, 1)], [(2, 1)], [(3, 1)], [(4, 1)]])
        assert block_descent_count(p) == 0

    def test_two_blocks(self):
        p = parse_partition("1_1 2_1 | 3_1 4_2", 2)
        assert block_descent_count(p) == 2
        assert word_stats(phi(p)).descents == 2


class TestSerialization:
    def test_text_round_trip(self):
        p = parse_partition(GOOD_K4, 4)
        assert parse_partition(p.to_text(), 4) == p

    def test_text_format(self):
        p = good_partition(2, 2, [[(1, 1), (2, 1)]])
        assert p.to_text() == "1_1 2_1"

    def test_json_round_trip(self):
        p = parse_partition(GOOD_K4, 4)
        assert partition_from_json(p.to_json()) == p
        payload = json.loads(p.to_json())
        assert payload["blocks"][0] == [[1, 1], [2, 3], [4, 2]]

    # GCP_8(5) has 4,916 distinct blocks, more than the block memo holds
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 4)] + [(5, 8)])
    def test_json_is_the_nested_list_form(self, n, k):
        distinct = set()
        for p in gen_gcp(n, k):
            nested = [[[e, c] for e, c in b] for b in p.blocks]
            assert p.to_json() == json.dumps({"n": n, "k": k, "blocks": nested})
            assert p.to_text() == " | ".join(" ".join(f"{e}_{c}" for e, c in b) for b in p.blocks)
            assert partition_from_json(p.to_json()) == p
            distinct.update(p.blocks)
        if (n, k) == (5, 8):
            assert len(distinct) > partitions.BLOCK_MEMO_SIZE
            assert partitions._block_json.cache_info().currsize == partitions.BLOCK_MEMO_SIZE

    @pytest.mark.parametrize(
        "payload",
        [
            '{"n": 2, "k": 2, "blocks": [[[1, 1], [2.9, 1.7]]]}',
            '{"n": 2, "k": 2, "blocks": [[[1, true], [2, 1]]]}',
            '{"n": 2.0, "k": 2, "blocks": [[[1, 1], [2, 1]]]}',
            '{"n": 2, "k": true, "blocks": [[[1, 1]], [[2, 1]]]}',
        ],
    )
    def test_json_accepts_only_integers(self, payload):
        with pytest.raises(MalformedPartitionError, match="expected a JSON integer"):
            partition_from_json(payload)

    @pytest.mark.parametrize(
        "payload,message",
        [
            ("[1]", "expected a JSON object with keys 'n', 'k', 'blocks'"),
            ('"1_1"', "expected a JSON object"),
            ('{"letters": [1, 1], "order": 1, "multiplicity": 2}', "lacks 'n', 'k', 'blocks'"),
            ('{"n": 1, "k": 1}', "lacks 'blocks'"),
            ('{"n": 1, "k": 1, "blocks": 1}', "blocks must be arrays"),
            ('{"n": 1, "k": 1, "blocks": [1]}', "blocks must be arrays"),
            ('{"n": 1, "k": 1, "blocks": [[[1, 1, 1]]]}', "blocks must be arrays"),
        ],
    )
    def test_json_of_the_wrong_shape(self, payload, message):
        with pytest.raises(MalformedPartitionError, match=message):
            partition_from_json(payload)

    def test_parse_rejects_bad_token(self):
        with pytest.raises(MalformedPartitionError):
            parse_partition("1_1 2", 2)
