import json
import math

import pytest
from hypothesis import given, strategies as st

from flatstir import (
    MalformedWordError,
    NotStirlingError,
    StirlingWord,
    gen_stirling,
    is_flattened,
    is_valid_stirling,
    parse_word,
    word_stats,
)
from flatstir.words import word_from_json

EXAMPLE_LETTERS = (1, 2, 2, 2, 2, 6, 6, 6, 6, 1, 4, 4, 4, 4, 1, 1, 3, 3, 3, 3, 5, 5, 5, 5)


def example_word():
    return StirlingWord(EXAMPLE_LETTERS, 6, 4)


class TestConstruction:
    def test_valid(self):
        w = StirlingWord((1, 2, 2, 1), 2, 2)
        assert w.letters == (1, 2, 2, 1)

    def test_empty_word_is_structurally_valid(self):
        w = StirlingWord((), 0, 2)
        assert w.is_empty

    def test_wrong_length(self):
        with pytest.raises(MalformedWordError):
            StirlingWord((1, 2, 2), 2, 2)

    def test_wrong_multiset(self):
        with pytest.raises(MalformedWordError):
            StirlingWord((1, 1, 1, 2), 2, 2)

    def test_value_out_of_range(self):
        with pytest.raises(MalformedWordError):
            StirlingWord((1, 1, 3, 3), 2, 2)

    def test_zero_multiplicity(self):
        with pytest.raises(MalformedWordError):
            StirlingWord((), 0, 0)

    @pytest.mark.parametrize(
        "letters,n,k",
        [
            (("a", 1), 1, 2),  # letters that do not compare with each other
            ((1, 2, 2, 2), 2, 2),  # right length, one copy of 1 short
            ((0, 0), 1, 2),  # a letter below 1
        ],
    )
    def test_not_the_multiset(self, letters, n, k):
        with pytest.raises(MalformedWordError, match="letters are not the multiset"):
            StirlingWord(letters, n, k)


class TestStirlingPredicate:
    def test_simple_valid(self):
        assert is_valid_stirling(StirlingWord((1, 2, 2, 1), 2, 2))

    def test_simple_invalid(self):
        assert not is_valid_stirling(StirlingWord((2, 1, 1, 2), 2, 2))

    def test_worked_example(self):
        assert is_valid_stirling(example_word())

    def test_valid_but_not_flattened(self):
        w = StirlingWord((2, 2, 1, 1), 2, 2)
        assert is_valid_stirling(w)
        assert not is_flattened(w)

    def test_k1_always_valid(self):
        assert is_valid_stirling(StirlingWord((3, 1, 2), 3, 1))

    def test_empty(self):
        assert is_valid_stirling(StirlingWord((), 0, 3))


class TestFlattenedPredicate:
    def test_single_run(self):
        assert is_flattened(StirlingWord((1, 1, 2, 2), 2, 2))

    def test_decreasing_leaders(self):
        assert not is_flattened(StirlingWord((2, 2, 1, 1), 2, 2))

    def test_worked_example(self):
        assert is_flattened(example_word())

    def test_raises_on_non_stirling(self):
        with pytest.raises(NotStirlingError):
            is_flattened(StirlingWord((2, 1, 1, 2), 2, 2))


class TestWordStats:
    def test_worked_example(self):
        # direct scan: descents at 6->1 and 4->1; plateaus inside the six
        # constant blocks 2222/6666/4444/11/3333/5555 = 3+3+3+1+3+3 = 16;
        # ascents 1<2, 2<6, 1<4, 1<3, 3<5 = 5; 2+16+5 = 23 pairs.
        s = word_stats(example_word())
        assert (s.descents, s.runs, s.plateaus, s.ascents) == (2, 3, 16, 5)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (5, 3)])
    def test_sorted_word(self, n, k):
        s = word_stats(StirlingWord(tuple(v for v in range(1, n + 1) for _ in range(k)), n, k))
        assert s.descents == 0
        assert s.runs == 1

    def test_small_scan(self):
        s = word_stats(StirlingWord((1, 2, 2, 1, 3, 3), 3, 2))
        assert (s.descents, s.runs, s.plateaus, s.ascents) == (1, 2, 2, 2)

    def test_empty_marker(self):
        s = word_stats(StirlingWord((), 0, 2))
        assert (s.descents, s.runs, s.plateaus, s.ascents) == (0, 0, 0, 0)

    def test_fields_repr_and_immutability(self):
        s = word_stats(example_word())
        assert repr(s) == "WordStats(descents=2, runs=3, plateaus=16, ascents=5)"
        with pytest.raises(AttributeError):
            s.runs = 0


def naive_is_stirling(letters, n):
    """The Stirling condition applied literally, pair of copies by pair."""
    for v in range(1, n + 1):
        pos = [i for i, x in enumerate(letters) if x == v]
        for a, b in zip(pos, pos[1:]):
            if any(letters[i] < v for i in range(a + 1, b)):
                return False
    return True


def arrangements(n, k):
    """Every distinct ordering of the multiset {1^k, ..., n^k}, once each."""
    left = [k] * (n + 1)
    word = []

    def extend():
        if len(word) == n * k:
            yield tuple(word)
            return
        for v in range(1, n + 1):
            if left[v]:
                left[v] -= 1
                word.append(v)
                yield from extend()
                word.pop()
                left[v] += 1

    return extend()


@pytest.mark.parametrize(
    "n,k", [(3, 2), (2, 3), (4, 1), (2, 4), (3, 3), (4, 2), (2, 5)]
)
def test_stirling_check_against_naive_oracle(n, k):
    """Compare the one-scan check with the definition applied literally."""
    perms = list(arrangements(n, k))
    assert len(perms) == math.factorial(n * k) // math.factorial(k) ** n
    for perm in perms:
        w = StirlingWord(perm, n, k)
        assert is_valid_stirling(w) == naive_is_stirling(perm, n), perm


@st.composite
def random_stirling_words(draw):
    """Build a word by the gap-insertion construction; always valid."""
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    word = []
    for m in range(1, n + 1):
        pos = draw(st.integers(min_value=0, max_value=len(word)))
        word[pos:pos] = [m] * k
    return StirlingWord(tuple(word), n, k)


@given(random_stirling_words())
def test_stats_invariants_on_random_words(w):
    s = word_stats(w)
    assert s.runs == s.descents + 1
    assert s.descents + s.plateaus + s.ascents == w.order * w.multiplicity - 1
    assert is_valid_stirling(w)


@given(st.data())
def test_shuffled_words_match_the_definition(data):
    w = data.draw(random_stirling_words())
    letters = tuple(data.draw(st.permutations(w.letters)))
    shuffled = StirlingWord(letters, w.order, w.multiplicity)
    assert is_valid_stirling(shuffled) == naive_is_stirling(letters, w.order)


class TestSerialization:
    def test_text_round_trip(self):
        w = example_word()
        assert parse_word(w.to_text(), 4) == w

    def test_text_format_is_space_separated(self):
        assert StirlingWord((1, 1, 2, 2), 2, 2).to_text() == "1 1 2 2"

    def test_json_round_trip(self):
        w = example_word()
        assert word_from_json(w.to_json()) == w
        payload = json.loads(w.to_json())
        assert payload["order"] == 6
        assert payload["multiplicity"] == 4

    def test_json_is_json_dumps(self):
        words = list(gen_stirling(4, 3))
        words.append(StirlingWord(tuple(range(12, 0, -1)), 12, 1))
        for w in words:
            payload = {"letters": list(w.letters), "order": w.order, "multiplicity": w.multiplicity}
            assert w.to_json() == json.dumps(payload)

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedWordError):
            parse_word("1 two 2 1", 2)

    @pytest.mark.parametrize(
        "payload",
        [
            '{"letters": [true, true], "order": 1, "multiplicity": 2}',
            '{"letters": [1.0, 1.0], "order": 1, "multiplicity": 2}',
            '{"letters": [1, 1], "order": 1.0, "multiplicity": 2}',
            '{"letters": [1, 1], "order": 1, "multiplicity": true}',
        ],
    )
    def test_json_accepts_only_integers(self, payload):
        with pytest.raises(MalformedWordError, match="expected a JSON integer"):
            word_from_json(payload)

    @pytest.mark.parametrize(
        "payload,message",
        [
            ("[1]", "expected a JSON object with keys 'letters', 'order', 'multiplicity'"),
            ("null", "expected a JSON object"),
            ('{"n": 1, "k": 1, "blocks": [[[1, 1]]]}', "lacks 'letters', 'order', 'multiplicity'"),
            ('{"letters": [1, 1], "order": 1}', "lacks 'multiplicity'"),
            ('{"letters": 11, "order": 1, "multiplicity": 2}', "letters must be a JSON array"),
        ],
    )
    def test_json_of_the_wrong_shape(self, payload, message):
        with pytest.raises(MalformedWordError, match=message):
            word_from_json(payload)
