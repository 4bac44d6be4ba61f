"""Words over the multiset {1^k, ..., n^k} and their basic statistics.

A k-Stirling permutation of order n is a word containing exactly k copies
of each value 1..n such that, for every value i, all letters lying strictly
between two consecutive occurrences of i exceed i.  A run is a maximal
contiguous weakly increasing subword; a word is *flattened* when the
leading letters of its runs are weakly increasing left to right.

The StirlingWord type only enforces the multiset shape; the Stirling and
flattened conditions are separate predicates so that invalid words remain
constructible for negative tests.  Every public way in (the constructor,
`parse_word`, `word_from_json`) validates; the generators in `enumeration`
build words that are correct by construction through `_trusted_word` and
test them with `_leaders_weakly_increase`, so generated words are trusted
and not re-validated.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import MalformedWordError, NotStirlingError


@dataclass(frozen=True, slots=True)
class StirlingWord:
    """A word over {1^k, ..., n^k}; validated eagerly on construction."""

    letters: tuple[int, ...]
    order: int
    multiplicity: int

    def __post_init__(self):
        n, k = self.order, self.multiplicity
        if n < 0 or k < 1:
            raise MalformedWordError(f"order {n} and multiplicity {k} must be >= 0 and >= 1")
        if len(self.letters) != n * k:
            raise MalformedWordError(
                f"expected {n * k} letters for order {n}, multiplicity {k}; got {len(self.letters)}"
            )
        counts = Counter(self.letters)
        if len(counts) != n or any(counts.get(v) != k for v in range(1, n + 1)):
            raise MalformedWordError(
                f"letters are not the multiset {{1^{k}, ..., {n}^{k}}}"
            )

    @classmethod
    def from_letters(cls, letters: Iterable[int], multiplicity: int) -> "StirlingWord":
        """Build a word inferring the order from the largest letter."""
        seq = tuple(int(v) for v in letters)
        order = max(seq) if seq else 0
        return cls(seq, order, multiplicity)

    @property
    def is_empty(self) -> bool:
        return self.order == 0

    def to_text(self) -> str:
        """Space-separated decimal letters (unambiguous for order > 9)."""
        return " ".join(str(v) for v in self.letters)

    def to_json(self) -> str:
        return json.dumps(
            {"letters": list(self.letters), "order": self.order, "multiplicity": self.multiplicity}
        )


def _trusted_word(letters: tuple[int, ...], order: int, multiplicity: int) -> StirlingWord:
    """A word whose multiset shape the caller guarantees; skips validation."""
    w = object.__new__(StirlingWord)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "order", order)
    object.__setattr__(w, "multiplicity", multiplicity)
    return w


@dataclass(frozen=True, slots=True)
class WordStats:
    """Counts from one scan of a word; runs == descents + 1 unless empty."""

    descents: int
    runs: int
    plateaus: int
    ascents: int


def parse_word(text: str, multiplicity: int) -> StirlingWord:
    """Parse the space-separated letter format."""
    tokens = text.split()
    try:
        letters = [int(t) for t in tokens]
    except ValueError as exc:
        raise MalformedWordError(f"non-integer letter in word: {exc}") from None
    return StirlingWord.from_letters(letters, multiplicity)


def word_from_json(text: str) -> StirlingWord:
    obj = json.loads(text)
    return StirlingWord(tuple(obj["letters"]), int(obj["order"]), int(obj["multiplicity"]))


def is_valid_stirling(w: StirlingWord) -> bool:
    """True iff every letter between consecutive copies of i exceeds i.

    Single left-to-right scan.  The stack holds values whose copies are
    still open (some but not all k copies seen); it is strictly increasing
    bottom to top, so a new letter below the top lies between two copies
    of the top value and violates the condition.
    """
    k = w.multiplicity
    if k == 1:
        return True
    stack: list[list[int]] = []
    for v in w.letters:
        if stack and stack[-1][0] == v:
            stack[-1][1] += 1
            if stack[-1][1] == k:
                stack.pop()
        elif not stack or v > stack[-1][0]:
            stack.append([v, 1])
        else:
            return False
    return not stack


def is_flattened(w: StirlingWord) -> bool:
    """True iff the run leaders of w are weakly increasing.

    Raises NotStirlingError when w is not a valid k-Stirling word; the
    flattened property is only defined on that domain.
    """
    if not is_valid_stirling(w):
        raise NotStirlingError(
            "word is not a k-Stirling permutation: a letter smaller than i "
            "occurs between two consecutive copies of i"
        )
    return _leaders_weakly_increase(w.letters)


def _leaders_weakly_increase(letters: tuple[int, ...]) -> bool:
    """The flattened condition alone, for words already known to be Stirling."""
    if not letters:
        return True
    leader = letters[0]
    prev = letters[0]
    for v in letters[1:]:
        if v < prev:
            if v < leader:
                return False
            leader = v
        prev = v
    return True


def word_stats(w: StirlingWord) -> WordStats:
    """Descents, runs, plateaus and ascents in one scan.

    The empty word reports runs=0 as its marker; nonempty words satisfy
    runs == descents + 1 and descents + plateaus + ascents == n*k - 1.
    """
    letters = w.letters
    if not letters:
        return WordStats(0, 0, 0, 0)
    descents = plateaus = ascents = 0
    prev = letters[0]
    for v in letters[1:]:
        if v < prev:
            descents += 1
        elif v == prev:
            plateaus += 1
        else:
            ascents += 1
        prev = v
    return WordStats(descents, descents + 1, plateaus, ascents)


def sorted_word(n: int, k: int) -> StirlingWord:
    """The single one-run word 1^k 2^k ... n^k."""
    letters = tuple(v for v in range(1, n + 1) for _ in range(k))
    return StirlingWord(letters, n, k)
