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
and `bijection.phi` build words that are correct by construction through
`_trusted_word` (the generators test them with `_leaders_weakly_increase`),
so those words are trusted and not re-validated.

StirlingWord, like ColoredPartition and the series types, is a plain
`__slots__` class on `_Value` with hand-written methods: the standard
library's class generator imports `inspect` and `ast`, which would cost
about half of the CLI's cold start.  Its fields are set through the
slots' member descriptors (`_set_letters`, ..., bound once at import), by
the constructor after validating or by `_trusted_word` without;
`_Value.__setattr__` refuses any other assignment.

The per-word operations are written for the brute-force walks, which call
them tens of thousands of times: the multiset check is one comparison
against the sorted letters, `WordStats` is a named tuple, and
`is_valid_stirling` keeps its per-value copy counts in one flat list
indexed by letter, so it allocates nothing per value.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MalformedWordError, NotStirlingError


class _Value:
    """Base of the immutable value types: a subclass names its fields in
    `__slots__`, sets them once past `__setattr__` and returns them from
    `_key`.  It equals only its own type, and is no sequence or number."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class StirlingWord(_Value):
    """A word over {1^k, ..., n^k}; validated eagerly on construction."""

    __slots__ = ("letters", "order", "multiplicity")

    def __init__(self, letters: tuple[int, ...], order: int, multiplicity: int):
        n, k = order, multiplicity
        if n < 0 or k < 1:
            raise MalformedWordError(f"order {n} and multiplicity {k} must be >= 0 and >= 1")
        if len(letters) != n * k:
            raise MalformedWordError(
                f"expected {n * k} letters for order {n}, multiplicity {k}; got {len(letters)}"
            )
        # sorted, the multiset is 1^k 2^k ... n^k: the first and the last
        # copy of every value sit at fixed places
        try:
            s = sorted(letters)
        except TypeError:  # letters of types that do not compare
            s = None
        r = list(range(1, n + 1))
        if s is None or s[::k] != r or s[k - 1::k] != r:
            raise MalformedWordError(
                f"letters are not the multiset {{1^{k}, ..., {n}^{k}}}"
            )
        _set_letters(self, letters)
        _set_order(self, order)
        _set_multiplicity(self, multiplicity)

    def _key(self):
        return self.letters, self.order, self.multiplicity

    @property
    def is_empty(self) -> bool:
        return self.order == 0

    def to_text(self) -> str:
        """Space-separated decimal letters (unambiguous for order > 9)."""
        return " ".join(str(v) for v in self.letters)

    def to_json(self) -> str:
        """The bytes of `json.dumps({"letters": letters, "order": n, "multiplicity": k})`."""
        letters = ", ".join(map(str, self.letters))
        n, k = self.order, self.multiplicity
        return f'{{"letters": [{letters}], "order": {n}, "multiplicity": {k}}}'


# the slots' member descriptors, bound once for the constructor and `_trusted_word`
_set_letters = StirlingWord.letters.__set__
_set_order = StirlingWord.order.__set__
_set_multiplicity = StirlingWord.multiplicity.__set__


def _trusted_word(letters: tuple[int, ...], order: int, multiplicity: int) -> StirlingWord:
    """A word whose multiset shape the caller guarantees; skips validation."""
    w = object.__new__(StirlingWord)
    _set_letters(w, letters)
    _set_order(w, order)
    _set_multiplicity(w, multiplicity)
    return w


class WordStats(NamedTuple):
    """Counts from one scan of a word; runs == descents + 1 unless empty."""

    descents: int
    runs: int
    plateaus: int
    ascents: int


def parse_word(text: str, multiplicity: int) -> StirlingWord:
    """Parse the space-separated letter format; the order is the largest letter."""
    try:
        letters = tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise MalformedWordError(f"non-integer letter in word: {exc}") from None
    return StirlingWord(letters, max(letters, default=0), multiplicity)


def word_from_json(text: str) -> StirlingWord:
    """Parse `to_json`'s format; every number must be a JSON integer."""
    import json  # local import: only JSON input needs it

    obj = json.loads(text)
    if type(obj) is not dict:
        raise MalformedWordError(
            "expected a JSON object with keys 'letters', 'order', 'multiplicity'"
        )
    missing = [key for key in ("letters", "order", "multiplicity") if key not in obj]
    if missing:
        raise MalformedWordError(f"JSON word lacks {', '.join(map(repr, missing))}")
    if type(obj["letters"]) is not list:
        raise MalformedWordError("letters must be a JSON array")
    letters = tuple(obj["letters"])
    order, multiplicity = obj["order"], obj["multiplicity"]
    for v in (*letters, order, multiplicity):
        if type(v) is not int:  # a JSON float or a bool compares equal to an int
            raise MalformedWordError(f"expected a JSON integer, got {json.dumps(v)}")
    return StirlingWord(letters, order, multiplicity)


def is_valid_stirling(w: StirlingWord) -> bool:
    """True iff every letter between consecutive copies of i exceeds i.

    Single left-to-right scan.  The stack holds values whose copies are
    still open (some but not all k copies seen); it is strictly increasing
    bottom to top, so a new letter below the top lies between two copies
    of the top value and violates the condition.  The top is kept in a
    scalar, a 0 at the bottom of the stack stands below every letter, and
    the copies seen of each open value are counted in the flat list
    `seen`, indexed by letter.
    """
    k = w.multiplicity
    if k == 1:
        return True
    seen = [0] * (w.order + 1)
    stack = [0]
    top = 0
    for v in w.letters:
        if v == top:
            copies = seen[v] + 1
            if copies == k:
                stack.pop()
                top = stack[-1]
            else:
                seen[v] = copies
        elif v > top:
            stack.append(v)
            top = v
            seen[v] = 1
        else:
            return False
    return top == 0


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
