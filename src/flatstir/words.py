"""Words over the multiset {1^k, ..., n^k} and their basic statistics.

A k-Stirling permutation of order n is a word containing exactly k copies
of each value 1..n such that, for every value i, all letters lying strictly
between two consecutive occurrences of i exceed i.  A run is a maximal
contiguous weakly increasing subword; a word is *flattened* when the
leading letters of its runs are weakly increasing left to right.

The StirlingWord type only enforces the multiset shape; the Stirling and
flattened conditions are separate predicates so that invalid words remain
constructible for negative tests.  The constructor is the one check on a
word: the order, the multiplicity and every letter must be ints (a bool or
float is refused, not coerced), and the letters are stored as a tuple.
`parse_word` and `word_from_json` only read their format and pass what
they read to it.  The generators in `enumeration` and `bijection.phi`
build words that are correct by construction through `_trusted_word` (the
generators test them with `_leaders_weakly_increase`), so those words are
trusted and not re-validated.

StirlingWord, like ColoredPartition and the series types, is a plain
`__slots__` class on `_Value` with hand-written methods: the standard
library's class generator imports `inspect` and `ast`, which would cost
about half of the CLI's cold start.  Its fields are set through the
slots' member descriptors (`_set_letters`, ..., bound once at import), by
the constructor after validating or by `_trusted_word` without;
`_Value.__setattr__` refuses any other assignment.

The per-word operations are written for the brute-force walks, which call
them tens of thousands of times.  One private scanner, `_scan`, reads a
word once, left to right, and returns whether it is Stirling, whether it is
flattened, and its descents, plateaus and ascents.  `is_valid_stirling`,
`is_flattened` and `word_stats` are views of that one pass, and
`_flattened_stats` hands `verify` the stats and the flattened flag of one
call.  The scan keeps its per-value copy counts and its stack of open
values in flat lists indexed by letter, so it allocates nothing per value;
`WordStats` is built through `tuple.__new__` (`_new_stats`, bound once like
the slot setters), which skips the generated `__new__`; and the multiset
check of the constructor is one comparison against the sorted letters.
`_leaders_weakly_increase` stays a separate, minimal loop: it is the
filter route's keep-predicate, run on every word of the pruned walk, where
the words are Stirling by construction and the counts are not wanted.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

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
        if type(n) is not int or type(k) is not int:  # before comparing them
            raise MalformedWordError(f"order {n!r} and multiplicity {k!r} must be integers")
        if n < 0 or k < 1:
            raise MalformedWordError(f"order {n} and multiplicity {k} must be >= 0 and >= 1")
        letters = tuple(_iterate(letters, "letters", MalformedWordError))
        if len(letters) != n * k:
            raise MalformedWordError(
                f"expected {n * k} letters for order {n}, multiplicity {k}; got {len(letters)}"
            )
        for v in letters:
            if type(v) is not int:  # a bool or a float compares equal to an int
                raise MalformedWordError(f"letter {v!r} is not an integer")
        # sorted, the multiset is 1^k 2^k ... n^k: the first and the last
        # copy of every value sit at fixed places
        s = sorted(letters)
        r = list(range(1, n + 1))
        if s[::k] != r or s[k - 1::k] != r:
            raise MalformedWordError(f"letters are not the multiset {{1^{k}, ..., {n}^{k}}}")
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


def _iterate(value, what: str, error: type[Exception]) -> Iterator:
    """`iter(value)`; a value that is not iterable raises `error` naming it."""
    try:
        return iter(value)
    except TypeError:
        raise error(f"{what} must be iterable, got {value!r}") from None


class WordStats(NamedTuple):
    """Counts from one scan of a word; runs == descents + 1 unless empty."""

    descents: int
    runs: int
    plateaus: int
    ascents: int


# builds a WordStats from its four counts past the generated __new__
_new_stats = tuple.__new__


def parse_word(text: str, multiplicity: int) -> StirlingWord:
    """Parse the space-separated letter format; the order is the largest letter."""
    try:
        letters = tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise MalformedWordError(f"non-integer letter in word: {exc}") from None
    return StirlingWord(letters, max(letters, default=0), multiplicity)


def word_from_json(text: str) -> StirlingWord:
    """Parse `to_json`'s format; the constructor checks the fields."""
    keys = ("letters", "order", "multiplicity")
    return StirlingWord(*_json_fields(text, "word", keys, MalformedWordError))


def _json_fields(text: str, what: str, keys: tuple[str, ...], error: type[Exception]) -> list:
    """The values at `keys` of the JSON object in `text`, unchecked: the
    value type's constructor is their one check."""
    import json  # local import: only JSON input needs it

    obj = json.loads(text)
    if type(obj) is not dict:
        raise error(f"expected a JSON object with keys {', '.join(map(repr, keys))}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise error(f"JSON {what} lacks {', '.join(map(repr, missing))}")
    return [obj[key] for key in keys]


def _scan(w: StirlingWord) -> tuple[bool, bool, int, int, int]:
    """(Stirling, flattened, descents, plateaus, ascents) of w in one left-to-right pass.

    The counts are exact for every word.  The flattened flag means
    something only for a Stirling word; it is False for any other.

    Each letter is classed by its adjacent pair first.  The Stirling test
    keeps a stack of the values whose copies are still open (some but not
    all k copies seen); it is strictly increasing bottom to top, and while
    the prefix is Stirling its top is at most the previous letter.  So an
    ascent pushes its letter (a first copy), a plateau is the next copy of
    the top, and only a descent can break the condition: its letter
    continues the top, is pushed, or lies below the top, between two
    copies of the top value.  A descent is also where a run starts, so the
    leader test runs there.  The stack is kept as links in the flat list
    `below`, indexed by letter: the top is a scalar, `below[v]` is the open
    value under v, and a 0 at the bottom stands below every letter.  The
    copies still to come of each open value are counted down from k - 1 in
    the flat list `left`, so a push stores nothing there.
    k = 1 needs no stack, and past a violation only the counts go on.
    """
    letters = w.letters
    if not letters:
        return True, True, 0, 0, 0
    k = w.multiplicity
    it = iter(letters)
    prev = leader = next(it)
    descents = plateaus = ascents = 0
    stirling = flattened = True
    if k > 1:
        left = [k - 1] * (w.order + 1)
        below = [0] * (w.order + 1)
        top = prev
        for v in it:
            if v > prev:
                ascents += 1
                below[v] = top
                top = v
            elif v == prev:
                plateaus += 1
                copies = left[v] - 1
                if copies:
                    left[v] = copies
                else:
                    top = below[v]
            else:
                descents += 1
                if v < leader:
                    flattened = False
                leader = v
                if v == top:
                    copies = left[v] - 1
                    if copies:
                        left[v] = copies
                    else:
                        top = below[v]
                elif v > top:
                    below[v] = top
                    top = v
                else:
                    stirling = flattened = False
                    prev = v
                    break
            prev = v
        else:
            return top == 0, flattened, descents, plateaus, ascents
    # k = 1, or the rest of a word past its violation: the pairs and the leaders
    for v in it:
        if v > prev:
            ascents += 1
        elif v == prev:
            plateaus += 1
        else:
            descents += 1
            if v < leader:
                flattened = False
            leader = v
        prev = v
    return stirling, flattened, descents, plateaus, ascents


def is_valid_stirling(w: StirlingWord) -> bool:
    """True iff every letter between consecutive copies of i exceeds i."""
    return _scan(w)[0]


def is_flattened(w: StirlingWord) -> bool:
    """True iff the run leaders of w are weakly increasing.

    Raises NotStirlingError when w is not a valid k-Stirling word; the
    flattened property is only defined on that domain.
    """
    scan = _scan(w)
    if not scan[0]:
        raise _not_stirling()
    return scan[1]


def _flattened_stats(w: StirlingWord) -> tuple[WordStats, bool]:
    """`word_stats(w)` and `is_flattened(w)` from one scan; raises as `is_flattened` does."""
    stirling, flattened, descents, plateaus, ascents = _scan(w)
    if not stirling:
        raise _not_stirling()
    return _stats(w, descents, plateaus, ascents), flattened


def _not_stirling() -> NotStirlingError:
    return NotStirlingError(
        "word is not a k-Stirling permutation: a letter smaller than i "
        "occurs between two consecutive copies of i"
    )


def _leaders_weakly_increase(letters: tuple[int, ...]) -> bool:
    """The flattened condition alone, for words already known to be Stirling.

    The filter route's keep-predicate: it runs on every word of the pruned
    walk, so it does the leader test and nothing else.
    """
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
    """Descents, runs, plateaus and ascents of any word, Stirling or not.

    The empty word reports runs=0 as its marker; nonempty words satisfy
    runs == descents + 1 and descents + plateaus + ascents == n*k - 1.
    """
    _, _, descents, plateaus, ascents = _scan(w)
    return _stats(w, descents, plateaus, ascents)


def _stats(w: StirlingWord, descents: int, plateaus: int, ascents: int) -> WordStats:
    runs = descents + 1 if w.letters else 0
    return _new_stats(WordStats, (descents, runs, plateaus, ascents))
