"""Good k-colored set partitions of [n] in standard block notation.

A k-colored partition assigns each element of [n] a color in 1..k and is
written in standard block notation: elements ascending within blocks,
blocks ascending by minimum element.  It is *good* when

  Rule 1: the minimum element of every block has color 1;
  Rule 2: every element of the first block has color at most k-1.

For k=1 the second rule leaves no legal color for non-minimum elements of
the first block, so the first block must be exactly {1}.

Constructors normalize arbitrary block orderings into standard notation.
Coloring rules are a separate predicate (`first_failed_rule`) so that
rule-breaking partitions remain representable for negative tests;
`good_partition` builds and checks in one step, naming the first failed
rule on error.  The constructor and the parsers (`parse_partition`,
`partition_from_json`) validate.  The generator in `enumeration` and
`bijection.phi_inverse` build good partitions in standard notation by
construction and go through `_trusted_partition`, so they are not
re-validated.  Either path sets the fields only through the slots' member
descriptors (`_set_n`, `_set_k`, `_set_blocks`); ColoredPartition is a
`__slots__` class on `words._Value`, which refuses any other assignment.

`to_text` and `to_json` format each block once and join the pieces: a
walk yields many partitions but few distinct blocks (GCP_2(8) has 28,640
partitions and 1,221 distinct blocks).  The per-block memo is an LRU of
fixed size, `BLOCK_MEMO_SIZE`, so its memory stays bounded on walks with
more distinct blocks than that (GCP_2(10) has 10,353); the walk keeps its
leading blocks fixed while it varies the last ones, so an evicting memo
still hits on most blocks (99.8 % over GCP_2(10)).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import MalformedPartitionError, PartitionRuleError
from .words import _Value

Block = tuple[tuple[int, int], ...]  # ((element, color), ...) sorted by element

BLOCK_MEMO_SIZE = 4096  # formatted blocks kept, per format


class ColoredPartition(_Value):
    """A k-colored partition of [1..n], stored in standard block notation."""

    __slots__ = ("n", "k", "blocks")

    def __init__(self, n: int, k: int, blocks: Iterable[Iterable[Sequence[int]]]):
        if n < 1 or k < 1:
            raise MalformedPartitionError("n and k must both be at least 1")
        normalized = _normalize(blocks)
        _check_structure(n, k, normalized)
        _set_n(self, n)
        _set_k(self, k)
        _set_blocks(self, normalized)

    def _key(self):
        return self.n, self.k, self.blocks

    @property
    def first_block(self) -> Block:
        return self.blocks[0]

    def to_text(self) -> str:
        """Subscript-as-suffix form, e.g. "1_1 2_3 4_2 6_3 | 3_1 | 5_1"."""
        return " | ".join(map(_block_text, self.blocks))

    def to_json(self) -> str:
        """The bytes of `json.dumps({"n": n, "k": k, "blocks": blocks})`."""
        blocks = ", ".join(map(_block_json, self.blocks))
        return f'{{"n": {self.n}, "k": {self.k}, "blocks": [{blocks}]}}'


@lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _block_text(b: Block) -> str:
    return " ".join(f"{e}_{c}" for e, c in b)


@lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _block_json(b: Block) -> str:
    return "[" + ", ".join(f"[{e}, {c}]" for e, c in b) + "]"


# the slots' member descriptors, bound once for the constructor and `_trusted_partition`
_set_n = ColoredPartition.n.__set__
_set_k = ColoredPartition.k.__set__
_set_blocks = ColoredPartition.blocks.__set__


def _trusted_partition(n: int, k: int, blocks: tuple[Block, ...]) -> ColoredPartition:
    """A partition whose blocks the caller guarantees are a standard-notation
    partition of [1..n] with colors in 1..k; skips normalizing and checking."""
    p = object.__new__(ColoredPartition)
    _set_n(p, n)
    _set_k(p, k)
    _set_blocks(p, blocks)
    return p


def _normalize(blocks: Iterable[Iterable[Sequence[int]]]) -> tuple[Block, ...]:
    inner = [tuple(sorted((int(e), int(c)) for e, c in block)) for block in blocks]
    return tuple(sorted(inner, key=lambda b: b[0][0] if b else 0))


def _check_structure(n: int, k: int, blocks: tuple[Block, ...]) -> None:
    seen: list[int] = []
    for b in blocks:
        if not b:
            raise MalformedPartitionError("empty block")
        for e, c in b:
            seen.append(e)
            if not 1 <= c <= k:
                raise MalformedPartitionError(f"color {c} of element {e} outside 1..{k}")
    if sorted(seen) != list(range(1, n + 1)):
        raise MalformedPartitionError(f"blocks do not partition [1..{n}]")


def first_failed_rule(p: ColoredPartition) -> str | None:
    """Name of the first violated rule, or None for a good partition."""
    for b in p.blocks:
        if b[0][1] != 1:
            return f"Rule 1: minimum element {b[0][0]} has color {b[0][1]}, not 1"
    for e, c in p.first_block[1:]:
        if c > p.k - 1:
            return (
                f"Rule 2: element {e} of the first block has color {c}, "
                f"exceeding k-1 = {p.k - 1}"
            )
    if p.k == 1 and len(p.first_block) != 1:
        return "k=1 convention: the first block must be exactly {1}"
    return None


def good_partition(
    n: int, k: int, blocks: Iterable[Iterable[Sequence[int]]]
) -> ColoredPartition:
    """Normalize, then enforce the good-coloring rules; raises naming the rule."""
    p = ColoredPartition(n, k, blocks)  # __init__ builds the tuples
    require_good(p)
    return p


def require_good(p: ColoredPartition) -> None:
    failed = first_failed_rule(p)
    if failed is not None:
        raise PartitionRuleError(failed)


def block_descent_count(p: ColoredPartition) -> int:
    """Sum over blocks of the number of distinct colors on non-minimum
    elements; equals the descent count of the word image of p."""
    return sum(len({c for _, c in b[1:]}) for b in p.blocks)


def parse_partition(text: str, k: int) -> ColoredPartition:
    """Parse "1_1 2_3 | 3_1" style text; n is inferred from the elements."""
    blocks: list[list[tuple[int, int]]] = []
    for chunk in text.split("|"):
        tokens = chunk.split()
        if not tokens:
            raise MalformedPartitionError("empty block in partition text")
        block = []
        for tok in tokens:
            try:
                e_str, c_str = tok.split("_")
                block.append((int(e_str), int(c_str)))
            except ValueError:
                raise MalformedPartitionError(
                    f"bad token {tok!r}: expected element_color"
                ) from None
        blocks.append(block)
    n = max(e for b in blocks for e, _ in b)
    return ColoredPartition(n, k, tuple(tuple(b) for b in blocks))


def partition_from_json(text: str) -> ColoredPartition:
    """Parse `to_json`'s format; every number must be a JSON integer."""
    import json  # local import: only JSON input needs it

    obj = json.loads(text)
    if type(obj) is not dict:
        raise MalformedPartitionError("expected a JSON object with keys 'n', 'k', 'blocks'")
    missing = [key for key in ("n", "k", "blocks") if key not in obj]
    if missing:
        raise MalformedPartitionError(f"JSON partition lacks {', '.join(map(repr, missing))}")
    try:
        blocks = tuple(tuple((e, c) for e, c in b) for b in obj["blocks"])
    except (TypeError, ValueError):  # not an array of arrays of pairs
        raise MalformedPartitionError("blocks must be arrays of [element, color] pairs") from None
    n, k = obj["n"], obj["k"]
    for v in (n, k, *(x for b in blocks for pair in b for x in pair)):
        if type(v) is not int:  # a JSON float or a bool would pass int()
            raise MalformedPartitionError(f"expected a JSON integer, got {json.dumps(v)}")
    return ColoredPartition(n, k, blocks)
