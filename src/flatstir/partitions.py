"""Good k-colored set partitions of [n] in standard block notation.

A k-colored partition assigns each element of [n] a color in 1..k and is
written in standard block notation: elements ascending within blocks,
blocks ascending by minimum element.  It is *good* when

  Rule 1: the minimum element of every block has color 1;
  Rule 2: every element of the first block has color at most k-1.

For k=1 the second rule leaves no legal color for non-minimum elements of
the first block, so the first block must be exactly {1}.

Constructors normalize arbitrary block orderings into standard notation
and record whether the input already was standard.  Coloring rules are a
separate predicate (`validate`) so that rule-breaking partitions remain
representable for negative tests; `good_partition` builds and checks in
one step, naming the first failed rule on error.  The generator in
`enumeration` builds its partitions in standard notation already and goes
through `_trusted_partition`, so generated partitions are not re-validated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import MalformedPartitionError, PartitionRuleError

Block = tuple[tuple[int, int], ...]  # ((element, color), ...) sorted by element


@dataclass(frozen=True)
class ColoredPartition:
    """A k-colored partition of [1..n], stored in standard block notation."""

    n: int
    k: int
    blocks: tuple[Block, ...]
    input_was_standard: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise MalformedPartitionError("n and k must both be at least 1")
        normalized, changed = _normalize(self.blocks)
        _check_structure(self.n, self.k, normalized)
        object.__setattr__(self, "blocks", normalized)
        object.__setattr__(self, "input_was_standard", not changed)

    @property
    def first_block(self) -> Block:
        return self.blocks[0]

    def to_text(self) -> str:
        """Subscript-as-suffix form, e.g. "1_1 2_3 4_2 6_3 | 3_1 | 5_1"."""
        return " | ".join(" ".join(f"{e}_{c}" for e, c in b) for b in self.blocks)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "k": self.k, "blocks": [[[e, c] for e, c in b] for b in self.blocks]}
        )


def _trusted_partition(n: int, k: int, blocks: tuple[Block, ...]) -> ColoredPartition:
    """A partition whose blocks the caller guarantees are a standard-notation
    partition of [1..n] with colors in 1..k; skips normalizing and checking."""
    p = object.__new__(ColoredPartition)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "k", k)
    object.__setattr__(p, "blocks", blocks)
    object.__setattr__(p, "input_was_standard", True)
    return p


def _normalize(blocks: Iterable[Iterable[Sequence[int]]]) -> tuple[tuple[Block, ...], bool]:
    raw = [tuple((int(e), int(c)) for e, c in block) for block in blocks]
    inner = [tuple(sorted(b)) for b in raw]
    outer = tuple(sorted(inner, key=lambda b: b[0][0] if b else 0))
    return outer, outer != tuple(raw)


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


def validate(p: ColoredPartition) -> bool:
    """True iff p satisfies both coloring rules (and the k=1 convention)."""
    return first_failed_rule(p) is None


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
    p = ColoredPartition(n, k, tuple(tuple(tuple(pair) for pair in b) for b in blocks))
    failed = first_failed_rule(p)
    if failed is not None:
        raise PartitionRuleError(failed)
    return p


def require_good(p: ColoredPartition) -> None:
    failed = first_failed_rule(p)
    if failed is not None:
        raise PartitionRuleError(failed)


def is_saturated(block: Block, k: int) -> bool:
    """A block is saturated iff it has k+1 elements and its non-minimum
    elements use every color 1..k."""
    if len(block) != k + 1:
        return False
    return {c for _, c in block[1:]} == set(range(1, k + 1))


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
    obj = json.loads(text)
    blocks = tuple(tuple((int(e), int(c)) for e, c in b) for b in obj["blocks"])
    return ColoredPartition(int(obj["n"]), int(obj["k"]), blocks)
