"""The bijection between good k-colored partitions and flattened words.

Forward direction: each block contributes a subword.  Lay out the k copies
of the block minimum with a gap before each copy, gaps numbered k..1 from
*right to left*; then insert the k copies of every other element, in
increasing element order, at the right end of the gap named by its color.
Concatenating the subwords over the blocks (in standard block order)
yields a flattened k-Stirling word.

Inverse direction: one right-to-left scan, with color = copies of the
block minimum to its right.  In phi, a block's subword ends with its
minimum, and an element in gap i has exactly i copies of that minimum to
its right.  So the scan keeps the current block minimum alpha and the
count of its copies seen so far: a letter equal to alpha is one more
copy, a larger letter takes that count as its color, and a smaller letter
is the minimum of the next block to the left.  In a Stirling word a copy
of alpha never lies between two copies of a larger letter, so every copy
of that letter gets the same count.  A flattened word starts with 1, so
the first block never gets color k.

The right-to-left gap numbering is load-bearing; it is pinned by the
worked-example regression test.
"""

from __future__ import annotations

from .errors import MalformedWordError, NotFlattenedError
from .partitions import ColoredPartition, good_partition, require_good
from .words import StirlingWord, is_flattened


def phi(p: ColoredPartition) -> StirlingWord:
    """Map a good k-colored partition of [n] to a flattened word in Q_n^k."""
    require_good(p)
    return StirlingWord(_phi_letters(p), p.n, p.k)


def _phi_letters(p: ColoredPartition) -> tuple[int, ...]:
    """The letters of phi(p), for a partition the caller knows is good."""
    k = p.k
    out: list[int] = []
    for block in p.blocks:
        minimum = block[0][0]
        if len(block) == 1:
            out.extend([minimum] * k)
            continue
        gaps: list[list[int]] = [[] for _ in range(k + 1)]  # index 1..k
        for x, color in block[1:]:
            gaps[color].extend([x] * k)
        for i in range(k, 0, -1):
            out.extend(gaps[i])
            out.append(minimum)
    return tuple(out)


def phi_inverse(w: StirlingWord) -> ColoredPartition:
    """Map a flattened word back to its good k-colored partition.

    Raises NotStirlingError / NotFlattenedError when w is outside the
    domain, naming the first violated property.
    """
    if not is_flattened(w):
        raise NotFlattenedError("run leaders are not weakly increasing; word is not flattened")
    if w.is_empty:
        raise MalformedWordError("the empty word has no partition image")
    blocks: list[dict[int, int]] = []  # element -> color, right to left
    alpha, seen = w.order + 1, 0
    for v in reversed(w.letters):
        if v == alpha:
            seen += 1
        elif v > alpha:
            blocks[-1][v] = seen
        else:
            alpha, seen = v, 1
            blocks.append({v: 1})
    # good_partition puts the blocks and their elements in standard order
    return good_partition(w.order, w.multiplicity, (b.items() for b in blocks))
