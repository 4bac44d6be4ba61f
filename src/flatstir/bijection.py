"""The bijection between good k-colored partitions and flattened words.

Forward direction: each block contributes a subword.  Lay out the k copies
of the block minimum with a gap before each copy, gaps numbered k..1 from
*right to left*; then insert the k copies of every other element, in
increasing element order, at the right end of the gap named by its color.
Concatenating the subwords over the blocks (in standard block order)
yields a flattened k-Stirling word.

Inverse direction: repeatedly cut the maximal suffix whose letters all
weakly exceed the final letter a (the cut falls just after the rightmost
letter strictly smaller than a).  That suffix is the subword of one block:
its minimum is a (colored 1) and every other letter x is colored by the
gap its copies occupy, counting copies of a from the right; letters left
of the leftmost copy of a get color k.

The right-to-left gap numbering is load-bearing; it is pinned by the
worked-example regression test.
"""

from __future__ import annotations

from .errors import MalformedWordError, NotFlattenedError
from .partitions import Block, ColoredPartition, good_partition, require_good
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
    k = w.multiplicity
    rest = list(w.letters)
    blocks: list[Block] = []
    while rest:
        alpha = rest[-1]
        cut = 0
        for i in range(len(rest) - 1, -1, -1):
            if rest[i] < alpha:
                cut = i + 1
                break
        subword = rest[cut:]
        del rest[cut:]
        blocks.append(_color_block(subword, alpha, k))
    blocks.reverse()  # suffix stripping emits largest-minimum first
    return good_partition(w.order, k, blocks)


def _color_block(subword: list[int], alpha: int, k: int) -> Block:
    """Recover one block from its subword; alpha is the block minimum."""
    alpha_pos = [i for i, v in enumerate(subword) if v == alpha]
    if len(alpha_pos) != k:
        raise MalformedWordError(
            f"suffix holds {len(alpha_pos)} copies of its minimum {alpha}, expected {k}"
        )
    # alpha copies numbered from the right: copy i sits at right_to_left[i-1]
    right_to_left = alpha_pos[::-1]
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(subword):
        if v != alpha:
            positions.setdefault(v, []).append(i)
    block: list[tuple[int, int]] = [(alpha, 1)]
    for x, pos in positions.items():
        lo, hi = pos[0], pos[-1]
        color = 0
        for i in range(1, k):  # gap i lies between copy i+1 and copy i
            if right_to_left[i] < lo and hi < right_to_left[i - 1]:
                color = i
                break
        else:
            if hi < right_to_left[k - 1]:  # left of the leftmost copy
                color = k
        if color == 0:
            raise MalformedWordError(
                f"copies of {x} straddle a copy of the block minimum {alpha}"
            )
        block.append((x, color))
    return tuple(sorted(block))
