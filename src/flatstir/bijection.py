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
the first block never gets color k.  The scan fills two flat arrays
indexed by element, its block minimum and its color; a pass over
e = 1..n then appends (e, color) to the block of its minimum, which
yields the blocks by increasing minimum and each block ascending: the
standard notation, with no sort.

The right-to-left gap numbering is load-bearing; it is pinned by the
worked-example regression test.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import MalformedWordError, NotFlattenedError
from .partitions import ColoredPartition, _trusted_partition, require_good
from .words import StirlingWord, _trusted_word, is_flattened

_color = itemgetter(1)  # a block's (element, color) pair -> its color


def phi(p: ColoredPartition) -> StirlingWord:
    """Map a good k-colored partition of [n] to a flattened word in Q_n^k."""
    require_good(p)
    return _trusted_word(_phi_letters(p), p.n, p.k)  # the multiset holds by construction


def _phi_letters(p: ColoredPartition) -> tuple[int, ...]:
    """The letters of phi(p), for a partition the caller knows is good.

    Each block is laid out from one stable sort of its non-minimum
    elements by color, descending, so the elements of one gap stay in
    increasing order; one copy of the minimum closes each gap passed.
    """
    k = p.k
    out: list[int] = []
    for block in p.blocks:
        minimum = block[0][0]
        gap = k
        for x, color in sorted(block[1:], key=_color, reverse=True):
            while gap > color:
                out.append(minimum)
                gap -= 1
            out += [x] * k
        out += [minimum] * gap
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
    n = w.order
    minimum = [0] * (n + 1)  # element -> its block minimum
    color = [1] * (n + 1)  # element -> its color; a block minimum keeps 1
    alpha, seen = n + 1, 0
    for v in reversed(w.letters):
        if v == alpha:
            seen += 1
        elif v > alpha:
            minimum[v] = alpha
            color[v] = seen
        else:
            alpha, seen = v, 1
            minimum[v] = v
    # each block opens at its minimum and grows in element order, so the
    # blocks come out in standard notation; good by construction, since w
    # is flattened
    blocks: list[list[tuple[int, int]] | None] = [None] * (n + 1)  # by minimum
    standard = []
    for e in range(1, n + 1):
        m = minimum[e]
        if m == e:
            block = blocks[e] = [(e, 1)]
            standard.append(block)
        else:
            blocks[m].append((e, color[e]))
    return _trusted_partition(n, w.multiplicity, tuple(map(tuple, standard)))
