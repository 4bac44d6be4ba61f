"""Exhaustive generators: Q_n^k, its flattened subset, and GCP_k(n).

These streams are the ground-truth oracle every closed form is checked
against; no command uses them where a polynomial-time formula exists.
They are lazy and deterministic.  Before the first object, one budget
guard reads the walk's sizes at orders 1, 2, ..., n (for words |Q_m^k|,
the running product of ik + 1; for partitions the flattened totals) and
refuses at the first past a cap (`counting.DEFAULT_BUDGET`, 10^8, unless
the caller passes another; None means no cap).  Sizes never decrease with
the order, so it refuses exactly the walks whose order-n size passes the
cap, and computes no size past the crossing.

Q_n^k is walked by insertion: every word of order m comes from a word of
order m-1 by inserting the block m^k into one of its (m-1)k + 1 gaps.  The
walk is a chain of n lazy generators, one per order, each inserting its
block into every word the previous one yields, gap by gap from the left.
It is depth-first and holds one word per order, never a whole level.  The
chain yields plain letter tuples.  The set partitions under GCP_k(n) come
from the same kind of chain, one generator per element.

Words and partitions built here are correct by construction, so they are
trusted: neither is re-validated.  The filter route tests only the
run-leader condition, on the letter tuple, and builds a word only for the
tuples that pass; it never touches phi.  It prunes the same insertion walk
at every order, by this lemma: if w in Q_m^k is flattened, so is the word
of order m-1 that w was built from.  Proof: m^k is one contiguous block,
w = u m^k v; every run leader of u v is a leader of w, in the same order,
because deleting the block at most merges v's first run into u's last.
So a word that fails the condition at order m has no flattened
descendant, and dropping it leaves the surviving words in the order the
full walk yields them.  The budget guard still counts all of Q_m^k, an
upper bound on the pruned walk.
"""

from __future__ import annotations

from itertools import accumulate, count, product
from operator import mul
from typing import Callable, Iterator

from .bijection import _phi_letters
from .counting import DEFAULT_BUDGET, _check_nk, _flattened_total_stream
from .errors import BudgetExceededError
from .partitions import ColoredPartition, _trusted_partition
from .words import StirlingWord, _leaders_weakly_increase, _trusted_word

SetPartition = tuple[tuple[int, ...], ...]  # blocks ascending by minimum


def _check_budget(sizes: Iterator[int], n: int, budget: int | None, what: str) -> None:
    """Refuse the walk over `what` at the first of orders 1..n whose size passes the budget."""
    if budget is None:
        return
    for m, size in zip(range(1, n + 1), sizes):  # the range stops first
        if size > budget:
            raise BudgetExceededError(
                f"walk over {what} passes budget {budget} at order {m}, with {size} "
                "objects; pass budget=None (--force on the command line) to lift it"
            )


def gen_stirling(
    n: int, k: int, *, budget: int | None = DEFAULT_BUDGET
) -> Iterator[StirlingWord]:
    """Yield every word of Q_n^k exactly once.

    Words of order m arise from words of order m-1 by inserting the block
    m^k into one of the (m-1)k + 1 gaps; insertion position runs left to
    right, so the stream order is deterministic.
    """
    for letters in _word_letters(n, k, budget):
        yield _trusted_word(letters, n, k)


def _word_letters(
    n: int, k: int, budget: int | None, keep: Callable[[tuple[int, ...]], bool] | None = None
) -> Iterator[tuple[int, ...]]:
    """The letters of Q_n^k in stream order: one insertion generator per order,
    each wrapped in `filter(keep, ...)` when a keep-predicate is given.

    A plain function, so its checks run when it is called: at the first
    `next()` of the generator that calls it.
    """
    _check_nk(n, k)
    _check_budget(accumulate(count(1, k), mul), n, budget, f"Q_{n}^{k}")
    words: Iterator[tuple[int, ...]] = iter([()])
    for m in range(1, n + 1):
        words = _insert_block(words, (m,) * k)
        if keep is not None:
            words = filter(keep, words)
    return words


def _insert_block(
    words: Iterator[tuple[int, ...]], block: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    for w in words:
        for pos in range(len(w) + 1):
            yield w[:pos] + block + w[pos:]


def gen_flattened(
    n: int,
    k: int,
    *,
    via: str = "filter",
    budget: int | None = DEFAULT_BUDGET,
) -> Iterator[StirlingWord]:
    """Yield the flattened members of Q_n^k.

    via="filter" walks Q_n^k by insertion and drops every word whose run
    leaders fail to weakly increase at the order where it appears: a word
    that is not flattened has no flattened descendant (module docstring),
    so it yields the flattened words of `gen_stirling`'s stream in that
    stream's order.  Its budget is checked against |Q_m^k|.  via="bijection"
    maps the good-partition stream through phi.  The two routes must agree
    as sets and the test suite holds them to that.
    """
    if via == "filter":
        for letters in _word_letters(n, k, budget, _leaders_weakly_increase):
            yield _trusted_word(letters, n, k)
    elif via == "bijection":
        for p in gen_gcp(n, k, budget=budget):
            yield _trusted_word(_phi_letters(p), n, k)
    else:
        raise ValueError(f"unknown route {via!r}: expected 'filter' or 'bijection'")


def gen_gcp(
    n: int, k: int, *, budget: int | None = DEFAULT_BUDGET
) -> Iterator[ColoredPartition]:
    """Yield every good k-colored partition of [n] exactly once.

    Set partitions come from the insertion chain `_set_partitions`, in
    restricted-growth-string order, then each is colored: minima are fixed
    to color 1, non-minimum elements of the first block range over 1..k-1
    and of other blocks over 1..k, in odometer order.  For k=1 the
    first-block color range is empty, which silently restricts to
    partitions whose first block is {1}.
    """
    _check_nk(n, k)
    _check_budget(_flattened_total_stream(k), n, budget, f"GCP_{k}({n})")
    for blocks in _set_partitions(n):
        slots: list[range] = []
        for bi, block in enumerate(blocks):
            color_range = range(1, k) if bi == 0 else range(1, k + 1)
            slots.extend([color_range] * (len(block) - 1))
        for colors in product(*slots):
            colored: list[tuple[tuple[int, int], ...]] = []
            ci = 0
            for block in blocks:
                pairs = [(block[0], 1)]
                for e in block[1:]:
                    pairs.append((e, colors[ci]))
                    ci += 1
                colored.append(tuple(pairs))
            # standard notation already: blocks by minimum, elements ascending
            yield _trusted_partition(n, k, tuple(colored))


def _set_partitions(n: int) -> Iterator[SetPartition]:
    """Set partitions of [1..n] in restricted-growth-string order.

    One insertion generator per element, chained as `_word_letters` chains
    orders.  Elements are placed ascending, so blocks appear ordered
    by their minima (standard block order) without any sorting.
    """
    partitions: Iterator[SetPartition] = iter([()])
    for e in range(1, n + 1):
        partitions = _insert_element(partitions, e)
    return partitions


def _insert_element(partitions: Iterator[SetPartition], e: int) -> Iterator[SetPartition]:
    """Put e into each block in turn, then into a new block last."""
    for blocks in partitions:
        for i in range(len(blocks)):
            yield blocks[:i] + (blocks[i] + (e,),) + blocks[i + 1:]
        yield blocks + ((e,),)
