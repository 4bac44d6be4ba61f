"""Exhaustive generators: Q_n^k, its flattened subset, and GCP_k(n).

These streams are the ground-truth oracle every closed form is checked
against; no command uses them where a polynomial-time formula exists.
They are lazy, depth-first and deterministic; a budget guard refuses
instance sizes whose predicted cardinality exceeds a configurable cap
(default 10^8) unless forced.

Words and partitions built here are correct by construction, so they are
trusted: neither is re-validated, and the filter route tests only the
run-leader condition, since every generated word is already Stirling.  The
filter route stays a plain filter over all of Q_n^k, independent of phi.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from . import counting
from .bijection import phi
from .errors import BudgetExceededError, DomainError
from .partitions import ColoredPartition, _trusted_partition
from .words import StirlingWord, _leaders_weakly_increase, _trusted_word

DEFAULT_BUDGET = 10**8


def predicted_stirling_count(n: int, k: int) -> int:
    """|Q_n^k| = prod_{i=0}^{n-1} (i*k + 1)."""
    total = 1
    for i in range(n):
        total *= i * k + 1
    return total


def _check_args(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")


def _check_budget(predicted: int, budget: int | None, force: bool, what: str) -> None:
    cap = DEFAULT_BUDGET if budget is None else budget
    if not force and predicted > cap:
        raise BudgetExceededError(
            f"predicted |{what}| = {predicted} exceeds budget {cap}; pass force to override"
        )


def gen_stirling(
    n: int, k: int, *, budget: int | None = None, force: bool = False
) -> Iterator[StirlingWord]:
    """Yield every word of Q_n^k exactly once.

    Words of order m arise from words of order m-1 by inserting the block
    m^k into one of the (m-1)k + 1 gaps; insertion position runs left to
    right, so the stream order is deterministic.
    """
    _check_args(n, k)
    _check_budget(predicted_stirling_count(n, k), budget, force, f"Q_{n}^{k}")
    yield from _gen_stirling_rec([], 1, n, k)


def _gen_stirling_rec(word: list[int], m: int, n: int, k: int) -> Iterator[StirlingWord]:
    if m > n:
        yield _trusted_word(tuple(word), n, k)
        return
    block = [m] * k
    for pos in range(len(word) + 1):
        yield from _gen_stirling_rec(word[:pos] + block + word[pos:], m + 1, n, k)


def gen_flattened(
    n: int,
    k: int,
    *,
    via: str = "filter",
    budget: int | None = None,
    force: bool = False,
) -> Iterator[StirlingWord]:
    """Yield the flattened members of Q_n^k.

    via="filter" screens the full Q_n^k stream; via="bijection" maps the
    good-partition stream through phi.  The two routes must agree as sets
    and the test suite holds them to that.
    """
    _check_args(n, k)
    if via == "filter":
        for w in gen_stirling(n, k, budget=budget, force=force):
            if _leaders_weakly_increase(w.letters):
                yield w
    elif via == "bijection":
        for p in gen_gcp(n, k, budget=budget, force=force):
            yield phi(p)
    else:
        raise ValueError(f"unknown route {via!r}: expected 'filter' or 'bijection'")


def gen_gcp(
    n: int, k: int, *, budget: int | None = None, force: bool = False
) -> Iterator[ColoredPartition]:
    """Yield every good k-colored partition of [n] exactly once.

    Set partitions are enumerated by restricted growth strings, then each
    is colored: minima are fixed to color 1, non-minimum elements of the
    first block range over 1..k-1 and of other blocks over 1..k, in
    odometer order.  For k=1 the first-block color range is empty, which
    silently restricts to partitions whose first block is {1}.
    """
    _check_args(n, k)
    predicted = counting.count_flattened_recurrence(n, k)
    _check_budget(predicted, budget, force, f"GCP_{k}({n})")
    for blocks in _gen_set_partitions(n):
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


def _gen_set_partitions(n: int) -> Iterator[list[list[int]]]:
    """Set partitions of [1..n] in restricted-growth-string order.

    Elements are assigned ascending, so blocks appear ordered by their
    minima (standard block order) without any sorting.  The yielded
    structure is reused between yields; consumers must not retain it.
    """
    blocks: list[list[int]] = []

    def rec(e: int) -> Iterator[list[list[int]]]:
        if e > n:
            yield blocks
            return
        for b in blocks:
            b.append(e)
            yield from rec(e + 1)
            b.pop()
        blocks.append([e])
        yield from rec(e + 1)
        blocks.pop()

    yield from rec(1)
