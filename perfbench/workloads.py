"""Workload definitions for the flatstir benchmark.

A workload is a fixed list of CLI commands.  Sizes never change with the
seed; the seed only draws the partitions fed to the `bijection` commands
and the order in which a pass runs its commands.  This module uses the
standard library only, so the parent process never imports flatstir.

Why each workload exists:

* oracle   -- the brute-force commands.  `words`, `enumeration`,
  `partitions` and `bijection` do almost all the work; `series` and
  `analysis` do none.
* exact    -- the polynomial-time routes.  `counting`, `series` and the
  Sturm decision in `analysis` do all the work; enumeration does none.
* crossval -- `verify --offline --max-n 6`, the correctness command.  It
  shares one warm CountContext across checks, enumerates at k=3 and holds
  whole image sets in memory, so a change that helps cold single commands
  but costs a shared run shows up here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

WORKLOADS = ("oracle", "exact", "crossval")

# (kind, argv) in the canonical order; kind names the per-command metric.
_FIXED = {
    "oracle": [
        ("table", "table --k 2 --max-n 7"),
        ("table", "table --k 3 --max-n 6"),
        ("poly", "poly --n 7 --k 2 --method bruteforce"),
        ("count", "count --n 7 --k 2 --method bruteforce"),
        ("enumerate", "enumerate --n 7 --k 2 --flattened"),
        ("enumerate", "enumerate --n 8 --k 2 --as partitions --format jsonl"),
    ],
    "exact": [
        ("count", "count --n 600 --k 2"),
        ("count", "count --n 600 --k 2 --method identity"),
        ("count", "count --n 201 --k 2 --method egf"),
        # exponent 15 sits below the 2^-64 rounding threshold, 39 above it
        ("count", "count --n 16 --k 2 --method series-approx"),
        ("count", "count --n 40 --k 2 --method series-approx"),
        ("egf", "egf --k 3 --order 150"),
        ("poly", "poly --n 51 --k 2"),
        ("poly", "poly --n 31 --k 4"),
        ("conjecture", "conjecture --k 2 --max-n 32"),
        ("conjecture", "conjecture --k 3 --max-n 30"),
    ],
    "crossval": [
        # --max-n 7 adds a 13 s walk of Q_7^3 and leaves one pass per run
        ("verify", "verify --offline --max-n 6"),
    ],
}

BIJECTION_PARTITIONS = 100  # each gives one forward and one inverse call
BIJECTION_K = (2, 3, 4)
BIJECTION_ORDERS = range(26, 35)

# Every per-command metric the benchmark prints; a workload without a
# command of some kind reports that metric as not applicable.
COMMAND_KINDS = ("count", "table", "poly", "conjecture", "enumerate", "verify")

# `verify` prints each check's run time; it is masked before comparison.
_CHECK_SECONDS = re.compile(r" \(\d+\.\ds\): ")
MASKS = {"verify": lambda text: _CHECK_SECONDS.sub(" (*s): ", text)}


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    stdin: str = ""
    # stdout expected from a route independent of the program; None means
    # the expectation lives in expected.json under `key`
    expected_stdout: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass, in canonical (unshuffled) order."""
    if workload not in _FIXED:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = [Command(kind, tuple(text.split())) for kind, text in _FIXED[workload]]
    if workload == "oracle":
        out += bijection_commands(seed)
    return out


def pass_order(n: int, seed: int, pass_index: int) -> list[int]:
    """Seeded permutation of range(n) for one pass."""
    order = list(range(n))
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


def bijection_commands(seed: int) -> list[Command]:
    """Forward and inverse `bijection` calls on seeded good partitions.

    The expected outputs come from `reference_phi`, written from the
    definition of the bijection rather than from flatstir's code.
    """
    rng = random.Random(f"bijection:{seed}")
    out = []
    for _ in range(BIJECTION_PARTITIONS):
        k = rng.choice(BIJECTION_K)
        n = rng.choice(BIJECTION_ORDERS)
        blocks = random_good_partition(rng, n, k)
        p_text = partition_text(blocks)
        word = reference_phi(blocks, k)
        if not is_flattened_stirling(word, k):
            raise AssertionError(f"reference bijection produced a bad word for {p_text}")
        w_text = " ".join(map(str, word))
        out.append(Command("bijection", ("bijection", "--direction", "forward", "--k", str(k)),
                           p_text + "\n", w_text + "\n"))
        out.append(Command("bijection", ("bijection", "--direction", "inverse", "--k", str(k)),
                           w_text + "\n", p_text + "\n"))
    return out


Blocks = list[list[tuple[int, int]]]  # [[(element, color), ...], ...]


def random_good_partition(rng: random.Random, n: int, k: int) -> Blocks:
    """A good k-colored partition of [n] in standard block notation.

    Block minima get color 1; other elements of the first block get a
    color in 1..k-1, elements of later blocks one in 1..k.
    """
    blocks: Blocks = [[(1, 1)]]
    for e in range(2, n + 1):
        b = rng.randrange(len(blocks) + 1)
        if b == len(blocks):
            blocks.append([(e, 1)])
        else:
            top = k - 1 if b == 0 else k
            blocks[b].append((e, rng.randint(1, top)))
    return blocks


def partition_text(blocks: Blocks) -> str:
    return " | ".join(" ".join(f"{e}_{c}" for e, c in b) for b in blocks)


def reference_phi(blocks: Blocks, k: int) -> list[int]:
    """The word of a good partition, from the paper's construction.

    Each block lays out k copies of its minimum with a gap before each
    copy; gaps are numbered k..1 from right to left, so gap k is leftmost.
    The k copies of every other element go, in increasing order, to the
    right end of the gap named by its color.
    """
    word: list[int] = []
    for block in blocks:
        minimum = block[0][0]
        for gap in range(k, 0, -1):
            for e, c in block[1:]:
                if c == gap:
                    word += [e] * k
            word.append(minimum)
    return word


def is_flattened_stirling(word: list[int], k: int) -> bool:
    """Stirling condition and weakly increasing run leaders, by definition."""
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(word):
        positions.setdefault(v, []).append(i)
    for v, pos in positions.items():
        if len(pos) != k or any(x < v for x in word[pos[0]:pos[-1] + 1]):
            return False
    leaders = [word[0]] + [b for a, b in zip(word, word[1:]) if b < a]
    return all(a <= b for a, b in zip(leaders, leaders[1:]))


def parse_conjecture(text: str) -> list[tuple[int, tuple[int, ...], bool, bool]]:
    """Rows of `conjecture`'s markdown report: (n, coefficients, unimodal, real_rooted)."""
    rows = []
    for line in text.splitlines()[2:]:
        n, _, poly, unimodal, real = (cell.strip() for cell in line.strip("| ").split(" | "))
        coeffs: dict[int, int] = {}
        for term in poly.split(" + "):
            if "t" not in term:
                coeffs[0] = int(term)
                continue
            c, _, power = term.rpartition("t")  # "37*t^2" -> ("37*", "t", "^2")
            coeffs[int(power[1:]) if power else 1] = int(c.rstrip("*")) if c else 1
        rows.append((int(n), tuple(coeffs.get(e, 0) for e in range(max(coeffs) + 1)),
                     unimodal == "True", real == "True"))
    return rows
