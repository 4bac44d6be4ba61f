"""Cross-checks of computed counts against published integer sequences.

The three sequences tied to k = 2, 3, 4 are read as b-files (plain text,
"index value" per line, '#' comments) by one path: the network (a fixed
10 s socket timeout, one retry), then a b-file the user saved in the
`cache_dir` argument; when no directory is named, no saved b-file is read.
The environment is not read here: the CLI passes `FLATSTIR_CACHE_DIR` on.
Nothing is written: a fetched b-file is used and dropped.  A saved b-file
that cannot be read, or a b-file that does not parse, skips or repeats an
index, or does not align, raises an error that starts with its path or
URL.  When neither source has the data, the check compares against an
embedded prefix computed by the identity route (the check itself uses one
pass of the derivative triangle), so the offline path never relies on
unverified third-party data and still compares two different derivations.

The index offset of fetched data is not assumed: the first three computed
terms are located inside the fetched prefix on every run, and the first
shift where they appear is used.  Data that hold them nowhere raise an
alignment error.  The embedded prefix is aligned by construction: shift 0.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .counting import count_flattened_identity, flattened_totals
from .errors import AlignmentError, BFileParseError, DomainError

SEQUENCE_BY_K = {2: "A007405", 3: "A355164", 4: "A355167"}
_EMBEDDED_TERMS = 10
_FETCH_TIMEOUT = 10.0  # a b-file fetch's socket timeout, in seconds


def parse_bfile(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "index value" lines; '#' comments and blank lines skipped.
    Each index must be the previous one plus 1: values are compared by
    position, so a skipped or repeated index would shift every later one."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {line!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"line {lineno}: non-integer field in {line!r}") from None
        if rows and index != rows[-1][0] + 1:
            previous = rows[-1][0]
            raise BFileParseError(f"line {lineno}: index {index} does not follow index {previous}")
        rows.append((index, value))
    if not rows:
        raise BFileParseError("b-file contains no data rows")
    return tuple(rows)


def _fetch(sequence_id: str, cache_dir: str | None, offline: bool) -> tuple[str, str, str] | None:
    """(source, path or URL, text) of a b-file from the network, else from a
    file the user saved in `cache_dir` (if one is named); None when neither
    has the data.  A saved file that exists but cannot be read as UTF-8 text
    raises `BFileParseError` naming its path."""
    name = f"b{sequence_id[1:]}.txt"
    if not offline:
        import urllib.error  # local import: only a fetch pays for the HTTP stack
        import urllib.request

        url = f"https://oeis.org/{sequence_id}/{name}"
        for _ in range(2):  # one retry
            try:
                with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT) as resp:
                    return "network", url, resp.read().decode("utf-8")
            except (urllib.error.URLError, OSError, ValueError):
                continue
    if cache_dir:
        cache_path = os.path.join(cache_dir, name)
        try:
            with open(cache_path, encoding="utf-8") as fh:
                return "cache", cache_path, fh.read()
        except (FileNotFoundError, NotADirectoryError):
            pass  # nothing saved: the caller uses the embedded prefix
        except OSError as exc:
            raise BFileParseError(f"{cache_path}: cannot be read: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise BFileParseError(
                f"{cache_path}: cannot be read: not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    return None


class CheckRow(NamedTuple):
    n: int
    computed: int
    expected: int | None  # None when the fetched prefix is too short
    match: bool | None


class CrossCheckReport(NamedTuple):
    k: int
    sequence_id: str
    source: str
    shift: int
    rows: tuple[CheckRow, ...]

    @property
    def compared(self) -> int:
        return sum(1 for r in self.rows if r.expected is not None)

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows if r.expected is not None)


def cross_check(
    k: int, max_n: int, *, offline: bool = False, cache_dir: str | None = None
) -> CrossCheckReport:
    """Compare computed counts of order n+1, n = 0..max_n, with a sequence.

    Only k in {2, 3, 4} carries a published correspondence.  Fetched data
    is aligned on every run, embedded data is compared at shift 0 (see module
    docstring); every comparison is exact integer equality.  Saved b-files
    are read from `cache_dir` alone; None or "" reads none.
    """
    if k not in SEQUENCE_BY_K:
        raise DomainError(f"no cited sequence for k={k}; only k in {sorted(SEQUENCE_BY_K)}")
    if max_n < 2:
        raise DomainError("need max_n >= 2: alignment uses the first three terms")
    sequence_id = SEQUENCE_BY_K[k]
    fetched = _fetch(sequence_id, cache_dir, offline)
    computed = flattened_totals(k, max_n + 1)
    if fetched is None:
        source, shift = "embedded", 0
        values = tuple(count_flattened_identity(n + 1, k) for n in range(_EMBEDDED_TERMS))
    else:
        source, where, text = fetched
        try:
            values = tuple(v for _, v in parse_bfile(text))
            shift = _align(computed[:3], values)
        except (BFileParseError, AlignmentError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
    rows = []
    for n in range(max_n + 1):
        idx = shift + n
        expected = values[idx] if idx < len(values) else None
        match = (computed[n] == expected) if expected is not None else None
        rows.append(CheckRow(n, computed[n], expected, match))
    return CrossCheckReport(k, sequence_id, source, shift, tuple(rows))


def _align(head: list[int], values: tuple[int, ...]) -> int:
    """The first shift at which the fetched values hold the computed head."""
    for shift in range(len(values) - len(head) + 1):
        if tuple(values[shift : shift + len(head)]) == tuple(head):
            return shift
    raise AlignmentError(f"computed terms {head} not found in the fetched prefix")
