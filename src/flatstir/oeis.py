"""Cross-checks of computed counts against published integer sequences.

The three sequences tied to k = 2, 3, 4 are fetched as b-files (plain
text, "index value" per line, '#' comments) by one path: the network
(a fixed 10 s socket timeout, one retry), whose verbatim bytes are cached
on disk (atomic write), then the cache.
When neither has the data, the check compares against an embedded prefix
computed by the Stirling-number identity (the check itself uses one pass
of the derivative triangle), so the offline path never relies on
unverified third-party data and still compares two different derivations.

The index offset of fetched data is not assumed: the first three computed
terms are located inside the fetched prefix and the resulting shift is
pinned in a small file next to the cache.  A pinned shift that stops
matching is surfaced as an alignment error, never silently re-guessed.
The embedded prefix is aligned by construction: shift 0, no pin.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .config import default_cache_dir
from .counting import count_flattened_identity, flattened_totals
from .errors import AlignmentError, BFileParseError, DomainError

SEQUENCE_BY_K = {2: "A007405", 3: "A355164", 4: "A355167"}
_EMBEDDED_TERMS = 10
_FETCH_TIMEOUT = 10.0  # a b-file fetch's socket timeout, in seconds


def parse_bfile(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "index value" lines; '#' comments and blank lines skipped."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {line!r}")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise BFileParseError(f"line {lineno}: non-integer field in {line!r}") from None
    if not rows:
        raise BFileParseError("b-file contains no data rows")
    return tuple(rows)


def _fetch(sequence_id: str, cache_dir: str, offline: bool) -> tuple[str, tuple[int, ...]] | None:
    """(source, values) of a b-file from the network, which writes the cache,
    or else from the cache; None when neither has the data."""
    cache_path = os.path.join(cache_dir, f"b{sequence_id[1:]}.txt")
    if not offline:
        import urllib.error  # local import: only a fetch pays for the HTTP stack
        import urllib.request

        url = f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"
        for _ in range(2):  # one retry
            try:
                with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT) as resp:
                    text = resp.read().decode("utf-8")
            except (urllib.error.URLError, OSError, ValueError):
                continue
            values = tuple(v for _, v in parse_bfile(text))
            _atomic_write(cache_path, text.encode())
            return "network", values
    if os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as fh:
            return "cache", tuple(v for _, v in parse_bfile(fh.read()))
    return None


def _atomic_write(path: str, data: bytes) -> None:
    import tempfile  # local import: its imports are a large share of the cold start

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    is aligned and pinned, embedded data is compared at shift 0 (see module
    docstring); every comparison is exact integer equality.
    """
    if k not in SEQUENCE_BY_K:
        raise DomainError(f"no cited sequence for k={k}; only k in {sorted(SEQUENCE_BY_K)}")
    if max_n < 2:
        raise DomainError("need max_n >= 2: alignment uses the first three terms")
    sequence_id = SEQUENCE_BY_K[k]
    cache_dir = cache_dir or default_cache_dir()
    fetched = _fetch(sequence_id, cache_dir, offline)
    computed = flattened_totals(k, max_n + 1)
    if fetched is None:
        source, shift = "embedded", 0
        values = tuple(count_flattened_identity(n + 1, k) for n in range(_EMBEDDED_TERMS))
    else:
        source, values = fetched
        shift = _align(sequence_id, computed[:3], values, cache_dir)
    rows = []
    for n in range(max_n + 1):
        idx = shift + n
        expected = values[idx] if idx < len(values) else None
        match = (computed[n] == expected) if expected is not None else None
        rows.append(CheckRow(n, computed[n], expected, match))
    return CrossCheckReport(k, sequence_id, source, shift, tuple(rows))


def _align(
    sequence_id: str, head: list[int], values: tuple[int, ...], cache_dir: str
) -> int:
    """Locate the first three computed terms in the fetched values.

    The resulting shift is pinned under the cache directory; a pin that no
    longer matches raises instead of re-guessing.
    """
    path = os.path.join(cache_dir, "offsets.conf")
    pins = _read_pins(path)
    if sequence_id in pins:
        shift = pins[sequence_id]
        if tuple(values[shift : shift + len(head)]) != tuple(head):
            raise AlignmentError(
                f"{sequence_id}: pinned offset {shift} no longer matches the computed terms"
            )
        return shift
    for shift in range(len(values) - len(head) + 1):
        if tuple(values[shift : shift + len(head)]) == tuple(head):
            pins[sequence_id] = shift
            body = "".join(f"{key}={value}\n" for key, value in sorted(pins.items()))
            _atomic_write(path, body.encode())
            return shift
    raise AlignmentError(
        f"{sequence_id}: computed terms {head} not found in the fetched prefix"
    )


def _read_pins(path: str) -> dict[str, int]:
    if not os.path.exists(path):
        return {}
    pins = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                offset = int(value.strip())
            except ValueError:
                raise AlignmentError(
                    f"{path}:{lineno}: expected 'sequence=offset', got {line!r}"
                ) from None
            if offset < 0:  # a negative shift would index the data from its end
                raise AlignmentError(f"{path}:{lineno}: offset must be >= 0, got {line!r}")
            pins[key.strip()] = offset
    return pins

