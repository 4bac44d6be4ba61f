"""Cross-checks of computed counts against published integer sequences.

The three sequences tied to k = 2, 3, 4 are fetched as b-files (plain
text, "index value" per line, '#' comments).  Fetches cache verbatim bytes
on disk (atomic write) and degrade gracefully: network, then cache, then
an embedded prefix computed by the Stirling-number identity (the check
itself uses the recurrence), so the offline path never relies on unverified
third-party data and still compares two different derivations.

The index offset of each sequence is not assumed: the first three computed
terms are located inside the fetched prefix and the resulting shift is
pinned in a small file next to the cache.  A pinned shift that stops
matching is surfaced as an alignment error, never silently re-guessed.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

from .counting import CountContext, count_flattened_identity, count_flattened_recurrence
from .errors import AlignmentError, BFileParseError, DomainError, SequenceUnavailableError

SEQUENCE_BY_K = {2: "A007405", 3: "A355164", 4: "A355167"}
_ID_PATTERN = re.compile(r"\AA\d{6}\Z")
_EMBEDDED_TERMS = 10
DEFAULT_TIMEOUT = 10.0


def default_cache_dir() -> str:
    env = os.environ.get("FLATSTIR_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "flatstir", "oeis")


class BFile(NamedTuple):
    """Parsed b-file rows plus where they came from."""

    sequence_id: str
    source: str  # "network" | "cache" | "embedded"
    terms: tuple[tuple[int, int], ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.terms)


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


def fetch_bfile(
    sequence_id: str,
    *,
    cache_dir: str | None = None,
    offline: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
) -> BFile:
    """Fetch a b-file with cache and embedded-prefix fallback."""
    if not _ID_PATTERN.match(sequence_id):
        raise DomainError(f"bad sequence id {sequence_id!r}: expected 'A' plus six digits")
    cache_dir = cache_dir or default_cache_dir()
    cache_path = os.path.join(cache_dir, f"b{sequence_id[1:]}.txt")

    if not offline:
        text = _download(sequence_id, timeout)
        if text is not None:
            terms = parse_bfile(text)
            _atomic_write(cache_path, text.encode())
            return BFile(sequence_id, "network", terms)

    if os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as fh:
            return BFile(sequence_id, "cache", parse_bfile(fh.read()))

    embedded = _embedded_prefix(sequence_id)
    if embedded is not None:
        return BFile(sequence_id, "embedded", embedded)
    raise SequenceUnavailableError(
        f"{sequence_id}: no network, no cache at {cache_path}, and no embedded prefix"
    )


def _download(sequence_id: str, timeout: float) -> str | None:
    import urllib.error  # local import: only a fetch pays for the HTTP stack
    import urllib.request

    url = f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"
    for _ in range(2):  # one retry
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError, ValueError):
            continue
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


def _embedded_prefix(sequence_id: str) -> tuple[tuple[int, int], ...] | None:
    for k, seq in SEQUENCE_BY_K.items():
        if seq == sequence_id:
            return tuple((i, count_flattened_identity(i + 1, k)) for i in range(_EMBEDDED_TERMS))
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
    k: int,
    max_n: int,
    *,
    offline: bool = False,
    cache_dir: str | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> CrossCheckReport:
    """Compare computed counts of order n+1, n = 0..max_n, with a sequence.

    Only k in {2, 3, 4} carries a published correspondence.  Alignment is
    data-driven (see module docstring); every comparison is exact integer
    equality.
    """
    if k not in SEQUENCE_BY_K:
        raise DomainError(f"no cited sequence for k={k}; only k in {sorted(SEQUENCE_BY_K)}")
    if max_n < 2:
        raise DomainError("need max_n >= 2: alignment uses the first three terms")
    ctx = CountContext()
    sequence_id = SEQUENCE_BY_K[k]
    cache_dir = cache_dir or default_cache_dir()
    bfile = fetch_bfile(sequence_id, cache_dir=cache_dir, offline=offline, timeout=timeout)
    computed = [count_flattened_recurrence(n + 1, k, ctx) for n in range(max_n + 1)]
    shift = _align(sequence_id, computed[:3], bfile.values, cache_dir)
    rows = []
    for n in range(max_n + 1):
        idx = shift + n
        expected = bfile.values[idx] if idx < len(bfile.values) else None
        match = (computed[n] == expected) if expected is not None else None
        rows.append(CheckRow(n, computed[n], expected, match))
    return CrossCheckReport(k, sequence_id, bfile.source, shift, tuple(rows))


def _align(
    sequence_id: str, head: list[int], values: tuple[int, ...], cache_dir: str
) -> int:
    """Locate the first three computed terms in the fetched values.

    The resulting shift is pinned under the cache directory; a pin that no
    longer matches raises instead of re-guessing.
    """
    pins = _read_pins(cache_dir)
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
            _write_pins(cache_dir, pins)
            return shift
    raise AlignmentError(
        f"{sequence_id}: computed terms {head} not found in the fetched prefix"
    )


def _pins_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "offsets.conf")


def _read_pins(cache_dir: str) -> dict[str, int]:
    path = _pins_path(cache_dir)
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
                pins[key.strip()] = int(value.strip())
            except ValueError:
                raise AlignmentError(
                    f"{path}:{lineno}: expected 'sequence=offset', got {line!r}"
                ) from None
    return pins


def _write_pins(cache_dir: str, pins: dict[str, int]) -> None:
    body = "".join(f"{key}={value}\n" for key, value in sorted(pins.items()))
    _atomic_write(_pins_path(cache_dir), body.encode())
