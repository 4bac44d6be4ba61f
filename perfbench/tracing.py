"""Layer spans recorded from outside the program.

The tracer wraps public functions of flatstir's modules for the duration
of one traced command.  A span is `[name, start, end, parent, busy,
workload, key]`: `parent` is the index of the enclosing span, `busy` is
set only for generators, where it holds the time spent inside `next()`
(the consumer's time between items is not the generator's).  Spans stay
in memory and are written once, at the end of the traced run.

Only calls made through a module attribute are seen.  Per-item helpers
(`is_flattened`, `word_stats`, word construction) are left unwrapped so
tracing does not swamp the work; `probes.py` times them in bulk instead.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer, kind); kind "gen" marks generator functions.
# A layer imported by name into another module is wrapped in both places.
PATCHES = (
    ("cli", "parse_partition", "partitions.parse", "call"),
    ("cli", "parse_word", "words.parse", "call"),
    ("cli", "run_verification", "verify.run_verification", "call"),
    ("counting", "count_flattened_recurrence", "counting.recurrence", "call"),
    ("counting", "count_flattened_identity", "counting.identity", "call"),
    ("counting", "count_flattened_series_approx", "counting.series_approx", "call"),
    ("counting", "run_distribution_bruteforce", "counting.run_distribution", "call"),
    ("counting", "count_table", "counting.count_table", "call"),
    ("enumeration", "gen_stirling", "enumeration.gen_stirling", "gen"),
    ("enumeration", "gen_flattened", "enumeration.gen_flattened", "gen"),
    ("enumeration", "gen_gcp", "enumeration.gen_gcp", "gen"),
    ("bijection", "phi", "bijection.phi", "call"),
    ("bijection", "phi_inverse", "bijection.phi_inverse", "call"),
    ("series", "egf_flattened", "series.egf_flattened", "call"),
    ("series", "descent_egf", "series.descent_egf", "call"),
    ("series", "extract_descent_polynomial", "series.extract", "call"),
    ("analysis", "descent_egf", "series.descent_egf", "call"),
    ("analysis", "extract_descent_polynomial", "series.extract", "call"),
    ("analysis", "descent_polynomial_bruteforce", "analysis.descent_polynomial_bruteforce", "call"),
    ("analysis", "conjecture_report", "analysis.conjecture_report", "call"),
    ("analysis", "is_real_rooted", "analysis.is_real_rooted", "call"),
    ("analysis", "is_unimodal", "analysis.is_unimodal", "call"),
    ("oeis", "cross_check", "oeis.cross_check", "call"),
)

NAME, START, END, PARENT, BUSY, WORKLOAD, KEY = range(7)
MIN_SAMPLES = 5  # speed samples an interval's time is scaled by, at least


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, key: str | None = None, push: bool = True) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, None, self.workload, key])
        if push:
            self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter()
        if self.stack.pop() != sid:
            raise AssertionError(f"span {self.spans[sid][NAME]} closed out of order")

    def wrap_call(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def wrap_gen(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = self.open(name, push=False)
            span = self.spans[sid]
            span[BUSY] = 0.0
            try:
                while True:
                    self.stack.append(sid)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[BUSY] += perf_counter() - start
                        self.stack.pop()
                    yield item
            finally:
                inner.close()
                span[END] = perf_counter()

        return traced


@contextmanager
def patched(tracer: Tracer):
    """Wrap every function in PATCHES while the block runs."""
    saved = []
    try:
        for module_name, attr, layer, kind in PATCHES:
            module = importlib.import_module(f"flatstir.{module_name}")
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            wrap = tracer.wrap_gen if kind == "gen" else tracer.wrap_call
            setattr(module, attr, wrap(fn, layer))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    duration = [s[BUSY] if s[BUSY] is not None else s[END] - s[START] for s in spans]
    own = list(duration)
    for s, d in zip(spans, duration):
        if s[PARENT] is not None:
            own[s[PARENT]] -= d
    return own


class Speed:
    """Speed-kernel samples `(end time, kernel seconds)`, in time order."""

    def __init__(self, samples: list):
        self.samples = samples
        self.ends = [t for t, _ in samples]

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over [start, end], widened to the nearest
        MIN_SAMPLES samples when the interval holds fewer."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        return statistics.median(k for _, k in self.samples[lo:hi])
