"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/child.py setup OUT_JSON
    python3 perfbench/child.py pass  WORKLOAD SEED PASS_INDEX OUT_JSON
    python3 perfbench/child.py trace WORKLOAD SEED OUT_JSON

Every mode first times `import flatstir.cli` plus `build_parser()`, with
the CPU's speed measured just before and after; `setup` stops there.
`pass` then runs every command of the workload once through
`flatstir.cli.main(argv)`, one after the other, and writes per-command
times, exit codes and stdout digests, while a thread samples the CPU's
speed.  `trace` runs each command twice, untraced and then with layer
spans, and afterwards the fixed layer probes of `probes.py`; it writes the
spans.  The parent checks the outputs.

On a shared host another tenant on the same physical core can slow a CPU
by up to ~1.7x, for milliseconds or for minutes.  A fixed kernel slows
with the core, so the parent puts every time at a reference speed by
scaling it with the kernel's time measured while it ran.
"""

from __future__ import annotations

import time


def _kernel() -> None:
    """A fixed amount of interpreter work on a working set small enough to
    stay in cache, so that its time follows the core's speed and not the
    cache state the commands leave behind."""
    acc = 0
    table = {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = (acc, i)


def _speed() -> float:
    """Median CPU time of nine kernel runs: the core's speed right now."""
    times = []
    for _ in range(9):
        start = time.thread_time()
        _kernel()
        times.append(time.thread_time() - start)
    return sorted(times)[4]


# Timed first, before anything else is imported, so that it matches a
# user's cold start of the CLI.
_before = _speed()
_start = time.perf_counter()
import flatstir.cli  # noqa: E402

flatstir.cli.build_parser()
SETUP_S = time.perf_counter() - _start
SETUP_KERNEL_S = (_before + _speed()) / 2

import hashlib  # noqa: E402
import io
import json
import os
import resource
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (sibling modules, found through HERE)
import workloads  # noqa: E402

KEEP_TEXT_CHARS = 1 << 16  # stdout kept verbatim up to this size, for reports
SAMPLE_EVERY_S = 0.02  # speed sampling period


class DigestStream(io.TextIOBase):
    """Write-only text stream that hashes what is written to it.

    With `mask`, the text is kept whole and masked before hashing; only
    small outputs (verify's report, whose lines carry timings) use it.
    """

    def __init__(self, mask=None):
        self._hash = hashlib.sha256()
        self._chunks: list[str] | None = []
        self._size = 0
        self._mask = mask

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._size += len(s)
        if self._mask is None:
            self._hash.update(s.encode())
            if self._chunks is not None and self._size > KEEP_TEXT_CHARS:
                self._chunks = None
        if self._chunks is not None:
            self._chunks.append(s)
        return len(s)

    def result(self) -> dict:
        text = "".join(self._chunks) if self._chunks is not None else None
        if self._mask is not None:
            text = self._mask(text)
            self._hash.update(text.encode())
        return {"sha256": self._hash.hexdigest(), "text": text}


def run_command(cli_main, cmd: workloads.Command) -> dict:
    """Run one CLI command in-process and time it."""
    out = DigestStream(workloads.MASKS.get(cmd.kind))
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(cmd.stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli_main(list(cmd.argv))
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:  # a crash is a failed command, not a failed pass
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return {"key": cmd.key, "kind": cmd.kind, "exit": code, "seconds": seconds,
            "stdout": out.result()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def do_pass(workload: str, seed: int, pass_index: int, out_path: str) -> None:
    cmds = workloads.commands(workload, seed)
    _pin_to_current_cpu()
    results = []
    with SpeedSampler() as sampler:
        for i in workloads.pass_order(len(cmds), seed, pass_index):
            begun = time.perf_counter()
            results.append({"index": i, "begun": begun, **run_command(flatstir.cli.main, cmds[i])})
    speed = tracing.Speed(sampler.samples)
    for res in results:
        res["kernel_s"] = speed.kernel_s(res["begun"], res["begun"] + res["seconds"])
    _dump(out_path, {"setup_s": SETUP_S, "setup_kernel_s": SETUP_KERNEL_S,
                     "peak_rss_mb": peak_rss_mb(), "commands": results})


class SpeedSampler:
    """Samples this CPU's speed while the commands run.

    A daemon thread wakes every SAMPLE_EVERY_S, times the kernel by its
    own CPU time and records it.  It holds the interpreter lock about 2% of
    the time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            start = time.thread_time()
            _kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - start))


def _pin_to_current_cpu() -> None:
    """Keep the sampler thread on the core the commands run on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # not Linux: the sampler may then see the other core


def do_trace(workload: str, seed: int, out_path: str) -> None:
    import probes

    cmds = workloads.commands(workload, seed)
    tracer = tracing.Tracer(workload)
    results = []
    _pin_to_current_cpu()
    with SpeedSampler() as sampler:
        for i in workloads.pass_order(len(cmds), seed, 0):
            untraced = run_command(flatstir.cli.main, cmds[i])
            with tracing.patched(tracer):
                sid = tracer.open(f"cli.{cmds[i].kind}", key=cmds[i].key)
                traced = run_command(flatstir.cli.main, cmds[i])
                tracer.close(sid)
            results.append({"index": i, **untraced, "traced_seconds": traced["seconds"],
                            "span": sid, "traced_stdout": traced["stdout"]["sha256"],
                            "traced_exit": traced["exit"]})
        tracer.workload = "probe"
        layer = probes.run_all(tracer)
    layer["metrics"]["series.descent_egf.peak_kb"] = probes.descent_egf_peak_kb()
    _dump(out_path, {"commands": results, "spans": tracer.spans, "layer": layer,
                     "speed": sampler.samples, "peak_rss_mb": peak_rss_mb()})


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _dump(args[0], {"setup_s": SETUP_S, "setup_kernel_s": SETUP_KERNEL_S})
    elif mode == "pass":
        do_pass(args[0], int(args[1]), int(args[2]), args[3])
    elif mode == "trace":
        do_trace(args[0], int(args[1]), args[2])
    else:
        sys.exit(f"unknown mode {mode!r}")
