"""The flatstir benchmark.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports flatstir from `src/`.
Each workload (see workloads.py) is a closed loop: one client, one thread,
each CLI command starting after the previous one ends.  Commands go
in-process through `flatstir.cli.main(argv)`; every pass runs in a fresh
child interpreter, so no memo table or allocator state carries over.
Passes repeat until the next one would end after `--seconds`.

With `--trace 0` the end-to-end metrics are medians over passes, with times
put at a reference CPU speed (see child.py); with `--trace 1` one traced
pass gives the per-layer metrics (see tracing.py and probes.py).  Every command's stdout digest and exit code are checked
against expected.json or, for the seeded `bijection` calls, against a
reference bijection.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Runs are hermetic: children get a temporary HOME, XDG_CACHE_HOME,
XDG_CONFIG_HOME, FLATSTIR_CACHE_DIR and TMPDIR inside perfbench/.work, and
the run is marked incorrect if any file of the checkout outside
perfbench/.work changes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_PER_PASS = 2  # besides the pass child's own cold start
# The speed kernel's CPU time (child._kernel) at a quiet moment of a 2-vCPU
# 2.0 GHz host, Python 3.11; it only sets the unit of the scaled times.
REFERENCE_KERNEL_S = 0.0003
# How strongly flatstir's commands follow the kernel when a shared core
# slows down: log(command time) against log(kernel time) over 20 runs of
# oracle and exact on that host had slopes 0.44-0.97 by command.  With 0.65
# the quartile spread of wall_s over ten seeds per workload was 2-5 % in two
# sets, against 3-9 % with 1.0 and 10-13 % unscaled.
SENSITIVITY = 0.65
CHILD_TIMEOUT = 170
# Not the program's files: the build directory, git, and the benchmark's work directory.
SNAPSHOT_SKIP = {".git", ".bench_build", os.path.relpath(WORK, ROOT)}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "flatstir", "cli.py")):
        raise BenchError(f"no flatstir sources under {os.path.join(ROOT, 'src')}")
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = _load_json(os.path.join(HERE, "expected.json"))
    record = start_record(args)
    before = snapshot()
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        env = child_env(run_dir)
        if args.trace:
            result = traced_run(args, env, run_dir, expected, spec)
        else:
            result = timed_run(args, env, run_dir, expected, spec)
        record["temp_writes"] = program_writes(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    stray = sorted(set(snapshot().items()) ^ set(before.items()))
    if stray:
        result["problems"].append(f"files outside perfbench/.work changed: {sorted({p for p, _ in stray})}")
        result["correct"] = False
    finish_record(record)
    for problem in result["problems"]:
        print(f"problem: {problem}")
    save(record, result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


# -- children -----------------------------------------------------------


def child_env(run_dir: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("FLATSTIR_", "PYTHON"))}
    dirs = {"HOME": "home", "XDG_CACHE_HOME": "cache", "XDG_CONFIG_HOME": "config",
            "FLATSTIR_CACHE_DIR": "flatstir-cache", "TMPDIR": "tmp"}
    for var, name in dirs.items():
        env[var] = os.path.join(run_dir, name)
        os.makedirs(env[var])
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict[str, str], cwd: str) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv} ran longer than {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_json(argv: list[str], env: dict[str, str], run_dir: str) -> dict:
    """Run child.py with `argv` and read the JSON it writes."""
    out = os.path.join(run_dir, "tmp", "child.json")
    run_child([os.path.join(HERE, "child.py"), *argv, out], env, run_dir)
    payload = _load_json(out)
    os.remove(out)
    return payload


def program_writes(run_dir: str) -> list[str]:
    """Files the program left in its temporary HOME, caches and TMPDIR."""
    found = []
    for dirpath, _, files in os.walk(run_dir):
        found += [os.path.relpath(os.path.join(dirpath, f), run_dir) for f in files]
    return sorted(found)


# -- checking -----------------------------------------------------------


class Checker:
    """Compares command results with their expected output."""

    def __init__(self, workload: str, seed: int, expected: dict):
        self.commands = workloads.commands(workload, seed)
        self.expected = expected
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.known: set[str] = set()

    def check(self, res: dict) -> bool:
        cmd = self.commands[res["index"]]
        self.attempted += 1
        got = (res["exit"], res["stdout"]["sha256"])
        if cmd.expected_stdout is not None:
            entry = {"exit": 0, "stdout_sha256": _sha256(cmd.expected_stdout)}
        elif cmd.key in self.expected["commands"]:
            entry = self.expected["commands"][cmd.key]
        else:
            raise BenchError(f"no expected output for {cmd.key!r}; run perfbench/gen_expected.py")
        if got == (entry["exit"], entry["stdout_sha256"]):
            return True
        self.failed += 1
        defect = entry.get("known_defect")
        if defect is not None and got == (defect["exit"], defect["stdout_sha256"]):
            self.known.add(cmd.key)
            return False
        self.correct = False
        detail = self.verdict_changes(cmd.key, res["stdout"]["text"]) or "stdout differs"
        self.problems.append(f"{cmd.key!r} (stdin {cmd.stdin.strip()[:60]!r}): exit {res['exit']}, "
                             f"{detail}")
        return False

    def verdict_changes(self, key: str, text: str | None) -> str | None:
        recorded = self.expected["conjecture_verdicts"].get(key)
        if recorded is None or text is None:
            return None
        try:
            rows = workloads.parse_conjecture(text)
        except ValueError:
            return None
        changes = [f"n={n} {name} {r[name]}->{now}"
                   for (n, _, unimodal, real_rooted), r in zip(rows, recorded)
                   for name, now in (("unimodal", unimodal), ("real_rooted", real_rooted))
                   if now != r[name]]
        return "verdicts changed: " + "; ".join(changes) if changes else None

    def summary(self) -> dict:
        problems = list(self.problems)
        if self.known:
            problems.append(f"known defects counted as failed: {sorted(self.known)}")
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "problems": problems}


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """A time measured while the speed kernel took `kernel_s`, put at the
    speed where it takes REFERENCE_KERNEL_S."""
    return seconds * (REFERENCE_KERNEL_S / kernel_s) ** SENSITIVITY


# -- untraced run: end-to-end metrics -------------------------------------


def timed_run(args, env, run_dir, expected, spec) -> dict:
    checker = Checker(args.workload, args.seed, expected)
    setup: list[dict] = []
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        setup += [run_json(["setup"], env, run_dir) for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(run_json(["pass", args.workload, str(args.seed), str(len(passes))],
                               env, run_dir))
        setup.append(passes[-1])
        longest = max(longest, time.perf_counter() - begun)
        if time.perf_counter() - start + longest > args.seconds:
            break
    timed: dict[int, list[tuple[float, float]]] = {}  # (seconds, kernel_s) per pass
    for p in passes:
        for res in p["commands"]:
            checker.check(res)
            timed.setdefault(res["index"], []).append((res["seconds"], res["kernel_s"]))
    result = checker.summary()
    n = len(passes)
    kinds = [cmd.kind for cmd in checker.commands]
    ref = {i: statistics.median(at_reference_speed(*x) for x in xs) for i, xs in timed.items()}
    setup_ref = [at_reference_speed(x["setup_s"], x["setup_kernel_s"]) for x in setup]
    values = {
        "wall_s": (sum(ref.values()), f"one pass at the reference CPU speed: sum over "
                   f"commands of the median of {n} passes"),
        "setup_s": (statistics.median(setup_ref), f"at the reference CPU speed, median of "
                    f"{len(setup)} fresh interpreters"),
        "wall_measured_s": (statistics.median(sum(r["seconds"] for r in p["commands"])
                                              for p in passes),
                            f"one pass as measured, median of {n} passes"),
        "setup_measured_s": (statistics.median(x["setup_s"] for x in setup),
                             f"as measured, median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        f"median of {n} passes, child ru_maxrss"),
        "fail_rate": (result["failed"] / result["attempted"],
                      f"{result['failed']} of {result['attempted']} commands"),
    }
    for kind in workloads.COMMAND_KINDS:
        mine = [t for i, t in ref.items() if kinds[i] == kind]
        values[f"{kind}_s"] = ((sum(mine), f"{len(mine)} command(s) per pass, at the reference "
                                f"CPU speed, median of {n} passes")
                               if mine else (None, f"no {kind} command in this workload"))
    units = {name: "s" for name in values}
    units.update(peak_rss_mb="MB", fail_rate="ratio")
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
    print(f"perfbench {args.workload} seed={args.seed}: {n} pass(es), closed loop, "
          f"1 client, fresh interpreter per pass")
    _print_metrics(values, units)
    result["metrics"] = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                         for m in spec["end_to_end"]}
    result["detail"] = {"setup": [[x["setup_s"], x["setup_kernel_s"]] for x in setup],
                        "report": {k: v[0] for k, v in values.items()},
                        "commands": {str(i): xs for i, xs in sorted(timed.items())}}
    return result


# -- traced run: per-layer metrics ----------------------------------------


def traced_run(args, env, run_dir, expected, spec) -> dict:
    payload = run_json(["trace", args.workload, str(args.seed)], env, run_dir)
    checker = Checker(args.workload, args.seed, expected)
    for res in payload["commands"]:
        if checker.check(res) and (res["traced_exit"], res["traced_stdout"]) != (
                res["exit"], res["stdout"]["sha256"]):
            checker.correct = False
            checker.problems.append(f"{res['key']!r}: output changes under tracing")
    result = checker.summary()
    for failure in payload["layer"]["failures"]:
        result["problems"].append(f"layer probe: {failure}")
        result["correct"] = False

    spans, speed = payload["spans"], tracing.Speed(payload["speed"])

    def at_ref(sid: int, seconds: float) -> float:
        span = spans[sid]
        return at_reference_speed(seconds, speed.kernel_s(span[tracing.START], span[tracing.END]))

    own = tracing.self_times(spans)
    layers: dict[str, list[float]] = {}
    probe_span = {}
    for sid, (span, self_s) in enumerate(zip(spans, own)):
        if span[tracing.WORKLOAD] == args.workload:
            layers.setdefault(span[tracing.NAME], []).append(at_ref(sid, self_s))
        else:
            probe_span[span[tracing.NAME]] = sid
    commands = payload["commands"]
    traced = sum(r["traced_seconds"] for r in commands)
    untraced = sum(r["seconds"] for r in commands)
    cli_self = sum(own[r["span"]] for r in commands)
    values = dict(payload["layer"]["metrics"])
    for name in values:  # probe times, at the reference CPU speed
        sid = probe_span.get(name[:-2]) if name.endswith("_s") else None
        if name.startswith("verify."):
            sid = probe_span["verify.run_verification"]
        if sid is not None:
            values[name] = at_ref(sid, values[name])
    values["cli.self_s"] = sum(at_ref(r["span"], own[r["span"]]) for r in commands)
    values["trace.coverage"] = 1 - cli_self / traced

    print(f"perfbench {args.workload} seed={args.seed}: traced pass, {len(commands)} commands, "
          f"{len(spans)} spans")
    print(f"trace: untraced {untraced:.4f} s, traced {traced:.4f} s, "
          f"overhead {traced / untraced - 1:+.2%}; layer coverage {values['trace.coverage']:.2%}")
    for name, selfs in sorted(layers.items(), key=lambda kv: -sum(kv[1])):
        print(f"layer {name}: self {sum(selfs):.4f} s at the reference CPU speed, "
              f"over {len(selfs)} span(s)")
    for r in sorted(commands, key=lambda r: -r["traced_seconds"])[:12]:
        wall = r["traced_seconds"]
        print(f"command {r['key']!r}: untraced {r['seconds']:.4f} s, traced {wall:.4f} s, "
              f"coverage {1 - own[r['span']] / wall:.2%}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"traced run did not produce {missing}")
    traced_here = {"cli.self_s", "trace.coverage"}
    _print_metrics({name: (values[name], "this workload's commands" if name in traced_here
                           else "layer probe") for name in units}, units)
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result["detail"] = {"untraced_s": untraced, "traced_s": traced,
                        "layers": {k: sum(v) for k, v in layers.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"spans-{args.workload}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "busy", "workload", "key"],
                   "spans": spans}, fh)
    return result


# -- run record -----------------------------------------------------------


def start_record(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "nproc": nproc, "python": platform.python_version(),
              "mpmath": _version("mpmath"), "source_sha256": _source_digest(),
              "loadavg_start": os.getloadavg(), "warnings": []}
    record.update(_git())
    _check_load(record, "start")
    return record


def finish_record(record: dict) -> None:
    record["loadavg_end"] = os.getloadavg()
    _check_load(record, "end")
    print("run-record: " + json.dumps(record))


def _check_load(record: dict, when: str) -> None:
    load = os.getloadavg()[0]
    if load > record["nproc"]:
        warning = f"load average {load:.2f} at {when} exceeds nproc={record['nproc']}"
        record["warnings"].append(warning)
        print(f"warning: {warning}", file=sys.stderr)


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "flatstir")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return {"git_sha": None, "git_dirty": None}
    def git(*argv):
        return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def save(record: dict, result: dict) -> None:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, **result}, fh, indent=1)


# -- helpers --------------------------------------------------------------


def snapshot() -> dict[str, tuple[int, int]]:
    """Size and mtime of every file of the checkout the program may not touch."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = [d for d in dirnames if os.path.normpath(os.path.join(rel, d)) not in SNAPSHOT_SKIP]
        for f in filenames:
            st = os.lstat(os.path.join(dirpath, f))
            files[os.path.normpath(os.path.join(rel, f))] = (st.st_size, st.st_mtime_ns)
    return files


def _print_metrics(values: dict, units: dict) -> None:
    for name, (value, how) in values.items():
        shown = "n/a" if value is None else repr(value)
        print(f"metric {name} = {shown} {units.get(name, '')} ({how})")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
