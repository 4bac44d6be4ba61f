"""Write perfbench/expected.json: the expected output of every fixed command.

    python3 perfbench/gen_expected.py        # from the repository root

Run once, when the workloads change; the result is committed.  Each
expectation comes from a route independent of the one the command takes:

* count: recurrence, Stirling identity and EGF coefficient must agree;
  series-approx and bruteforce are expected to print that exact value;
* table: rows are the descent-EGF coefficients (runs = descents + 1), and
  at k=2 they must equal verify.REFERENCE_RUNS_K2;
* poly --method bruteforce: the EGF route's polynomial;
* poly (EGF route): coefficient sum, two- and three-run closed forms and
  the k=2 maximum-run closed form;
* egf: n!-normalised coefficients equal the recurrence counts;
* enumerate: the printed set equals the other route's set (filter vs
  bijection), with the recurrence count and no repeats;
* conjecture: each polynomial's sum equals the recurrence count, and
  every real-rootedness verdict is compared against an mpmath.polyroots
  count of non-real roots; verdicts are recorded as they are;
* verify: every check passes (its timings are masked).

A command whose output differs from its independent expectation is
recorded as a known defect, with the output observed, and the benchmark
counts it as failed.  Nothing here is resized to hide a defect.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from math import factorial, prod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
sys.dont_write_bytecode = True

import mpmath  # noqa: E402

import workloads  # noqa: E402
from flatstir import bijection, cli, counting, enumeration, series, verify  # noqa: E402

OUT = os.path.join(HERE, "expected.json")
KEEP_TEXT = 4096  # expected stdout stored verbatim up to this size


def flag(argv: tuple[str, ...], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


@cache
def exact_count(n: int, k: int) -> int:
    ctx = counting.CountContext()
    rec = counting.count_flattened_recurrence(n, k, ctx)
    ident = counting.count_flattened_identity(n, k, ctx)
    egf = series.egf_flattened(k, n - 1, ctx).egf_coefficient(n - 1)
    if not rec == ident == egf:
        raise AssertionError(f"count routes disagree at n={n}, k={k}: {rec}, {ident}, {egf}")
    return rec


def descent_rows(k: int, max_n: int) -> list[tuple[int, ...]]:
    egf = series.descent_egf(k, max_n - 1)
    return [series.extract_descent_polynomial(egf, n - 1).coeffs for n in range(1, max_n + 1)]


def expect_count(argv) -> str:
    return f"{exact_count(int(flag(argv, '--n')), int(flag(argv, '--k')))}\n"


def expect_table(argv) -> str:
    k, max_n = int(flag(argv, "--k")), int(flag(argv, "--max-n"))
    rows = descent_rows(k, max_n)  # runs = descents + 1
    for n, row in enumerate(rows, start=1):
        if k == 2 and n in verify.REFERENCE_RUNS_K2 and row != verify.REFERENCE_RUNS_K2[n]:
            raise AssertionError(f"descent EGF row {row} != reference runs at n={n}")
        if sum(row) != exact_count(n, k):
            raise AssertionError(f"descent EGF row at n={n}, k={k} does not sum to the count")
    width = max(len(r) for r in rows)
    header = ["n", "words", "flattened"] + [f"runs={s}" for s in range(1, width + 1)]
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(" --- " for _ in header) + "|"]
    for n, row in enumerate(rows, start=1):
        words = prod(i * k + 1 for i in range(n))
        cells = [str(n), str(words), str(sum(row))] + [str(c) for c in row]
        cells += [""] * (width - len(row))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def poly_text(coeffs) -> str:
    return series.IntPolynomial(tuple(coeffs)).to_text()


def expect_poly_bruteforce(argv) -> str:
    n, k = int(flag(argv, "--n")), int(flag(argv, "--k"))
    return poly_text(descent_rows(k, n)[-1]) + "\n"


def check_poly(argv, text: str) -> None:
    n, k = int(flag(argv, "--n")), int(flag(argv, "--k"))
    coeffs = descent_rows(k, n)[-1]
    if text != poly_text(coeffs) + "\n":
        raise AssertionError(f"{argv}: output is not the descent polynomial")
    checks = [sum(coeffs) == exact_count(n, k), coeffs[0] == 1,
              coeffs[1] == counting.count_runs_2(n, k)]
    if k == 2:
        checks += [coeffs[2] == counting.count_runs_3(n, 2),
                   coeffs[counting.max_runs_bound(n, 2) - 1] == counting.count_max_runs_k2(n)]
    if not all(checks):
        raise AssertionError(f"{argv}: descent polynomial fails a closed form: {checks}")


def expect_egf(argv) -> str:
    k, order = int(flag(argv, "--k")), int(flag(argv, "--order"))
    ctx = counting.CountContext()
    lines = []
    for n in range(order + 1):
        c = Fraction(counting.count_flattened_recurrence(n + 1, k, ctx), factorial(n))
        lines.append(f"{n} {c.numerator}/{c.denominator}" if c.denominator != 1 else f"{n} {c}")
    return "\n".join(lines) + "\n"


def check_enumerate(argv, text: str) -> None:
    n, k = int(flag(argv, "--n")), int(flag(argv, "--k"))
    lines = text.splitlines()
    if len(lines) != len(set(lines)) or len(lines) != exact_count(n, k):
        raise AssertionError(f"{argv}: {len(lines)} lines, expected distinct and the count")
    if "partitions" in argv:
        printed = {tuple(tuple(map(tuple, b)) for b in json.loads(x)["blocks"]) for x in lines}
        other = {bijection.phi_inverse(w).blocks
                 for w in enumeration.gen_flattened(n, k, via="filter")}
    else:
        printed = {tuple(map(int, x.split())) for x in lines}
        other = {w.letters for w in enumeration.gen_flattened(n, k, via="bijection")}
    if printed != other:
        raise AssertionError(f"{argv}: printed set differs from the other route's set")


def nonreal_roots(coeffs) -> int:
    with mpmath.workdps(80):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=500, extraprec=400)
        tiny = mpmath.mpf(10) ** -30
        return sum(1 for r in roots if abs(mpmath.im(r)) > tiny * max(1, abs(r)))


def conjecture_verdicts(argv, text: str) -> list[dict]:
    k, max_n = int(flag(argv, "--k")), int(flag(argv, "--max-n"))
    rows = workloads.parse_conjecture(text)
    out = []
    for (n, coeffs, unimodal, real_rooted), expected in zip(rows, descent_rows(k, max_n)):
        if coeffs != expected or sum(coeffs) != exact_count(n, k):
            raise AssertionError(f"{argv}: polynomial at n={n} is wrong")
        c = list(coeffs)
        peak = c.index(max(c))
        if unimodal != (c[:peak + 1] == sorted(c[:peak + 1]) and c[peak:] == sorted(c[peak:], reverse=True)):
            raise AssertionError(f"{argv}: unimodality verdict wrong at n={n}")
        nonreal = nonreal_roots(c) if len(c) > 2 else 0
        out.append({"n": n, "unimodal": unimodal, "real_rooted": real_rooted,
                    "numeric_nonreal_roots": nonreal,
                    "numeric_agrees": real_rooted == (nonreal == 0)})
    if len(out) != max_n:
        raise AssertionError(f"{argv}: expected {max_n} rows")
    return out


def capture(cmd: workloads.Command) -> tuple[int, str]:
    """Exit code and whole (masked) stdout of one command, run in-process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(cmd.argv))
    mask = workloads.MASKS.get(cmd.kind)
    return code, mask(out.getvalue()) if mask else out.getvalue()


def main() -> int:
    with tempfile.TemporaryDirectory() as cache:
        os.environ["FLATSTIR_CACHE_DIR"] = cache  # verify pins sequence offsets there
        expected = expectations()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def expectations() -> dict:
    expected: dict = {"commands": {}, "conjecture_verdicts": {}}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed=0):
            if cmd.expected_stdout is not None:
                continue  # seeded bijection inputs carry their own expectation
            code, text = capture(cmd)
            argv = cmd.argv
            method = flag(argv, "--method")
            route = None
            if cmd.kind == "count":
                route = "recurrence = identity = EGF coefficient"
                want = expect_count(argv)
            elif cmd.kind == "table":
                route = "descent-EGF coefficients, runs = descents + 1; REFERENCE_RUNS_K2 at k=2"
                want = expect_table(argv)
            elif cmd.kind == "poly" and method == "bruteforce":
                route = "descent-EGF polynomial"
                want = expect_poly_bruteforce(argv)
            elif cmd.kind == "egf":
                route = "recurrence counts over n!"
                want = expect_egf(argv)
            else:
                want = text
                if cmd.kind == "poly":
                    route = "sum = count; two-run, three-run and maximum-run closed forms"
                    check_poly(argv, text)
                elif cmd.kind == "enumerate":
                    route = "printed set = the other enumeration route's set"
                    check_enumerate(argv, text)
                elif cmd.kind == "conjecture":
                    route = "polynomials from the descent EGF; verdicts cross-checked by mpmath.polyroots"
                    expected["conjecture_verdicts"][cmd.key] = conjecture_verdicts(argv, text)
                elif cmd.kind == "verify":
                    route = "every check passes"
                    if code != 0 or any(not x.startswith("PASS ") for x in text.splitlines()):
                        raise AssertionError("verify does not pass on this tree")
            entry = {"route": route, "exit": 0,
                     "stdout_sha256": hashlib.sha256(want.encode()).hexdigest()}
            if len(want) <= KEEP_TEXT:
                entry["stdout"] = want
            if text != want or code != 0:
                entry["known_defect"] = {"exit": code,
                                         "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
                                         "stdout": text if len(text) <= KEEP_TEXT else None}
                print(f"known defect: {cmd.key} prints {text.strip()[:80]!r}, "
                      f"expected {want.strip()[:80]!r}", file=sys.stderr)
            expected["commands"][cmd.key] = entry
            print(f"ok {cmd.key}", file=sys.stderr)
    return expected


if __name__ == "__main__":
    sys.exit(main())
