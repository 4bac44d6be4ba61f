"""Command-line interface.

All results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification mismatch or series term cap hit, 2 usage error, 3 budget
exceeded or out of memory, 4 unusable sequence data in `oeis` or `verify`
(`BFileError`, whose docstring lists the causes), printed as `error: data:`
and the b-file's URL or path.

A module that only some commands use is imported where it is used: the
standard library's `fractions`, `decimal` and `json`, and each of
flatstir's route modules.  Handlers call a route through its module
attribute, and `bijection` parses through `cli.parse_word` and
`cli.parse_partition`, because the benchmark's tracer wraps those names;
so `words` and `partitions` are the only route modules loaded up front.

Settings enter here and nowhere else.  There is no config file.
`--force` lifts the enumeration cap (`counting.DEFAULT_BUDGET`) on
`enumerate`, `count` and `poly`.  The one setting outside the flags, the
directory of saved b-files, is `FLATSTIR_CACHE_DIR`: the `oeis` and
`verify` handlers read it through `_cache_dir` and pass it on as
`cache_dir`; unset or empty, no saved b-file is read.  JSON input
(`bijection --format json`) is checked once, by the `StirlingWord` or
`ColoredPartition` constructor.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from math import factorial
from operator import methodcaller
from typing import TYPE_CHECKING

from .errors import (
    BFileError,
    BudgetExceededError,
    ConvergenceError,
    DomainError,
    FlatstirError,
)
from .partitions import parse_partition, partition_from_json
from .words import parse_word, word_from_json

if TYPE_CHECKING:
    from .verify import CheckResult, VerifyLimits

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DATA = 4

ENUMERATE_CHUNK_LINES = 1024

# Every integer flag's floor, in the order `main` checks them; a subcommand
# overrides one through a `floors` default.
_FLAG_FLOORS = (("k", 1), ("order", 0), ("n", 1), ("max_n", 1))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:  # exact counts outgrow the default 4300-digit int-to-str limit
        sys.set_int_max_str_digits(0)
    try:
        floors = getattr(args, "floors", {})
        for flag, least in _FLAG_FLOORS:  # wherever the command has the flag
            value = getattr(args, flag, None)
            least = floors.get(flag, least)
            if value is not None and value < least:  # name the user's flag, not a derived value
                raise DomainError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
        code = args.handler(args)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return code
    except BudgetExceededError as exc:
        return _fail("budget", exc, EXIT_RESOURCE)
    except MemoryError as exc:
        return _fail("resource", str(exc) or "out of memory", EXIT_RESOURCE)
    except BFileError as exc:
        return _fail("data", exc, EXIT_DATA)
    except ConvergenceError as exc:
        # the series route hit its term cap: no certified answer
        return _fail("internal", exc, EXIT_MISMATCH)
    except (FlatstirError, ValueError) as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except BrokenPipeError:
        # the reader has left: what is still buffered goes to the null device,
        # so the interpreter's flush at exit cannot fail on the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def _fail(category: str, exc: Exception | str, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


def _print_json(payload: object) -> None:
    import json  # local import: only --format json output needs it

    print(json.dumps(payload))


def _print_table(fmt: str, header: list[str], body: list[list[str]]) -> None:
    """Rows of cells as comma-separated lines ("csv") or a markdown table."""
    if fmt == "csv":
        print("\n".join(",".join(cells) for cells in (header, *body)))
    else:
        rule = ["---"] * len(header)
        print("\n".join("| " + " | ".join(cells) + " |" for cells in (header, rule, *body)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatstir",
        description="Enumerate, count and analyze flattened k-Stirling permutations "
        "and good k-colored set partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream words or partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--flattened", action="store_true", help="only flattened words")
    p.add_argument("--as", dest="kind", choices=("words", "partitions"), default="words")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--force", action="store_true", help="lift the enumeration budget")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("count", help="count flattened words of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("dobinski", "recurrence", "identity", "egf", "series-approx", "bruteforce"),
        default="dobinski",
        help="dobinski (default): the exact finite Dobinski sum, O(1) big integers; "
        "recurrence: the derivative triangle; identity: the Stirling double sum; "
        "egf: the exponential formula; series-approx: the truncated Dobinski series; "
        "bruteforce: enumeration",
    )
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("table", help="totals and run-refined counts up to max-n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("bijection", help="map stdin through the bijection")
    p.add_argument("--direction", choices=("forward", "inverse"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_bijection)

    p = sub.add_parser("poly", help="print the descent polynomial of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("egf", "bruteforce"), default="egf")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=cmd_poly)

    p = sub.add_parser("egf", help="print exact rational EGF coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=32, help="truncation order N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_egf)

    p = sub.add_parser("verify", help="run the full cross-validation suite")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--offline", action="store_true", help="skip network fetches")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oeis", help="cross-check counts against a published sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    # alignment uses the first three terms
    p.set_defaults(handler=cmd_oeis, floors={"max_n": 2})

    p = sub.add_parser("conjecture", help="unimodality / real-rootedness evidence report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.set_defaults(handler=cmd_conjecture)

    return parser


def _budget(args: argparse.Namespace) -> int | None:
    """The enumeration cap: None under --force, else the default.  Every
    caller has loaded `counting` already; read per call, so a patch applies."""
    from . import counting

    return None if args.force else counting.DEFAULT_BUDGET


def _cache_dir() -> str:
    """The directory of saved b-files: `FLATSTIR_CACHE_DIR`, "" for none."""
    return os.environ.get("FLATSTIR_CACHE_DIR", "")


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import enumeration

    budget = _budget(args)
    if args.kind == "partitions":
        if args.flattened:
            raise ValueError("--flattened applies to words; every good partition "
                             "already corresponds to a flattened word")
        stream = enumeration.gen_gcp(args.n, args.k, budget=budget)
    elif args.flattened:
        stream = enumeration.gen_flattened(args.n, args.k, budget=budget)
    else:
        stream = enumeration.gen_stirling(args.n, args.k, budget=budget)
    # Output goes out in chunks of ENUMERATE_CHUNK_LINES lines, one write each:
    # a print per line costs nearly as much as the walk, and a bounded chunk
    # keeps memory flat however long the stream.
    lines = map(methodcaller("to_json" if args.format == "jsonl" else "to_text"), stream)
    while chunk := list(islice(lines, ENUMERATE_CHUNK_LINES)):
        chunk.append("")  # the last line's newline
        sys.stdout.write("\n".join(chunk))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    from . import counting

    if args.method == "dobinski":
        print(counting.count_flattened_dobinski(args.n, args.k))
    elif args.method == "recurrence":
        print(counting.count_flattened_recurrence(args.n, args.k))
    elif args.method == "identity":
        print(counting.count_flattened_identity(args.n, args.k))
    elif args.method == "egf":
        from . import series

        egf = series.egf_flattened(args.k, args.n - 1)
        print(egf.egf_coefficient(args.n - 1))
    elif args.method == "series-approx":
        approx, rounded = counting.count_flattened_series_approx(args.n - 1, args.k)
        print(rounded)
        import decimal  # local import: only this route prints a decimal

        digits = decimal.Context(prec=30)
        print(f"{digits.divide(approx.numerator, approx.denominator):.30g}", file=sys.stderr)
    else:
        from . import enumeration

        total = sum(
            1 for _ in enumeration.gen_flattened(args.n, args.k, budget=_budget(args))
        )
        print(total)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    from . import counting

    table = counting.count_table(args.k, args.max_n)
    if args.format == "json":
        payload = {
            "k": table.k,
            "rows": [
                {
                    "n": row.n,
                    "stirling_words": counting.predicted_stirling_count(row.n, table.k),
                    "total": row.total,
                    "runs": list(row.run_refined),
                }
                for row in table.rows
            ],
        }
        _print_json(payload)
        return EXIT_OK
    width = max(len(row.run_refined) for row in table.rows)
    header = ["n", "words", "flattened"] + [f"runs={s}" for s in range(1, width + 1)]
    body = []
    for row in table.rows:
        cells = [str(row.n), str(counting.predicted_stirling_count(row.n, table.k)),
                 str(row.total)]
        cells += [str(c) for c in row.run_refined] + [""] * (width - len(row.run_refined))
        body.append(cells)
    _print_table(args.format, header, body)
    return EXIT_OK


def cmd_bijection(args: argparse.Namespace) -> int:
    from . import bijection

    payload = sys.stdin.read().strip()
    if not payload:
        raise ValueError("expected one object on standard input")
    as_json = args.format == "json"
    if args.direction == "forward":
        p = partition_from_json(payload) if as_json else parse_partition(payload, args.k)
        if p.k != args.k:  # JSON carries its own k
            raise DomainError(f"--k is {args.k}, but the JSON partition's k is {p.k}")
        out = bijection.phi(p)
    else:
        w = word_from_json(payload) if as_json else parse_word(payload, args.k)
        if w.multiplicity != args.k:
            raise DomainError(f"--k is {args.k}, but the JSON multiplicity is {w.multiplicity}")
        out = bijection.phi_inverse(w)
    print(out.to_json() if as_json else out.to_text())
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    if args.method == "egf":
        from . import series

        egf = series.descent_egf(args.k, args.n - 1)
        poly = series.extract_descent_polynomial(egf, args.n - 1)
    else:
        from . import analysis

        poly = analysis.descent_polynomial_bruteforce(
            args.n, args.k, budget=_budget(args)
        )
    if args.format == "json":
        _print_json({"n": args.n, "k": args.k, "coefficients": list(poly.coeffs)})
    else:
        print(poly.to_text())
    return EXIT_OK


def cmd_egf(args: argparse.Namespace) -> int:
    from fractions import Fraction  # local import: it loads decimal and numbers too

    from . import series

    egf = series.egf_flattened(args.k, args.order)
    fractions = [str(Fraction(egf.egf_coefficient(n), factorial(n)))
                 for n in range(args.order + 1)]
    if args.format == "json":
        _print_json({"k": args.k, "order": args.order, "coefficients": fractions})
    else:
        for n, text in enumerate(fractions):
            print(f"{n} {text}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import VerifyLimits  # local import: no other command needs the module

    limits = VerifyLimits(max_n=args.max_n, offline_oeis=args.offline, cache_dir=_cache_dir())
    results = run_verification(limits)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.1f}s): {r.detail}")
        failures += 0 if r.ok else 1
    if failures:
        print(f"error: verification: {failures} check(s) failed", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def run_verification(limits: VerifyLimits) -> list[CheckResult]:
    """`verify.run_verification`, importing `verify` on the first call.

    A module attribute of `cli`, so the benchmark's tracer can wrap it as
    before; no other command loads `verify`.
    """
    from . import verify

    return verify.run_verification(limits)


def cmd_oeis(args: argparse.Namespace) -> int:
    from . import oeis

    report = oeis.cross_check(args.k, args.max_n, offline=args.offline, cache_dir=_cache_dir())
    if args.format == "json":
        payload = {
            "k": report.k,
            "sequence": report.sequence_id,
            "source": report.source,
            "shift": report.shift,
            "rows": [r._asdict() for r in report.rows],
            "all_match": report.all_match,
        }
        _print_json(payload)
    else:
        print(f"{report.sequence_id} (source: {report.source}, shift {report.shift})")
        for r in report.rows:
            flag = "ok" if r.match else "MISMATCH"
            print(f"n={r.n} computed={r.computed} expected={r.expected} {flag}")
    if not report.all_match:
        print("error: verification: sequence mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_conjecture(args: argparse.Namespace) -> int:
    from . import analysis, series

    rows = analysis.conjecture_report(args.k, args.max_n)
    if args.format == "json":
        _print_json([r._asdict() for r in rows])
    else:
        header = ["n", "k", "polynomial", "unimodal", "real-rooted"]
        body = [[str(r.n), str(r.k), series.IntPolynomial(r.coefficients).to_text(),
                 str(r.unimodal), str(r.real_rooted)] for r in rows]
        _print_table(args.format, header, body)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
