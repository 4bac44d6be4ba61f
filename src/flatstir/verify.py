"""Cross-validation suite wiring every route against every other.

Each check pits an independent pair of computations against each other:
closed forms against enumeration, series coefficients against recurrences,
bijection round trips against identity.  The CLI `verify` subcommand runs
them all and fails on any mismatch.

Reference constants below are regression anchors; every one of them is
recomputed from scratch by the brute-force oracle inside these checks.
A check over a range of orders reads its totals from one triangle pass per
k; checks share only the memo of brute-force run distributions.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from . import analysis, bijection, counting, enumeration, oeis, series, words
from .errors import NotFlattenedError
from .partitions import block_descent_count, parse_partition
from .words import parse_word

REFERENCE_TOTALS_K2 = {
    1: 1, 2: 2, 3: 6, 4: 24, 5: 116, 6: 648, 7: 4088, 8: 28640, 9: 219920, 10: 1832224,
}
REFERENCE_RUNS_K2 = {
    1: (1,),
    2: (1, 1),
    3: (1, 5),
    4: (1, 15, 8),
    5: (1, 37, 70, 8),
    6: (1, 83, 374, 190),
    7: (1, 177, 1596, 2034, 280),
    8: (1, 367, 6012, 15260, 6720, 280),
}
REFERENCE_STIRLING_TOTALS_K2 = {
    1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395, 7: 135135, 8: 2027025,
}
# Published low-order descent polynomials for k = 3 and k = 4 (orders 3..5).
REFERENCE_DESCENT_POLYS = {
    (3, 3): (1, 9, 2),
    (4, 3): (1, 26, 36),
    (5, 3): (1, 63, 251, 90),
    (3, 4): (1, 13, 6),
    (4, 4): (1, 37, 84, 6),
    (5, 4): (1, 89, 546, 372),
}
WORKED_EXAMPLE_WORD = "1 2 2 2 2 6 6 6 6 1 4 4 4 4 1 1 3 3 3 3 5 5 5 5"
WORKED_EXAMPLE_PARTITION = "1_1 2_3 4_2 6_3 | 3_1 | 5_1"
WORKED_EXAMPLE_K = 4


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


class VerifyLimits(NamedTuple):
    max_n: int = 8
    max_k: int = 4
    budget: int | None = counting.DEFAULT_BUDGET
    offline_oeis: bool = False
    cache_dir: str | None = None
    oeis_timeout: float = oeis.DEFAULT_TIMEOUT


class _State:
    def __init__(self, limits: VerifyLimits):
        self.limits = limits
        self._distributions: dict[tuple[int, int], counting.CountTableRow] = {}

    def distribution(self, n: int, k: int) -> counting.CountTableRow:
        key = (n, k)
        if key not in self._distributions:
            self._distributions[key] = counting.run_distribution_bruteforce(
                n, k, budget=self.limits.budget
            )
        return self._distributions[key]


def run_verification(limits: VerifyLimits | None = None) -> list[CheckResult]:
    limits = limits or VerifyLimits()
    state = _State(limits)
    checks: list[tuple[str, Callable[[_State], str]]] = [
        ("totals-three-routes", _check_totals),
        ("run-refinement-bruteforce", _check_run_refinement),
        ("bijection-round-trip", _check_round_trip),
        ("worked-example-regression", _check_worked_example),
        ("run-count-closed-forms", _check_run_closed_forms),
        ("descent-polynomials", _check_descent_polynomials),
        ("series-specializations", _check_specializations),
        ("series-numeric-approx", _check_numeric_series),
        ("bell-number-reduction", _check_bell),
        ("oeis-cross-check", _check_oeis),
        ("statistic-properties", _check_properties),
        ("conjecture-report", _check_conjectures),
    ]
    results = []
    for name, fn in checks:
        start = time.monotonic()
        try:
            detail = fn(state)
            ok = True
        except Exception as exc:  # a failed expectation or a crash both fail the check
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, time.monotonic() - start))
    return results


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_totals(state: _State) -> str:
    recurrence = counting.flattened_totals(2, len(REFERENCE_TOTALS_K2))
    for n, expected in REFERENCE_TOTALS_K2.items():
        rec = recurrence[n - 1]
        ident = counting.count_flattened_identity(n, 2)
        _expect(rec == expected, f"recurrence({n},2)={rec}, reference {expected}")
        _expect(ident == expected, f"identity({n},2)={ident}, reference {expected}")
    egf = series.egf_flattened(2, 9)
    for n in range(10):
        coeff = egf.egf_coefficient(n)
        _expect(
            coeff == REFERENCE_TOTALS_K2[n + 1],
            f"egf coefficient at order {n + 1} is {coeff}",
        )
    for k in range(1, 7):
        series_route = series.egf_flattened(k, 24)
        for n, rec in enumerate(counting.flattened_totals(k, 25), start=1):
            ident = counting.count_flattened_identity(n, k)
            _expect(rec == ident, f"recurrence/identity disagree at n={n}, k={k}")
            _expect(
                series_route.egf_coefficient(n - 1) == rec,
                f"series route disagrees at n={n}, k={k}",
            )
    return "three routes agree for n<=25, k<=6; reference totals reproduced"


def _check_run_refinement(state: _State) -> str:
    top = min(state.limits.max_n, 8)
    for n in range(1, top + 1):
        row = state.distribution(n, 2)
        _expect(
            row.run_refined == REFERENCE_RUNS_K2[n],
            f"run refinement at n={n}: {row.run_refined} != {REFERENCE_RUNS_K2[n]}",
        )
        _expect(row.total == REFERENCE_TOTALS_K2[n], f"total mismatch at n={n}")
        predicted = enumeration.predicted_stirling_count(n, 2)
        _expect(
            predicted == REFERENCE_STIRLING_TOTALS_K2[n],
            f"|Q_{n}^2| predicted {predicted}",
        )
    return f"run-refined counts reproduced for k=2, n<={top}"


def _check_round_trip(state: _State) -> str:
    budget = state.limits.budget
    checked = 0
    for k in range(1, min(state.limits.max_k, 4) + 1):
        for n in range(1, min(state.limits.max_n, 6) + 1):
            for p in enumeration.gen_gcp(n, k, budget=budget):
                # per-object checks build their message only on failure
                w = bijection.phi(p)
                try:  # phi_inverse's gate is the flattened check
                    back = bijection.phi_inverse(w)
                except NotFlattenedError:
                    raise AssertionError(f"phi image not flattened: {w.letters}") from None
                if back != p:
                    raise AssertionError(f"round trip failed for {p.to_text()} (k={k})")
                checked += 1
    for k, n_top in ((2, 6), (3, 5)):
        for n in range(1, min(state.limits.max_n, n_top) + 1):
            image = {bijection.phi(p) for p in enumeration.gen_gcp(n, k, budget=budget)}
            filtered = set(enumeration.gen_flattened(n, k, budget=budget))
            _expect(
                image == filtered,
                f"phi image differs from the flattened subset at n={n}, k={k}",
            )
    return f"{checked} partitions round-tripped; image equals the flattened subset"


def _check_worked_example(state: _State) -> str:
    p = parse_partition(WORKED_EXAMPLE_PARTITION, WORKED_EXAMPLE_K)
    w = parse_word(WORKED_EXAMPLE_WORD, WORKED_EXAMPLE_K)
    _expect(bijection.phi(p) == w, "forward image differs from the worked example")
    _expect(bijection.phi_inverse(w) == p, "inverse image differs from the worked example")
    return "worked example reproduced in both directions"


def _check_run_closed_forms(state: _State) -> str:
    def refined(n: int, k: int, s: int) -> int:
        row = state.distribution(n, k).run_refined
        return row[s - 1] if len(row) >= s else 0

    for k in (1, 2, 3):
        for n in range(1, min(state.limits.max_n, 7) + 1):
            closed = counting.count_runs_2(n, k)
            brute = refined(n, k, 2)
            _expect(closed == brute, f"two-run count at n={n}, k={k}: {closed} != {brute}")
    for n in range(1, min(state.limits.max_n, 8) + 1):
        closed = counting.count_runs_3(n, 2)
        brute = refined(n, 2, 3)
        _expect(closed == brute, f"three-run count at n={n}: {closed} != {brute}")
    for n in range(1, min(state.limits.max_n, 8) + 1):
        bound = counting.max_runs_bound(n, 2)
        closed = counting.count_max_runs_k2(n)
        brute = refined(n, 2, bound)
        _expect(closed == brute, f"maximum-run count at n={n}: {closed} != {brute}")
    return "two-run, three-run and maximum-run closed forms match enumeration"


def _check_descent_polynomials(state: _State) -> str:
    for k, n_top in ((2, 7), (3, 5), (4, 4)):
        top = min(state.limits.max_n, n_top)
        egf = series.descent_egf(k, top - 1)
        for n in range(1, top + 1):
            extracted = series.extract_descent_polynomial(egf, n - 1)
            brute = analysis.descent_polynomial_bruteforce(n, k, budget=state.limits.budget)
            _expect(
                extracted == brute,
                f"descent polynomial at n={n}, k={k}: {extracted.coeffs} != {brute.coeffs}",
            )
    for (n, k), coeffs in REFERENCE_DESCENT_POLYS.items():
        egf = series.descent_egf(k, n - 1)
        extracted = series.extract_descent_polynomial(egf, n - 1)
        _expect(
            extracted.coeffs == coeffs,
            f"published polynomial at n={n}, k={k}: got {extracted.coeffs}",
        )
    return "descent polynomials match enumeration and the published low orders"


def _check_specializations(state: _State) -> str:
    order = 20
    _expect(
        series.descent_egf(1, order) == closed_form_k1(order),
        "k=1 series differs from its closed form",
    )
    _expect(
        series.descent_egf(2, order) == closed_form_k2(order),
        "k=2 series differs from its closed form",
    )
    for k in range(1, 6):
        bivariate = series.descent_egf(k, 25)
        univariate = series.egf_flattened(k, 25)
        _expect(
            all(bivariate.egf_coefficient(n) == univariate.egf_coefficient(n) for n in range(26)),
            f"t->1 collapse differs from the univariate series at k={k}",
        )
    return "closed forms at k=1,2 and the t->1 collapse hold coefficientwise"


def closed_form_k1(order: int) -> series.EgfSeries:
    """exp(z + t(e^z - z - 1)), built without Stirling numbers.

    Exponent entries: A_1 = 1 and A_n = t for n >= 2.
    """
    exponent = ((),) + tuple((1,) if n == 1 else (0, 1) for n in range(1, order + 1))
    return series.EgfSeries(exponent).exp()


def closed_form_k2(order: int) -> series.EgfSeries:
    """(t(e^z-1)+1) exp(z + 2t(e^z-z-1) + 2t^2 (3 + 2z - 4e^z + e^(2z))/4).

    Exponent entries: A_1 = 1 and A_n = 2t + (2^(n-1) - 2) t^2 for n >= 2;
    weight entries: W_0 = 1 and W_n = t for n >= 1.
    """
    exponent = ((),) + tuple(
        (1,) if n == 1 else (0, 2, 2 ** (n - 1) - 2) for n in range(1, order + 1)
    )
    weight = ((1,),) + ((0, 1),) * order
    return series.EgfSeries(weight) * series.EgfSeries(exponent).exp()


def _check_numeric_series(state: _State) -> str:
    for k in range(1, 5):
        for n, exact in enumerate(counting.flattened_totals(k, 16)):
            approx, rounded = counting.count_flattened_series_approx(n, k, 128)
            _expect(rounded == exact, f"series approx rounds to {rounded}, exact {exact}")
            _expect(
                abs(approx - exact) * 10**6 < exact,
                f"relative error too large at n={n}, k={k}",
            )
    return "series evaluation rounds to the exact count for k<=4, n<=15"


def _check_bell(state: _State) -> str:
    for n, flat in enumerate(counting.flattened_totals(1, 21)):
        bell = counting.bell_number(n)
        _expect(flat == bell, f"order {n + 1} count {flat} != Bell({n}) = {bell}")
    return "k=1 counts equal Bell numbers through n=20"


def _check_oeis(state: _State) -> str:
    import tempfile  # local import: its imports are a large share of the cold start

    sources = []
    for k in (2, 3, 4):
        report = oeis.cross_check(
            k,
            9,
            offline=state.limits.offline_oeis,
            cache_dir=state.limits.cache_dir,
            timeout=state.limits.oeis_timeout,
        )
        _expect(report.all_match, f"sequence mismatch for k={k} ({report.sequence_id})")
        _expect(report.compared >= 10, f"only {report.compared} terms compared for k={k}")
        sources.append(f"{report.sequence_id}:{report.source}")
    with tempfile.TemporaryDirectory() as tmp:
        for k in (2, 3, 4):
            report = oeis.cross_check(k, 9, offline=True, cache_dir=tmp)
            _expect(report.source == "embedded", "offline run did not use embedded terms")
            _expect(report.all_match, f"offline mismatch for k={k}")
    return "matched " + ", ".join(sources) + "; offline embedded path passes"


def _check_properties(state: _State) -> str:
    budget = state.limits.budget
    total_words = 0
    for k in range(1, min(state.limits.max_k, 3) + 1):
        for n in range(1, min(state.limits.max_n, 6) + 1):
            bound = counting.max_runs_bound(n, k)
            seen_runs = 0
            for w in enumeration.gen_stirling(n, k, budget=budget):
                # per-object checks build their message only on failure
                s = words.word_stats(w)
                if s.runs != s.descents + 1:
                    raise AssertionError("runs != descents + 1")
                if s.descents + s.plateaus + s.ascents != n * k - 1:
                    raise AssertionError("descents + plateaus + ascents != nk - 1")
                total_words += 1
                if words.is_flattened(w):
                    if s.runs > bound:
                        raise AssertionError(f"run bound violated at n={n}, k={k}")
                    seen_runs = max(seen_runs, s.runs)
            _expect(seen_runs == bound, f"run bound not attained at n={n}, k={k}")
            for p in enumeration.gen_gcp(n, k, budget=budget):
                if block_descent_count(p) != words.word_stats(bijection.phi(p)).descents:
                    raise AssertionError(f"descent transport failed for {p.to_text()}")
    return f"statistic identities hold on {total_words} enumerated words"


def _check_conjectures(state: _State) -> str:
    rows = analysis.conjecture_report(2, 10)
    for row in rows:
        _expect(row.unimodal, f"order {row.n} polynomial reported non-unimodal")
        _expect(row.real_rooted, f"order {row.n} polynomial reported non-real-rooted")
    for k in (3, 4):
        for row in analysis.conjecture_report(k, 5):
            if row.n >= 3:
                _expect(
                    row.unimodal and row.real_rooted,
                    f"published observation fails at n={row.n}, k={k}",
                )
    return "descent polynomials unimodal and real-rooted across the observed range"
