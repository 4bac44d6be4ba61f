"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

The heavyweight enumerations (the flattened words of Q_n^2 through n=8
and of Q_n^3 through n=7) are shared via module-scoped fixtures; everything
asserted here is exact equality at the stated ranges.
"""

import io
import os
import tempfile
import time
from contextlib import contextmanager

import pytest

import flatstir as fs
from flatstir.counting import flattened_totals
from flatstir.oeis import SEQUENCE_BY_K
from flatstir.verify import (
    REFERENCE_DESCENT_POLYS,
    REFERENCE_RUNS_K2,
    REFERENCE_TOTALS_K2,
    WORKED_EXAMPLE_PARTITION,
    WORKED_EXAMPLE_WORD,
    closed_form_k1,
    closed_form_k2,
)


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE PASS  {label}")


@pytest.fixture(scope="module")
def dist_k2():
    """Run distributions for k=2 through n=8: the pruned filter walk keeps
    the 28,640 flattened words of order 8, though the budget still counts
    all 2,027,025 words of Q_8^2."""
    start = time.monotonic()
    rows = {n: fs.run_distribution_bruteforce(n, 2) for n in range(1, 9)}
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def dist_k3():
    return {n: fs.run_distribution_bruteforce(n, 3) for n in range(1, 8)}


@pytest.fixture(scope="module")
def dist_k1():
    return {n: fs.run_distribution_bruteforce(n, 1) for n in range(1, 8)}


def test_criterion_01_totals_three_routes(capsys):
    with criterion(capsys, "1: totals by recurrence/identity/EGF, k=2, n=1..10"):
        start = time.monotonic()
        egf = fs.egf_flattened(2, 9)
        recurrence = flattened_totals(2, 10)
        for n in range(1, 11):
            expected = REFERENCE_TOTALS_K2[n]
            assert recurrence[n - 1] == expected
            assert fs.count_flattened_identity(n, 2) == expected
            assert egf.egf_coefficient(n - 1) == expected
        assert time.monotonic() - start < 1.0


def test_criterion_02_run_refinement(capsys, dist_k2):
    rows, seconds = dist_k2
    with criterion(capsys, "2: brute-force run refinement, k=2, n<=8"):
        for n in range(1, 9):
            assert rows[n].run_refined == REFERENCE_RUNS_K2[n], f"n={n}"
            assert rows[n].total == REFERENCE_TOTALS_K2[n]
        assert seconds < 150.0, f"enumeration took {seconds:.0f}s"


def test_criterion_03_round_trip_and_image(capsys):
    with criterion(capsys, "3: bijection round trip and image characterization"):
        for k in (1, 2, 3, 4):
            for n in range(1, 7):
                for p in fs.gen_gcp(n, k):
                    assert fs.phi_inverse(fs.phi(p)) == p
        for k, top in ((2, 6), (3, 5)):
            for n in range(1, top + 1):
                image = {fs.phi(p) for p in fs.gen_gcp(n, k)}
                assert image == set(fs.gen_flattened(n, k)), f"n={n}, k={k}"


def test_criterion_04_worked_example(capsys):
    with criterion(capsys, "4: worked-example regression, both directions"):
        p = fs.parse_partition(WORKED_EXAMPLE_PARTITION, 4)
        w = fs.parse_word(WORKED_EXAMPLE_WORD, 4)
        assert fs.phi(p) == w
        assert "".join(str(v) for v in fs.phi(p).letters) == "122226666144441133335555"
        assert fs.phi_inverse(w) == p


def test_criterion_05_run_count_closed_forms(capsys, dist_k1, dist_k2, dist_k3):
    rows_k2, _ = dist_k2
    dists = {1: dist_k1, 2: rows_k2, 3: dist_k3}

    def refined(n, k, s):
        row = dists[k][n].run_refined
        return row[s - 1] if len(row) >= s else 0

    with criterion(capsys, "5: two-run, three-run and maximum-run closed forms"):
        for k in (1, 2, 3):
            for n in range(1, 8):
                assert fs.count_runs_2(n, k) == refined(n, k, 2), f"n={n}, k={k}"
        for n in range(1, 9):
            assert fs.count_runs_3(n, 2) == refined(n, 2, 3), f"n={n}"
        assert fs.count_runs_3(6, 2) == 374
        assert fs.count_runs_3(7, 2) == 1596
        for n in range(1, 9):
            bound = fs.max_runs_bound(n, 2)
            assert fs.count_max_runs_k2(n) == refined(n, 2, bound), f"n={n}"
        assert [fs.count_max_runs_k2(n) for n in range(4, 9)] == [8, 8, 190, 280, 280]


def test_criterion_06_descent_egf_vs_bruteforce(capsys):
    with criterion(capsys, "6: descent polynomials from the bivariate EGF"):
        for k, top in ((2, 7), (3, 5), (4, 4)):
            egf = fs.descent_egf(k, top - 1)
            for n in range(1, top + 1):
                extracted = fs.extract_descent_polynomial(egf, n - 1)
                brute = fs.descent_polynomial_bruteforce(n, k)
                assert extracted == brute, f"n={n}, k={k}"
        for (n, k), coeffs in REFERENCE_DESCENT_POLYS.items():
            egf = fs.descent_egf(k, n - 1)
            assert fs.extract_descent_polynomial(egf, n - 1).coeffs == coeffs


def test_criterion_07_specializations(capsys):
    with criterion(capsys, "7: closed forms at k=1,2 and the t->1 collapse"):
        order = 20
        assert fs.descent_egf(1, order) == closed_form_k1(order)
        assert fs.descent_egf(2, order) == closed_form_k2(order)

        for k in range(1, 6):
            bivariate = fs.descent_egf(k, 25)
            univariate = fs.egf_flattened(k, 25)
            collapsed = [bivariate.egf_coefficient(n) for n in range(26)]
            assert collapsed == [univariate.egf_coefficient(n) for n in range(26)], f"k={k}"


def test_criterion_08_numeric_series(capsys):
    with criterion(capsys, "8: numeric series rounds to the exact count"):
        for k in (1, 2, 3, 4):
            for n, exact in enumerate(flattened_totals(k, 16)):
                approx, rounded = fs.count_flattened_series_approx(n, k, 128)
                assert rounded == exact, f"n={n}, k={k}"
                assert abs(approx - exact) < 1e-6 * exact, f"n={n}, k={k}"


def test_criterion_09_bell_reduction(capsys):
    with criterion(capsys, "9: k=1 counts equal Bell numbers, n<=20"):
        for n, total in enumerate(flattened_totals(1, 21)):
            assert total == fs.bell_number(n)


def test_criterion_10_oeis(capsys, monkeypatch):
    # The fetched half is served locally, so the suite needs no network: each
    # b-file holds the identity's terms after one extra leading term, which
    # takes every run through the network read and a shift-1 alignment, and
    # nothing is written.  The live sequences are checked by `flatstir oeis --k K`.
    bfiles = {}
    for k, sequence_id in SEQUENCE_BY_K.items():
        values = [1] + [fs.count_flattened_identity(n, k) for n in range(1, 12)]
        rows = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=-1))
        bfiles[f"/b{sequence_id[1:]}.txt"] = rows.encode()

    def local_urlopen(url, timeout=None):
        return io.BytesIO(bfiles[url[url.rindex("/"):]])  # a response, as far as reads go

    monkeypatch.setattr("urllib.request.urlopen", local_urlopen)
    with criterion(capsys, "10: sequence cross-checks, fetched and offline"):
        with tempfile.TemporaryDirectory() as tmp:
            for k in (2, 3, 4):
                report = fs.cross_check(k, 9, cache_dir=tmp)
                assert report.all_match, f"k={k} via {report.source}"
                assert (report.source, report.shift) == ("network", 1)
                if k == 2:
                    assert len(report.rows) >= 10
            assert os.listdir(tmp) == []
        with tempfile.TemporaryDirectory() as tmp:
            for k in (2, 3, 4):
                offline = fs.cross_check(k, 9, offline=True, cache_dir=tmp)
                assert offline.source == "embedded"
                assert offline.all_match
                assert len(offline.rows) >= 10


def test_criterion_11_property_suite(capsys):
    with criterion(capsys, "11: statistic identities on every enumerated object"):
        for k in (1, 2, 3):
            for n in range(1, 7):
                bound = fs.max_runs_bound(n, k)
                best = 0
                for w in fs.gen_stirling(n, k):
                    s = fs.word_stats(w)
                    assert s.runs == s.descents + 1
                    assert s.descents + s.plateaus + s.ascents == n * k - 1
                    if fs.is_flattened(w):
                        assert s.runs <= bound
                        best = max(best, s.runs)
                assert best == bound, f"bound not attained at n={n}, k={k}"
                for p in fs.gen_gcp(n, k):
                    assert fs.block_descent_count(p) == fs.word_stats(fs.phi(p)).descents


def test_criterion_12_conjecture_report(capsys):
    with criterion(capsys, "12: evidence report for the open questions"):
        start = time.monotonic()
        rows = fs.conjecture_report(2, 10)
        assert len(rows) == 10
        for row in rows:
            assert row.unimodal, f"order {row.n}"
            assert row.real_rooted, f"order {row.n}"
        assert time.monotonic() - start < 300.0
