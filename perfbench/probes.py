"""Layer probes: each layer's public functions timed in bulk on fixed inputs.

The inputs are the ones the workloads use (Q_7^2 and GCP_2(8) for the
oracle layers, the `exact` sizes for counting, series and analysis, and
`verify --max-n 6` for the checks), and they are the same in every traced
run, so a change to one layer shows in every workload's trace.  Each probe
is one span opened by this file; nothing inside flatstir is wrapped here.

Which end-to-end metric each layer should move, and where:

* words.*, enumeration.*          -> table_s, enumerate_s, poly_s, count_s
                                     on oracle; verify_s on crossval
* partitions.*, bijection.*       -> enumerate_s, wall_s on oracle;
                                     verify_s on crossval
* counting.recurrence/identity/series_approx -> count_s on exact
* counting.run_distribution/count_table      -> table_s on oracle,
                                                verify_s on crossval
* series.*                        -> poly_s, conjecture_s, count_s on
                                     exact; verify_s on crossval
* analysis.is_real_rooted         -> conjecture_s on exact
* oeis.*, verify.*                -> verify_s on crossval
"""

from __future__ import annotations

import os
import tempfile
import tracemalloc

from tracing import END, START, Tracer

# The `exact` workload's EGF sizes: poly --n 51 --k 2, poly --n 31 --k 4,
# conjecture --k 2 --max-n 32 and conjecture --k 3 --max-n 30.
DESCENT_EGFS = ((2, 50), (4, 30), (2, 31), (3, 29))
CONJECTURE = {2: 32, 3: 30}
SERIES_APPROX_EXPONENTS = range(100)


def run_all(tracer: Tracer) -> dict:
    """Run every probe; returns metric values and a list of failed checks."""
    from flatstir import (analysis, bijection, counting, enumeration, oeis, partitions,
                          series, verify, words)

    m: dict = {}
    failures: list[str] = []

    def timed(name, fn):
        sid = tracer.open(name)
        try:
            return fn()
        finally:
            tracer.close(sid)
            span = tracer.spans[sid]
            m[name + "_s"] = span[END] - span[START]

    def expect(ok, what):
        if not ok:
            failures.append(what)

    # words and enumeration over Q_7^2
    ws = timed("enumeration.gen_stirling", lambda: list(enumeration.gen_stirling(7, 2)))
    m["enumeration.stirling_words"] = len(ws)
    letters = [w.letters for w in ws]
    built = timed("words.construct", lambda: [words.StirlingWord(t, 7, 2) for t in letters])
    expect(built == ws, "StirlingWord construction changed the words")
    valid = timed("words.is_valid_stirling", lambda: sum(map(words.is_valid_stirling, ws)))
    expect(valid == len(ws), "a generated word failed is_valid_stirling")
    flat = timed("words.is_flattened", lambda: sum(map(words.is_flattened, ws)))
    timed("words.word_stats", lambda: [words.word_stats(w) for w in ws])
    del ws, built, letters
    by_filter = timed("enumeration.gen_flattened.filter",
                      lambda: sum(1 for _ in enumeration.gen_flattened(7, 2, via="filter")))
    by_bijection = timed("enumeration.gen_flattened.bijection",
                         lambda: sum(1 for _ in enumeration.gen_flattened(7, 2, via="bijection")))
    expect(flat == by_filter == by_bijection == counting.count_flattened_recurrence(7, 2),
           f"flattened counts differ: {flat}, {by_filter}, {by_bijection}")
    m["enumeration.filter_yield"] = by_filter / m["enumeration.stirling_words"]

    # partitions and the bijection over GCP_2(8)
    ps = timed("enumeration.gen_gcp", lambda: list(enumeration.gen_gcp(8, 2)))
    m["enumeration.gcp_partitions"] = len(ps)
    timed("partitions.construct", lambda: [partitions.ColoredPartition(8, 2, p.blocks) for p in ps])
    texts = [p.to_text() for p in ps]
    parsed = timed("partitions.parse", lambda: [partitions.parse_partition(t, 2) for t in texts])
    expect(parsed == ps, "parse_partition(to_text(p)) != p")
    image = timed("bijection.phi", lambda: [bijection.phi(p) for p in ps])
    back = timed("bijection.phi_inverse", lambda: [bijection.phi_inverse(w) for w in image])
    expect(back == ps, "phi_inverse(phi(p)) != p on GCP_2(8)")
    del ps, texts, parsed, image, back

    # counting routes at the `exact` sizes
    rec = timed("counting.recurrence",
                lambda: counting.count_flattened_recurrence(600, 2, counting.CountContext()))
    ident = timed("counting.identity",
                  lambda: counting.count_flattened_identity(600, 2, counting.CountContext()))
    expect(rec == ident, "recurrence and identity disagree at n=600, k=2")
    ctx = counting.CountContext()
    exact = {(e, k): counting.count_flattened_recurrence(e + 1, k, ctx)
             for k in range(1, 5) for e in SERIES_APPROX_EXPONENTS}
    rounded = timed("counting.series_approx", lambda: {
        key: counting.count_flattened_series_approx(key[0], key[1], 128)[1] for key in exact})
    m["counting.series_approx.wrong"] = sum(rounded[key] != v for key, v in exact.items())
    timed("counting.run_distribution", lambda: counting.run_distribution_bruteforce(7, 2))
    timed("counting.count_table",
          lambda: (counting.count_table(2, 7), counting.count_table(3, 6)))

    # series at the `exact` sizes
    timed("series.egf_flattened",
          lambda: (series.egf_flattened(3, 150), series.egf_flattened(2, 200)))
    egfs = timed("series.descent_egf",
                 lambda: [(k, order, series.descent_egf(k, order)) for k, order in DESCENT_EGFS])
    polys = timed("series.extract", lambda: {
        (k, n + 1): series.extract_descent_polynomial(egf, n)
        for k, order, egf in egfs for n in range(order + 1)})
    del egfs

    # analysis: the `conjecture` polynomials, and the brute-force route
    report = [polys[(k, n)] for k, top in CONJECTURE.items() for n in range(1, top + 1)]
    timed("analysis.is_unimodal", lambda: [analysis.is_unimodal(p) for p in report])
    verdicts = timed("analysis.is_real_rooted", lambda: [analysis.is_real_rooted(p) for p in report])
    m["analysis.real_rooted_true"] = sum(verdicts)
    brute = timed("analysis.descent_polynomial_bruteforce",
                  lambda: analysis.descent_polynomial_bruteforce(7, 2))
    expect(brute == polys[(2, 7)], "brute-force and EGF descent polynomials differ at n=7, k=2")

    # offline sequence check, then the verify suite
    with tempfile.TemporaryDirectory() as tmp:
        reports = timed("oeis.cross_check",
                        lambda: [oeis.cross_check(k, 9, offline=True, cache_dir=tmp)
                                 for k in (2, 3, 4)])
    expect(all(r.all_match for r in reports), "offline sequence cross-check mismatch")
    limits = verify.VerifyLimits(max_n=6, offline_oeis=True,
                                 cache_dir=os.environ["FLATSTIR_CACHE_DIR"])
    results = timed("verify.run_verification", lambda: verify.run_verification(limits))
    for r in results:
        m[f"verify.{r.name}_s"] = r.seconds
        expect(r.ok, f"verify check {r.name} failed: {r.detail}")
    return {"metrics": m, "failures": failures}


def descent_egf_peak_kb() -> float:
    """Peak traced memory of building the largest `exact` descent EGF.

    Run it with no other thread allocating, since tracemalloc counts
    every thread."""
    from flatstir import series

    tracemalloc.start()
    try:
        series.descent_egf(*DESCENT_EGFS[0])
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
