"""The failure details of verify's per-object checks.

The walks build a check's message only when the check fails, so these
tests break the bijection, an enumeration or the run tallies on purpose
and pin the text that comes out.
"""

from itertools import islice

from flatstir import bijection, counting, enumeration, verify
from flatstir.partitions import ColoredPartition
from flatstir.words import StirlingWord, parse_word


def _details(tmp_path):
    limits = verify.VerifyLimits(max_n=2, offline_oeis=True, cache_dir=str(tmp_path))
    return {r.name: (r.ok, r.detail) for r in verify.run_verification(limits)}


def test_round_trip_failure_names_the_partition(tmp_path, monkeypatch):
    other = ColoredPartition(2, 1, (((1, 1),), ((2, 1),)))
    monkeypatch.setattr(bijection, "phi_inverse", lambda w: other)
    details = _details(tmp_path)
    assert details["bijection-round-trip"] == (
        False, "AssertionError: round trip failed for 1_1 (k=1)"
    )


def test_non_flattened_phi_image_is_named(tmp_path, monkeypatch):
    # Stirling, but its run leaders 2, 1 decrease
    monkeypatch.setattr(bijection, "phi", lambda p: parse_word("2 2 1 1", 2))
    details = _details(tmp_path)
    assert details["bijection-round-trip"] == (
        False, "AssertionError: phi image not flattened: (2, 2, 1, 1)"
    )


def test_descent_transport_failure_names_the_partition(tmp_path, monkeypatch):
    count = verify.block_descent_count
    monkeypatch.setattr(verify, "block_descent_count", lambda p: count(p) + 1)
    details = _details(tmp_path)
    assert details["bijection-round-trip"] == (
        False, "AssertionError: descent transport failed for 1_1"
    )
    assert details["statistic-properties"][0]


def test_image_set_failure_names_the_order(tmp_path, monkeypatch):
    gen = enumeration.gen_flattened
    # the flattened subset loses its first word
    monkeypatch.setattr(
        enumeration, "gen_flattened", lambda n, k, **kw: islice(gen(n, k, **kw), 1, None)
    )
    details = _details(tmp_path)
    assert details["bijection-round-trip"] == (
        False, "AssertionError: phi image differs from the flattened subset at n=1, k=2"
    )


def test_descent_polynomial_failure_names_the_order(tmp_path, monkeypatch):
    tally = counting.run_distribution_bruteforce

    def reversed_tally(n, k, **kw):  # a permuted refinement with the same total
        row = tally(n, k, **kw)
        return counting.CountTableRow(row.n, row.total, row.run_refined[::-1])

    monkeypatch.setattr(counting, "run_distribution_bruteforce", reversed_tally)
    details = _details(tmp_path)
    # (1,) and (1, 1) read the same reversed, so k=2 passes and k=3 fails first
    assert details["descent-polynomials"] == (
        False, "AssertionError: descent polynomial at n=2, k=3: (1, 2) != (2, 1)"
    )


def test_non_stirling_enumerated_word_fails_the_properties(tmp_path, monkeypatch):
    # the copies of 2 enclose the smaller letter 1
    word = StirlingWord((2, 1, 1, 2), 2, 2)
    monkeypatch.setattr(enumeration, "gen_stirling", lambda n, k, **kw: iter([word]))
    details = _details(tmp_path)
    assert details["statistic-properties"] == (
        False,
        "NotStirlingError: word is not a k-Stirling permutation: a letter smaller "
        "than i occurs between two consecutive copies of i",
    )
