"""The failure details of verify's per-object checks.

The walks build a check's message only when the check fails, so these
tests break the bijection on purpose and pin the text that comes out.
"""

from flatstir import bijection, verify
from flatstir.partitions import ColoredPartition
from flatstir.words import parse_word


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
    assert details["statistic-properties"] == (
        False, "AssertionError: descent transport failed for 1_1"
    )
    assert details["bijection-round-trip"][0]
