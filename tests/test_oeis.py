import io
import urllib.error

import pytest

from flatstir import (
    AlignmentError,
    BFileParseError,
    DomainError,
    cross_check,
)
from flatstir.counting import flattened_totals
from flatstir.oeis import parse_bfile

K2_PREFIX = [1, 2, 6, 24, 116, 648, 4088, 28640, 219920, 1832224, 16430176]


class _FakeResponse:
    def __init__(self, payload: bytes):
        self._stream = io.BytesIO(payload)

    def read(self) -> bytes:
        return self._stream.read()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def fake_bfile_text(values, start_index=0):
    lines = ["# synthetic b-file for tests"]
    lines += [f"{start_index + i} {v}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


class TestParse:
    def test_basic(self):
        rows = parse_bfile("# comment\n\n0 1\n1 2\n2 6\n")
        assert rows == ((0, 1), (1, 2), (2, 6))

    def test_negative_index_allowed(self):
        assert parse_bfile("-1 5\n0 7\n") == ((-1, 5), (0, 7))

    def test_bad_line_reports_number(self):
        with pytest.raises(BFileParseError, match="line 3"):
            parse_bfile("0 1\n1 2\nbroken line here\n")

    def test_non_integer(self):
        with pytest.raises(BFileParseError, match="line 1"):
            parse_bfile("zero one\n")

    def test_empty(self):
        with pytest.raises(BFileParseError):
            parse_bfile("# nothing\n")


class TestFetch:
    """Network, then cache, then embedded terms, as `cross_check` reports them."""

    def test_offline_embedded(self, tmp_path):
        report = cross_check(2, 9, cache_dir=str(tmp_path), offline=True)
        assert report.source == "embedded"
        assert report.compared == 10
        expected = tuple(r.expected for r in report.rows)
        assert expected == tuple(flattened_totals(2, 10))
        assert expected[:6] == (1, 2, 6, 24, 116, 648)

    def test_network_then_cache_round_trip(self, tmp_path, monkeypatch):
        text = fake_bfile_text(K2_PREFIX)
        calls = []

        def fake_urlopen(url, timeout=None):
            calls.append(url)
            return _FakeResponse(text.encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        got = cross_check(2, 9, cache_dir=str(tmp_path))
        assert got.source == "network"
        assert got.all_match and got.compared == 10
        assert "b007405.txt" in calls[0]
        cache_file = tmp_path / "b007405.txt"
        assert cache_file.read_text() == text  # verbatim bytes

        offline = cross_check(2, 9, cache_dir=str(tmp_path), offline=True)
        assert offline.source == "cache"
        assert offline.rows == got.rows
        assert len(calls) == 1

    def test_network_failure_falls_back_to_cache(self, tmp_path, monkeypatch):
        (tmp_path / "b007405.txt").write_text(fake_bfile_text(K2_PREFIX))

        def broken_urlopen(url, timeout=None):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr("urllib.request.urlopen", broken_urlopen)
        got = cross_check(2, 9, cache_dir=str(tmp_path))
        assert got.source == "cache"
        assert [r.expected for r in got.rows[:4]] == [1, 2, 6, 24]

    def test_network_failure_falls_back_to_embedded(self, tmp_path, monkeypatch):
        def broken_urlopen(url, timeout=None):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr("urllib.request.urlopen", broken_urlopen)
        got = cross_check(2, 9, cache_dir=str(tmp_path))
        assert got.source == "embedded"
        assert got.all_match


class TestCrossCheck:
    def test_uncited_k_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            cross_check(5, 9, cache_dir=str(tmp_path), offline=True)

    def test_offline_matches_embedded(self, tmp_path):
        report = cross_check(2, 9, offline=True, cache_dir=str(tmp_path))
        assert report.source == "embedded"
        assert report.all_match
        assert report.compared == 10
        assert report.shift == 0

    @pytest.mark.parametrize("k", [3, 4])
    def test_offline_other_sequences(self, k, tmp_path):
        report = cross_check(k, 9, offline=True, cache_dir=str(tmp_path))
        assert report.all_match

    def test_alignment_with_leading_junk(self, tmp_path):
        # a prefix that starts two terms before our n=0 value
        (tmp_path / "b007405.txt").write_text(fake_bfile_text([7, 9] + K2_PREFIX, -2))
        report = cross_check(2, 9, offline=True, cache_dir=str(tmp_path))
        assert report.shift == 2
        assert report.all_match
        pins = (tmp_path / "offsets.conf").read_text()
        assert "A007405=2" in pins

    def test_pinned_shift_reused(self, tmp_path):
        (tmp_path / "b007405.txt").write_text(fake_bfile_text([7, 9] + K2_PREFIX, -2))
        first = cross_check(2, 5, offline=True, cache_dir=str(tmp_path))
        second = cross_check(2, 5, offline=True, cache_dir=str(tmp_path))
        assert first.shift == second.shift == 2

    def test_stale_pin_raises(self, tmp_path):
        (tmp_path / "b007405.txt").write_text(fake_bfile_text(K2_PREFIX))
        (tmp_path / "offsets.conf").write_text("A007405=3\n")
        with pytest.raises(AlignmentError):
            cross_check(2, 5, offline=True, cache_dir=str(tmp_path))

    def test_unalignable_data_raises(self, tmp_path):
        (tmp_path / "b007405.txt").write_text(fake_bfile_text([5, 5, 5, 5, 5]))
        with pytest.raises(AlignmentError):
            cross_check(2, 5, offline=True, cache_dir=str(tmp_path))

    def test_mismatch_reported_not_raised(self, tmp_path):
        values = K2_PREFIX[:6] + [99]  # corrupt the n=6 value
        (tmp_path / "b007405.txt").write_text(fake_bfile_text(values))
        report = cross_check(2, 6, offline=True, cache_dir=str(tmp_path))
        assert not report.all_match
        assert [r.match for r in report.rows] == [True] * 6 + [False]

    def test_offline_check_is_not_circular(self, tmp_path, monkeypatch):
        """A wrong count must not be checked against itself offline."""

        def off_by_one(k, max_n):
            return [f + (n >= 5) for n, f in enumerate(flattened_totals(k, max_n), start=1)]

        monkeypatch.setattr("flatstir.oeis.flattened_totals", off_by_one)
        report = cross_check(2, 9, offline=True, cache_dir=str(tmp_path))
        assert report.source == "embedded" and report.shift == 0
        assert not report.all_match
        assert [r.n for r in report.rows if not r.match] == list(range(4, 10))

    def test_short_prefix_rows_not_compared(self, tmp_path):
        (tmp_path / "b007405.txt").write_text(fake_bfile_text(K2_PREFIX[:4]))
        report = cross_check(2, 6, offline=True, cache_dir=str(tmp_path))
        assert report.compared == 4
        assert report.all_match  # missing rows are not counted as mismatches
        assert report.rows[5].expected is None

    def test_max_n_too_small_for_alignment(self, tmp_path):
        with pytest.raises(DomainError):
            cross_check(2, 1, offline=True, cache_dir=str(tmp_path))

    def test_offline_embedded_run_leaves_cache_dir_empty(self, tmp_path):
        for k in (2, 3, 4):
            assert cross_check(k, 9, offline=True, cache_dir=str(tmp_path)).source == "embedded"
        assert list(tmp_path.iterdir()) == []  # embedded terms are neither aligned nor pinned

    @pytest.mark.parametrize("pins", ["A007405=3\n", "A007405=abc\n"], ids=["stale", "corrupt"])
    def test_pin_file_ignored_for_embedded_terms(self, tmp_path, pins):
        (tmp_path / "offsets.conf").write_text(pins)
        report = cross_check(2, 9, offline=True, cache_dir=str(tmp_path))
        assert report.source == "embedded" and report.shift == 0
        assert report.all_match
        assert (tmp_path / "offsets.conf").read_text() == pins
