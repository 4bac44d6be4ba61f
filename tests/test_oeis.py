import io
import urllib.error

import pytest

from flatstir import (
    AlignmentError,
    BFileParseError,
    DomainError,
    SequenceUnavailableError,
    count_flattened_recurrence,
    cross_check,
    fetch_bfile,
)
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
    def test_rejects_bad_ids(self, tmp_path):
        for bad in ("A00740", "A0074055", "B007405", "007405"):
            with pytest.raises(DomainError):
                fetch_bfile(bad, cache_dir=str(tmp_path))

    def test_offline_embedded(self, tmp_path, ctx):
        got = fetch_bfile("A007405", cache_dir=str(tmp_path), offline=True)
        assert got.source == "embedded"
        assert len(got.terms) == 10
        assert got.values == tuple(
            count_flattened_recurrence(i + 1, 2, ctx) for i in range(10)
        )
        assert got.values[:6] == (1, 2, 6, 24, 116, 648)

    def test_offline_unknown_sequence(self, tmp_path):
        with pytest.raises(SequenceUnavailableError):
            fetch_bfile("A000001", cache_dir=str(tmp_path), offline=True)

    def test_network_then_cache_round_trip(self, tmp_path, monkeypatch):
        text = fake_bfile_text(K2_PREFIX)
        calls = []

        def fake_urlopen(url, timeout=None):
            calls.append(url)
            return _FakeResponse(text.encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        got = fetch_bfile("A007405", cache_dir=str(tmp_path))
        assert got.source == "network"
        assert "b007405.txt" in calls[0]
        cache_file = tmp_path / "b007405.txt"
        assert cache_file.read_text() == text  # verbatim bytes

        offline = fetch_bfile("A007405", cache_dir=str(tmp_path), offline=True)
        assert offline.source == "cache"
        assert offline.terms == got.terms

    def test_network_failure_falls_back_to_cache(self, tmp_path, monkeypatch):
        (tmp_path / "b007405.txt").write_text(fake_bfile_text(K2_PREFIX))

        def broken_urlopen(url, timeout=None):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr("urllib.request.urlopen", broken_urlopen)
        got = fetch_bfile("A007405", cache_dir=str(tmp_path))
        assert got.source == "cache"
        assert got.values[:4] == (1, 2, 6, 24)

    def test_network_failure_falls_back_to_embedded(self, tmp_path, monkeypatch):
        def broken_urlopen(url, timeout=None):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr("urllib.request.urlopen", broken_urlopen)
        got = fetch_bfile("A007405", cache_dir=str(tmp_path))
        assert got.source == "embedded"


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

        def off_by_one(n, k, ctx=None):
            return count_flattened_recurrence(n, k, ctx) + (n >= 5)

        monkeypatch.setattr("flatstir.oeis.count_flattened_recurrence", off_by_one)
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
