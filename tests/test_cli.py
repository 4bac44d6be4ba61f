import io
import json
import os
import subprocess
import sys

import pytest

from flatstir import gen_flattened, gen_gcp, verify
from flatstir.cli import main
from flatstir.counting import count_flattened_identity
from flatstir.oeis import SEQUENCE_BY_K
from flatstir.verify import REFERENCE_RUNS_K2

EXAMPLE_PARTITION = "1_1 2_3 4_2 6_3 | 3_1 | 5_1"
EXAMPLE_WORD = "1 2 2 2 2 6 6 6 6 1 4 4 4 4 1 1 3 3 3 3 5 5 5 5"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_default_method(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--k", "2")
        assert code == 0
        assert out.strip() == "116"

    @pytest.mark.parametrize("method", ["dobinski", "recurrence", "identity", "egf", "bruteforce"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "--n", "5", "--k", "2", "--method", method)
        assert code == 0
        assert out.strip() == "116"

    @pytest.mark.parametrize("k", range(1, 5))
    def test_default_prints_the_triangle_bytes(self, capsys, k):
        for n in range(1, 61):
            argv = ["count", "--n", str(n), "--k", str(k)]
            assert run(capsys, *argv) == run(capsys, *argv, "--method", "recurrence"), n

    def test_prints_counts_past_the_int_str_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["count", "--n", "200", "--k", str(10**25)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(out.strip()) > 4300  # Python's default int-to-str limit
        assert run(capsys, *argv, "--method", "identity") == (0, out, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored

    def test_series_approx_prints_integer_and_approximation(self, capsys):
        code, out, err = run(capsys, "count", "--n", "5", "--k", "2", "--method", "series-approx")
        assert code == 0
        assert out.strip() == "116"
        assert abs(float(err.strip()) - 116) < 1e-6

    def test_series_approx_is_exact_beyond_the_precision(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "40", "--k", "2", "--method", "series-approx")
        assert code == 0
        assert out == "4439679512667761787625302425489448814772224\n"

    def test_term_cap_is_an_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr("flatstir.counting.SERIES_MAX_TERMS", 5)
        code, out, err = run(capsys, "count", "--n", "40", "--k", "2", "--method", "series-approx")
        assert code == 1
        assert out == ""
        assert err.startswith("error: internal: ")

    def test_n0_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--n", "0", "--k", "2")
        assert code == 2
        assert err.startswith("error: usage:")

    def test_n0_egf_names_the_flag(self, capsys):
        code, out, err = run(capsys, "count", "--n", "0", "--k", "2", "--method", "egf")
        assert code == 2
        assert out == ""
        assert err == "error: usage: --n must be >= 1, got 0\n"

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "5", "--k", "2", "--bogus"])
        assert exc.value.code == 2


class TestPoly:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "4", "--k", "3")
        assert code == 0
        assert out.strip() == "1 + 26*t + 36*t^2"

    def test_bruteforce_matches(self, capsys):
        _, egf_out, _ = run(capsys, "poly", "--n", "5", "--k", "2")
        _, brute_out, _ = run(capsys, "poly", "--n", "5", "--k", "2", "--method", "bruteforce")
        assert egf_out == brute_out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "4", "--k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 4, "k": 3, "coefficients": [1, 26, 36]}

    def test_n0_names_the_flag(self, capsys):
        code, out, err = run(capsys, "poly", "--n", "0", "--k", "2")
        assert code == 2
        assert out == ""
        assert err == "error: usage: --n must be >= 1, got 0\n"


class TestBijection:
    def test_empty_block_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1_1 | | 2_1\n"))
        code, out, err = run(capsys, "bijection", "--direction", "forward", "--k", "2")
        assert (code, out) == (2, "")
        assert err == "error: usage: empty block in partition text\n"

    def test_forward(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_PARTITION))
        code, out, _ = run(capsys, "bijection", "--direction", "forward", "--k", "4")
        assert code == 0
        assert out.strip() == EXAMPLE_WORD

    def test_inverse(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_WORD))
        code, out, _ = run(capsys, "bijection", "--direction", "inverse", "--k", "4")
        assert code == 0
        assert out.strip() == EXAMPLE_PARTITION

    def test_json_round_trip(self, capsys, monkeypatch):
        partition_json = json.dumps(
            {"n": 6, "k": 4, "blocks": [[[1, 1], [2, 3], [4, 2], [6, 3]], [[3, 1]], [[5, 1]]]}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(partition_json))
        code, word_json, _ = run(
            capsys, "bijection", "--direction", "forward", "--k", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(word_json)
        assert payload["order"] == 6
        monkeypatch.setattr("sys.stdin", io.StringIO(word_json))
        _, part_json, _ = run(
            capsys, "bijection", "--direction", "inverse", "--k", "4", "--format", "json"
        )
        assert json.loads(part_json)["blocks"][0] == [[1, 1], [2, 3], [4, 2], [6, 3]]

    def test_non_flattened_input_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 2 1 1"))
        code, _, err = run(capsys, "bijection", "--direction", "inverse", "--k", "2")
        assert code == 2
        assert "error: usage:" in err

    def test_empty_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "bijection", "--direction", "forward", "--k", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "fmt,payload",
        [
            ("json", '{"n": 1000000000000, "k": 2, "blocks": [[[1, 1]]]}'),
            ("text", "1_1 | 1000000000000_1"),
        ],
        ids=["json", "text"],
    )
    def test_huge_n_in_partition_is_usage_error(self, capsys, monkeypatch, fmt, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(
            capsys, "bijection", "--direction", "forward", "--k", "2", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == "error: usage: blocks do not partition [1..1000000000000]\n"

    def test_json_float_in_partition_is_usage_error(self, capsys, monkeypatch):
        # int() would read the pair (2.9, 1.7) as (2, 1) and print a word
        payload = '{"n": 2, "k": 2, "blocks": [[[1, 1], [2.9, 1.7]]]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(
            capsys, "bijection", "--direction", "forward", "--k", "2", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err == "error: usage: element and color must be integers, got (2.9, 1.7)\n"

    def test_json_bool_in_word_is_usage_error(self, capsys, monkeypatch):
        # true == 1, so the letters [true, true] pass the multiset check
        payload = '{"letters": [true, true], "order": 1, "multiplicity": 2}'
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(
            capsys, "bijection", "--direction", "inverse", "--k", "2", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err == "error: usage: letter True is not an integer\n"

    def test_json_word_sent_forward_is_usage_error(self, capsys, monkeypatch):
        # a partition object was expected: the parser looked up "blocks"
        payload = '{"letters": [1, 2, 2, 1], "order": 2, "multiplicity": 2}'
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(
            capsys, "bijection", "--direction", "forward", "--k", "2", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err == "error: usage: JSON partition lacks 'n', 'k', 'blocks'\n"

    def test_json_partition_k_must_equal_the_flag(self, capsys, monkeypatch):
        payload = '{"n": 2, "k": 2, "blocks": [[[1, 1]], [[2, 1]]]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(
            capsys, "bijection", "--direction", "forward", "--k", "3", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err == "error: usage: --k is 3, but the JSON partition's k is 2\n"

    def test_json_word_multiplicity_must_equal_the_flag(self, capsys, monkeypatch):
        payload = '{"letters": [1, 1, 2, 2], "order": 2, "multiplicity": 2}'
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(
            capsys, "bijection", "--direction", "inverse", "--k", "4", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err == "error: usage: --k is 4, but the JSON multiplicity is 2\n"

    def test_json_array_sent_inverse_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[1]"))
        code, out, err = run(
            capsys, "bijection", "--direction", "inverse", "--k", "2", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: usage: expected a JSON object with keys 'letters'")


class TestEnumerate:
    def test_words(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "2")
        assert code == 0
        assert sorted(out.splitlines()) == ["1 1 2 2", "1 2 2 1", "2 2 1 1"]

    def test_flattened(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "2", "--flattened")
        assert sorted(out.splitlines()) == ["1 1 2 2", "1 2 2 1"]

    def test_partitions(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "2", "--as", "partitions")
        assert sorted(out.splitlines()) == ["1_1 2_1", "1_1 | 2_1"]

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--k", "2", "--format", "jsonl"
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert {tuple(r["letters"]) for r in rows} == {
            (1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)
        }

    def test_flattened_partitions_rejected(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--n", "2", "--k", "2", "--as", "partitions", "--flattened"
        )
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "30", "--k", "2")
        assert code == 3
        assert err.startswith("error: budget:")
        # the guard stops at the first order past the cap: one short line
        code, _, err = run(capsys, "enumerate", "--n", "2000", "--k", "2", "--as", "partitions")
        assert code == 3
        assert err.startswith("error: budget:")
        assert err.count("\n") == 1 and len(err) < 200

    def test_force(self, capsys, monkeypatch):
        monkeypatch.setattr("flatstir.counting.DEFAULT_BUDGET", 1)  # |Q_2^2| = 3 passes it
        argv = ["enumerate", "--n", "2", "--k", "2"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: budget:")
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("extra", [[], ["--flattened"], ["--as", "partitions"]])
    def test_n0_names_the_flag(self, capsys, extra):
        code, out, err = run(capsys, "enumerate", "--n", "0", "--k", "2", *extra)
        assert code == 2
        assert out == ""
        assert err == "error: usage: --n must be >= 1, got 0\n"

    # 4,088 lines at (7, 2): the output spans several chunks, the last one partial
    def test_partition_jsonl_over_several_chunks(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "7", "--k", "2", "--as", "partitions", "--format", "jsonl"
        )
        stream = (json.dumps({"n": 7, "k": 2, "blocks": p.blocks}) for p in gen_gcp(7, 2))
        assert code == 0
        assert out == "".join(x + "\n" for x in stream)

    def test_flattened_text_over_several_chunks(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7", "--k", "2", "--flattened")
        stream = (" ".join(map(str, w.letters)) for w in gen_flattened(7, 2))
        assert code == 0
        assert out == "".join(x + "\n" for x in stream)

    def test_single_partition(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--k", "1", "--as", "partitions")
        assert code == 0
        assert out == "1_1\n"

    # n=5 prints 3 KB, which stays in stdout's buffer until the exit flush;
    # n=8 prints 900 KB, more than a pipe holds
    @pytest.mark.parametrize("n,lines_read", [("5", 0), ("8", 1)])
    def test_reader_that_leaves_is_not_an_error(self, n, lines_read):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        argv = [sys.executable, "-m", "flatstir.cli", "enumerate", "--n", n, "--k", "2",
                "--as", "partitions"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            for _ in range(lines_read):
                assert child.stdout.readline().startswith(b"1_1 2_1 3_1")
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert (code, err) == (0, b"")


class TestTable:
    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| n | words | flattened |")
        assert "| 4 | 105 | 24 | 1 | 15 | 8 |" in lines

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "3", "--format", "csv")
        rows = out.splitlines()
        assert rows[0].split(",")[:3] == ["n", "words", "flattened"]
        assert rows[3].split(",")[:3] == ["3", "15", "6"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "5", "--format", "json")
        payload = json.loads(out)
        assert payload["k"] == 2
        assert [r["total"] for r in payload["rows"]] == [1, 2, 6, 24, 116]
        assert payload["rows"][4]["runs"] == [1, 37, 70, 8]
        assert payload["rows"][4]["stirling_words"] == 945

    def test_runs_match_reference_k2(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "8", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["n"]: tuple(r["runs"]) for r in rows} == REFERENCE_RUNS_K2

    def test_max_n0_names_the_flag(self, capsys):
        code, out, err = run(capsys, "table", "--k", "2", "--max-n", "0")
        assert code == 2
        assert out == ""
        assert err == "error: usage: --max-n must be >= 1, got 0\n"


class TestEgf:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "egf", "--k", "2", "--order", "4")
        lines = out.splitlines()
        assert lines[0] == "0 1"
        assert lines[2] == "2 3"  # 6/2!
        assert lines[4] == "4 29/6"  # 116/4!

    def test_json(self, capsys):
        code, out, _ = run(capsys, "egf", "--k", "3", "--order", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["coefficients"][0] == "1"
        assert payload["coefficients"][2] == "6"  # 12/2!

    def test_negative_order_names_the_flag(self, capsys):
        code, out, err = run(capsys, "egf", "--k", "2", "--order", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: usage: --order must be >= 0, got -1\n"


class TestOeis:
    def test_offline_text(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "oeis", "--k", "2", "--offline")
        assert code == 0
        assert "A007405" in out
        assert "source: embedded" in out

    def test_offline_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "oeis", "--k", "3", "--offline", "--format", "json")
        payload = json.loads(out)
        assert payload["sequence"] == "A355164"
        assert payload["all_match"] is True

    def test_uncited_k(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, _, err = run(capsys, "oeis", "--k", "5", "--offline")
        assert code == 2

    def test_mismatch_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        bad = "\n".join(f"{i} {v}" for i, v in enumerate([1, 2, 6, 24, 116, 648, 4088, 99, 99, 99]))
        (tmp_path / "b007405.txt").write_text(bad + "\n")
        code, out, _ = run(capsys, "oeis", "--k", "2", "--offline", "--max-n", "9")
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize("max_n", ["0", "1"])
    def test_small_max_n_names_the_flag(self, capsys, tmp_path, monkeypatch, max_n):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err == f"error: usage: --max-n must be >= 2, got {max_n}\n"

    def test_corrupt_cached_bfile_is_a_data_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        (tmp_path / "b007405.txt").write_text("0 1\n1 two\n")
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
        assert (code, out) == (4, "")
        path = tmp_path / "b007405.txt"
        assert err == f"error: data: {path}: line 2: non-integer field in '1 two'\n"

    def test_non_utf8_cached_bfile_is_a_data_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        (tmp_path / "b007405.txt").write_bytes(b"0 1\n1 \xff\n")
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
        assert (code, out) == (4, "")
        path = tmp_path / "b007405.txt"
        assert err == (
            f"error: data: {path}: cannot be read: not UTF-8 (invalid start byte at byte 6)\n"
        )

    def test_unreadable_cached_bfile_is_a_data_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        (tmp_path / "b007405.txt").mkdir()
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
        assert (code, out) == (4, "")
        assert err.startswith(f"error: data: {tmp_path / 'b007405.txt'}: cannot be read: ")

    def test_cache_dir_that_is_a_file_holds_no_bfile(self, capsys, tmp_path, monkeypatch):
        # as with an empty directory, nothing is saved there: embedded terms
        (tmp_path / "not-a-dir").write_text("")
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path / "not-a-dir"))
        code, out, _ = run(capsys, "oeis", "--k", "2", "--offline")
        assert code == 0
        assert "source: embedded, shift 0" in out

    def test_unaligned_cached_bfile_is_a_data_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        (tmp_path / "b007405.txt").write_text("0 1\n1 3\n2 5\n3 7\n")
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
        assert (code, out) == (4, "")
        message = "computed terms [1, 2, 6] not found in the fetched prefix"
        assert err == f"error: data: {tmp_path / 'b007405.txt'}: {message}\n"

    @pytest.mark.parametrize("rows,lineno,message", [
        ((0, 1, 2, 3, 5, 6), 5, "index 5 does not follow index 3"),
        ((0, 1, 2, 3, 3, 4), 5, "index 3 does not follow index 3"),
    ], ids=["missing", "repeated"])
    def test_bfile_index_gap_is_a_data_error(self, capsys, tmp_path, monkeypatch, rows,
                                             lineno, message):
        # values compared by position would blame the sequence for the file
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        values = [1, 1, 2, 6, 24, 116, 648]
        (tmp_path / "b007405.txt").write_text("".join(f"{i} {values[i]}\n" for i in rows))
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
        assert (code, out) == (4, "")
        assert err == f"error: data: {tmp_path / 'b007405.txt'}: line {lineno}: {message}\n"

    def test_offline_run_pins_nothing(self, capsys, tmp_path, monkeypatch):
        # the shift of a saved b-file is found on every run and never stored
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "oeis", "--k", "2", "--offline")
        assert code == 0
        assert "source: embedded, shift 0" in out
        assert list(tmp_path.iterdir()) == []
        values = [1, 1, 2, 6, 24, 116, 648, 4088, 28640, 219920, 1832224, 16430176]
        cached = "\n".join(f"{i} {v}" for i, v in enumerate(values, start=-1))
        (tmp_path / "b007405.txt").write_text(cached + "\n")
        for _ in range(2):
            code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
            assert (code, err) == (0, "")
            assert out.splitlines()[0] == "A007405 (source: cache, shift 1)"
            assert [p.name for p in tmp_path.iterdir()] == ["b007405.txt"]

    def test_nothing_is_persisted(self, capsys, tmp_path, monkeypatch):
        # served b-files hold the identity's terms after one extra leading term
        bfiles = {}
        for k, sequence_id in SEQUENCE_BY_K.items():
            values = [1] + [count_flattened_identity(n, k) for n in range(1, 12)]
            rows = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=-1))
            bfiles[f"/b{sequence_id[1:]}.txt"] = rows.encode()

        def local_urlopen(url, timeout=None):
            return io.BytesIO(bfiles[url[url.rindex("/"):]])  # a response, as far as reads go

        monkeypatch.setattr("urllib.request.urlopen", local_urlopen)
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "oeis", "--k", "2")
        assert (code, out.splitlines()[0]) == (0, "A007405 (source: network, shift 1)")
        code, out, _ = run(capsys, "oeis", "--k", "2", "--offline")
        assert (code, out.splitlines()[0]) == (0, "A007405 (source: embedded, shift 0)")
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert "A007405:network, A355164:network, A355167:network" in out
        assert list(tmp_path.iterdir()) == []


class TestConjecture:
    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--k", "2", "--max-n", "6")
        assert code == 0
        assert "| 5 | 2 | 1 + 37*t + 70*t^2 + 8*t^3 | True | True |" in out.splitlines()

    def test_json(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--k", "3", "--max-n", "5", "--format", "json")
        rows = json.loads(out)
        assert rows[4]["coefficients"] == [1, 63, 251, 90]
        assert rows[4]["unimodal"] and rows[4]["real_rooted"]

    def test_max_n0_names_the_flag(self, capsys):
        code, out, err = run(capsys, "conjecture", "--k", "2", "--max-n", "0")
        assert code == 2
        assert out == ""
        assert err == "error: usage: --max-n must be >= 1, got 0\n"


class TestOutputBytes:
    # the exact stdout of each format the CLI writes itself; the other tests
    # parse these outputs or look for substrings
    TABLE_MD = (
        "| n | words | flattened | runs=1 | runs=2 | runs=3 |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| 1 | 1 | 1 | 1 |  |  |\n"
        "| 2 | 3 | 2 | 1 | 1 |  |\n"
        "| 3 | 15 | 6 | 1 | 5 |  |\n"
        "| 4 | 105 | 24 | 1 | 15 | 8 |\n"
    )
    TABLE_CSV = (
        "n,words,flattened,runs=1,runs=2,runs=3\n"
        "1,1,1,1,,\n"
        "2,3,2,1,1,\n"
        "3,15,6,1,5,\n"
        "4,105,24,1,15,8\n"
    )
    TABLE_JSON = (
        '{"k": 2, "rows": [{"n": 1, "stirling_words": 1, "total": 1, "runs": [1]}, '
        '{"n": 2, "stirling_words": 3, "total": 2, "runs": [1, 1]}, '
        '{"n": 3, "stirling_words": 15, "total": 6, "runs": [1, 5]}, '
        '{"n": 4, "stirling_words": 105, "total": 24, "runs": [1, 15, 8]}]}\n'
    )
    CONJECTURE_MD = (
        "| n | k | polynomial | unimodal | real-rooted |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| 1 | 3 | 1 | True | True |\n"
        "| 2 | 3 | 1 + 2*t | True | True |\n"
        "| 3 | 3 | 1 + 9*t + 2*t^2 | True | True |\n"
        "| 4 | 3 | 1 + 26*t + 36*t^2 | True | True |\n"
        "| 5 | 3 | 1 + 63*t + 251*t^2 + 90*t^3 | True | True |\n"
    )
    CONJECTURE_JSON = "[" + ", ".join(
        f'{{"n": {n}, "k": 3, "coefficients": {c}, "unimodal": true, "real_rooted": true}}'
        for n, c in enumerate(["[1]", "[1, 2]", "[1, 9, 2]", "[1, 26, 36]", "[1, 63, 251, 90]"],
                              start=1)
    ) + "]\n"
    A355164 = [1, 3, 12, 63, 405, 3024, 25515, 239355, 2465478, 27600669]
    OEIS_TEXT = "A355164 (source: embedded, shift 0)\n" + "".join(
        f"n={n} computed={v} expected={v} ok\n" for n, v in enumerate(A355164)
    )
    OEIS_JSON = (
        '{"k": 3, "sequence": "A355164", "source": "embedded", "shift": 0, "rows": ['
        + ", ".join(f'{{"n": {n}, "computed": {v}, "expected": {v}, "match": true}}'
                    for n, v in enumerate(A355164))
        + '], "all_match": true}\n'
    )
    CASES = [
        ("table --k 2 --max-n 4", TABLE_MD),
        ("table --k 2 --max-n 4 --format csv", TABLE_CSV),
        ("table --k 2 --max-n 4 --format json", TABLE_JSON),
        ("conjecture --k 3 --max-n 5", CONJECTURE_MD),
        ("conjecture --k 3 --max-n 5 --format json", CONJECTURE_JSON),
        ("oeis --k 3 --offline", OEIS_TEXT),
        ("oeis --k 3 --offline --format json", OEIS_JSON),
    ]

    @pytest.mark.parametrize("argv,expected", CASES, ids=[argv for argv, _ in CASES])
    def test_stdout_bytes(self, capsys, tmp_path, monkeypatch, argv, expected):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        assert run(capsys, *argv.split()) == (0, expected, "")


class TestConfig:
    def test_bfile_directory_is_named_by_flatstir_cache_dir_alone(
        self, capsys, tmp_path, monkeypatch
    ):
        # a shift-1 b-file in each directory that once served as the default
        values = [1, 1, 2, 6, 24, 116, 648, 4088, 28640, 219920, 1832224, 16430176]
        bfile = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=-1))
        home, xdg, named = tmp_path / "home", tmp_path / "xdg", tmp_path / "named"
        for directory in (home / ".cache" / "flatstir" / "oeis", xdg / "flatstir" / "oeis", named):
            directory.mkdir(parents=True)
            (directory / "b007405.txt").write_text(bfile)
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        monkeypatch.delenv("FLATSTIR_CACHE_DIR", raising=False)
        for setting in (None, "", str(named)):
            if setting is not None:
                monkeypatch.setenv("FLATSTIR_CACHE_DIR", setting)
            code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
            assert (code, err) == (0, "")
            source = "cache, shift 1" if setting else "embedded, shift 0"
            assert out.splitlines()[0] == f"A007405 (source: {source})"

    def test_flag_floors_are_checked_before_the_config(self, capsys, monkeypatch):
        monkeypatch.setenv("FLATSTIR_BUDGET", "-1")
        for argv, flag in ((["egf", "--k", "0"], "--k"), (["count", "--n", "0", "--k", "2"], "--n")):
            assert run(capsys, *argv) == (2, "", f"error: usage: {flag} must be >= 1, got 0\n")

    def test_unknown_environment_variable_is_ignored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_TRUNCATION_ORDER", "5")
        monkeypatch.setenv("FLATSTIR_OEIS_TIMEOUT", "soon")
        code, out, _ = run(capsys, "egf", "--k", "2")
        assert code == 0
        assert len(out.splitlines()) == 33  # orders 0..32, the --order default
        # the removed budget settings: neither variable nor file is read
        conf = tmp_path / "flatstir.conf"
        conf.write_text("budget = 1\n")
        monkeypatch.setenv("FLATSTIR_BUDGET", "1")
        monkeypatch.setenv("FLATSTIR_CONFIG", str(conf))
        monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path))
        argv = ["count", "--n", "5", "--k", "2", "--method", "bruteforce"]
        assert run(capsys, *argv) == (0, "116\n", "")


class TestVerify:
    def test_small_grid_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, "verify", "--max-n", "4", "--offline"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 12
        assert all(l.startswith("PASS") for l in lines)

    def test_saved_bfile_is_read_through_the_cli(self, capsys, tmp_path, monkeypatch):
        # the CLI passes FLATSTIR_CACHE_DIR on; the embedded check reads no file
        values = [1, 1, 2, 6, 24, 116, 648, 4088, 28640, 219920, 1832224, 16430176]
        bfile = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=-1))
        (tmp_path / "b007405.txt").write_text(bfile)
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, err = run(capsys, "verify", "--offline", "--max-n", "3")
        assert (code, err) == (0, "")
        line = next(l for l in out.splitlines() if "oeis-cross-check" in l)
        assert "A007405:cache, A355164:embedded, A355167:embedded" in line
        assert [p.name for p in tmp_path.iterdir()] == ["b007405.txt"]

    def test_a_failed_check_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        count = verify.block_descent_count
        monkeypatch.setattr(verify, "block_descent_count", lambda p: count(p) + 1)
        code, out, err = run(capsys, "verify", "--offline", "--max-n", "2")
        assert code == 1
        assert out.count("FAIL") == 1
        assert err == "error: verification: 1 check(s) failed\n"

    @pytest.mark.parametrize("flag", ["--max-n"])
    def test_limit0_names_the_flag(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--offline", flag, "0")
        assert code == 2
        assert out == ""
        assert err == f"error: usage: {flag} must be >= 1, got 0\n"


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "3"],
            ["count", "--n", "5"],
            ["count", "--n", "5", "--method", "series-approx"],
            ["table", "--max-n", "3"],
            ["bijection", "--direction", "forward"],
            ["bijection", "--direction", "inverse"],
            ["poly", "--n", "3"],
            ["egf", "--order", "3"],
            ["oeis", "--offline"],
            ["conjecture", "--max-n", "3"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if not a.isdigit()),
    )
    def test_k0_names_the_flag(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1"))
        code, out, err = run(capsys, *argv, "--k", "0")
        assert code == 2
        assert out == ""
        assert err == "error: usage: --k must be >= 1, got 0\n"

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(n, k, ctx=None):
            raise MemoryError

        monkeypatch.setattr("flatstir.counting.count_flattened_identity", exhausted)
        code, out, err = run(capsys, "count", "--n", "5", "--k", "2", "--method", "identity")
        assert code == 3
        assert out == ""
        assert err.startswith("error: resource: ")


SUBCOMMANDS = ("enumerate", "count", "table", "bijection", "poly", "egf", "verify", "oeis",
               "conjecture")


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_cli_surface(capsys):
    """Every help text formats, the removed flags are usage errors, and the
    README's Configuration section names each remaining setting."""
    assert _exit_code(["--help"]) == 0
    helps = {"flatstir": capsys.readouterr().out}
    for command in SUBCOMMANDS:
        assert _exit_code([command, "--help"]) == 0, command
        helps[command] = capsys.readouterr().out
    assert "--precision-bits" not in helps["count"]
    assert "--max-k" not in helps["verify"]
    for flag in ("--budget", "--config"):
        assert [name for name, text in helps.items() if flag in text] == [], flag
    series = ["count", "--n", "5", "--k", "2", "--method", "series-approx"]
    removed = [series + ["--precision-bits", "128"], ["verify", "--max-k", "3"],
               ["--config", "flatstir.conf", "egf", "--k", "2"]]
    removed += [[command, "--n", "3", "--k", "2", "--budget", "5"]
                for command in ("enumerate", "count", "poly")]
    for argv in removed:
        assert _exit_code(argv) == 2, argv
        assert capsys.readouterr().out == ""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n### Configuration\n", 1)[1].split("\n## ", 1)[0]
    for setting in ("`FLATSTIR_CACHE_DIR`", "`--force`"):
        assert setting in section, setting


def test_cli_import_does_not_load_mpmath():
    # a fresh interpreter: this one may have imported these for other reasons;
    # the HTTP stack is loaded only by a fetch
    code = ("import sys, flatstir.cli; flatstir.cli.build_parser(); "
            "print([m for m in ('mpmath', 'urllib.request', 'http.client') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


def _loaded_by_cold_start(modules):
    """Which of `modules` a fresh `import flatstir.cli; build_parser()` loads;
    -S keeps site's .pth imports out."""
    code = ("import sys, flatstir.cli; flatstir.cli.build_parser(); "
            f"print([m for m in {modules!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return done.stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # together about half of a cold start, and tempfile (with random) is the
    # next largest piece.  shutil is not checked: argparse's help formatter
    # loads it.
    assert _loaded_by_cold_start(("dataclasses", "inspect", "tempfile", "random")) == "[]\n"


def test_cli_import_loads_no_fractions_json_or_verify():
    # fractions (with decimal and numbers) and json are a third of a cold start
    # and only some commands use them; verify is loaded by its command alone
    modules = ("fractions", "decimal", "numbers", "json", "flatstir.verify")
    assert _loaded_by_cold_start(modules) == "[]\n"


def _flatstir_modules(*names):
    return tuple(f"flatstir.{name}" for name in names)


def test_cli_import_loads_no_route_module():
    # each command imports the modules its route calls; the cold start needs
    # only cli, errors, words and partitions
    modules = _flatstir_modules("analysis", "series", "enumeration", "bijection", "counting",
                                "oeis", "verify")
    assert _loaded_by_cold_start(modules) == "[]\n"


def _loaded_by_command(argv, modules, stdin=""):
    """The exit code of one command run through `cli.main` in a fresh
    interpreter, and which of `modules` it loaded."""
    code = ("import sys; from flatstir.cli import main; code = main(sys.argv[1:]); "
            f"print(code, [m for m in {modules!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-S", "-c", code, *argv], input=stdin, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv,stdin,unused", [
    (["count", "--n", "5", "--k", "2"], "",
     _flatstir_modules("analysis", "series", "enumeration", "bijection", "oeis")),
    (["bijection", "--direction", "inverse", "--k", "2"], "1 1\n",
     _flatstir_modules("analysis", "series", "enumeration", "oeis", "counting")),
    # |Q_n^k| is a product, not an enumeration
    (["table", "--k", "2", "--max-n", "4"], "", _flatstir_modules("enumeration", "bijection")),
    # the sequence check's embedded path needs no temporary directory
    (["verify", "--offline", "--max-n", "1"], "", ("tempfile",)),
], ids=["count", "bijection", "table", "verify"])
def test_a_command_loads_only_the_modules_it_calls(argv, stdin, unused):
    assert _loaded_by_command(argv, unused, stdin) == "0 []"
