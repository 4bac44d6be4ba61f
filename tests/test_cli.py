import io
import json

import pytest

from flatstir.cli import main
from flatstir.verify import REFERENCE_RUNS_K2

EXAMPLE_PARTITION = "1_1 2_3 4_2 6_3 | 3_1 | 5_1"
EXAMPLE_WORD = "1 2 2 2 2 6 6 6 6 1 4 4 4 4 1 1 3 3 3 3 5 5 5 5"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_default_method(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--k", "2")
        assert code == 0
        assert out.strip() == "116"

    @pytest.mark.parametrize("method", ["recurrence", "identity", "egf", "bruteforce"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "--n", "5", "--k", "2", "--method", method)
        assert code == 0
        assert out.strip() == "116"

    def test_series_approx_prints_integer_and_approximation(self, capsys):
        code, out, err = run(capsys, "count", "--n", "5", "--k", "2", "--method", "series-approx")
        assert code == 0
        assert out.strip() == "116"
        assert abs(float(err.strip()) - 116) < 1e-6

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

    def test_force(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--k", "2", "--budget", "1", "--force"
        )
        assert code == 0
        assert len(out.splitlines()) == 3


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

    def test_corrupt_pin_names_file_and_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        pins = tmp_path / "offsets.conf"
        pins.write_text("# pinned offsets\nA007405=abc\n")
        code, out, err = run(capsys, "oeis", "--k", "2", "--offline")
        assert code == 4
        assert out == ""
        assert f"{pins}:2" in err


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


class TestConfig:
    def test_config_file_sets_budget(self, capsys, tmp_path):
        cfg = tmp_path / "flatstir.conf"
        cfg.write_text("# test config\nbudget = 200\n")
        code, _, err = run(
            capsys, "--config", str(cfg), "enumerate", "--n", "5", "--k", "2"
        )
        assert code == 3  # |Q_5^2| = 945 > 200

    def test_env_overrides_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "flatstir.conf"
        cfg.write_text("budget = 200\n")
        monkeypatch.setenv("FLATSTIR_BUDGET", "10000")
        code, out, _ = run(
            capsys, "--config", str(cfg), "enumerate", "--n", "5", "--k", "2", "--flattened"
        )
        assert code == 0
        assert len(out.splitlines()) == 116

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_BUDGET", "200")
        code, out, _ = run(
            capsys, "enumerate", "--n", "5", "--k", "2", "--budget", "1000"
        )
        assert code == 0

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "flatstir.conf"
        cfg.write_text("turbo = yes\n")
        code, _, err = run(capsys, "--config", str(cfg), "count", "--n", "2", "--k", "2")
        assert code == 2
        assert "unknown config key" in err


class TestVerify:
    def test_small_grid_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLATSTIR_CACHE_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, "verify", "--max-n", "4", "--max-k", "3", "--offline"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 12
        assert all(l.startswith("PASS") for l in lines)
