import json

import pytest

from egalpof.cli import main


@pytest.fixture
def thm4_file(tmp_path):
    path = tmp_path / "thm4.json"
    assert main(["generate", "--family", "thm4", "--eps", "1/100", "--out", str(path)]) == 0
    return path


class TestPof:
    def test_thm4_muw(self, thm4_file, capsys):
        assert main(["pof", "--instance", str(thm4_file), "--property", "muw"]) == 0
        assert capsys.readouterr().out == "25\n"

    def test_thm4_ba(self, thm4_file, capsys):
        assert main(["pof", "--instance", str(thm4_file), "--property", "ba"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1"


class TestSolve:
    def test_json_payload(self, thm4_file, capsys):
        assert main(["solve", "--instance", str(thm4_file), "--objective", "ew"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"value": "1/2", "witness": [1, 2, 2], "explored": 8}

    def test_property_flag(self, thm4_file, capsys):
        code = main(
            ["solve", "--instance", str(thm4_file), "--objective", "ew", "--property", "muw"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1/50"

    def test_cap_flag_exceeded(self, thm4_file, capsys):
        assert main(["solve", "--instance", str(thm4_file), "--objective", "ew", "--cap", "4"]) == 2

    def test_env_cap(self, thm4_file, capsys, monkeypatch):
        monkeypatch.setenv("EGALPOF_CAP", "4")
        assert main(["solve", "--instance", str(thm4_file), "--objective", "ew"]) == 2
        monkeypatch.setenv("EGALPOF_CAP", "100")
        assert main(["solve", "--instance", str(thm4_file), "--objective", "ew"]) == 0

    def test_env_cap_must_be_integer(self, thm4_file, monkeypatch):
        monkeypatch.setenv("EGALPOF_CAP", "lots")
        assert main(["solve", "--instance", str(thm4_file), "--objective", "ew"]) == 2

    def test_long_round_robin_instance(self, tmp_path, capsys):
        # 1100 picks in a row: deeper than the default recursion limit
        m = 1100
        total = m * (m + 1) // 2
        row = [f"{j}/{total}" for j in range(1, m + 1)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"n": 2, "m": m, "utilities": [row, row[::-1]]}))
        argv = ["--instance", str(path), "--objective", "ew", "--property", "rr"]
        assert main(["solve", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] == [2] * (m // 2) + [1] * (m // 2)
        assert payload["explored"] == 1
        # pof also needs the unrestricted optimum over 2**1100 allocations
        assert main(["pof", "--instance", str(path), "--property", "rr"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestGenerate:
    def test_thm1_with_pad(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code = main(
            ["generate", "--family", "thm1", "--n", "3", "--m", "5",
             "--eps", "1/100", "--pad", "1", "--out", str(path)]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert (data["n"], data["m"]) == (4, 6)

    def test_missing_family_params(self, tmp_path, capsys):
        assert main(["generate", "--family", "thm5", "--x", "3/2", "--out", str(tmp_path / "x.json")]) == 2
        assert "requires --y" in capsys.readouterr().err

    def test_infeasible_params(self, tmp_path, capsys):
        code = main(
            ["generate", "--family", "thm5", "--x", "3/2", "--y", "1/2",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--family", "thm9", "--out", str(tmp_path / "x.json")]) == 2


class TestVerifyCommand:
    def test_pass_and_determinism(self, capsys):
        argv = ["verify", "--suite", "facts", "--n", "2", "--m-max", "4",
                "--trials", "10", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "overall: PASS" in first

    def test_documented_bounds_run(self, capsys):
        argv = ["verify", "--suite", "bounds", "--n", "2", "--m-max", "5",
                "--trials", "200", "--seed", "7"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out and "violations=1" not in out

    def test_violations_exit_one(self, capsys, monkeypatch):
        import egalpof.cli as cli
        from egalpof.verify import CheckRecord, VerifyReport

        def fake_suite(suite, n, m_max, trials, seed):
            report = VerifyReport(suite=suite, n=n, m_max=m_max, trials=trials, seed=seed)
            report.checks = [CheckRecord("stub", 1, 1, None)]
            return report

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        assert main(["verify", "--suite", "bounds", "--n", "2", "--m-max", "4",
                     "--trials", "1", "--seed", "1"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out


class TestReproduce:
    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce", "--out", str(a), "--format", "csv"]) == 0
        assert main(["reproduce", "--out", str(b), "--format", "csv"]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "family,n,m,params,property,mew,mew_p,pof"
        assert "thm4,2,3,eps=1/100,muw,1/2,1/50,25" in lines

    def test_markdown(self, tmp_path):
        path = tmp_path / "r.md"
        assert main(["reproduce", "--out", str(path), "--format", "md"]) == 0
        assert path.read_text().startswith("| family | n | m |")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["solve", "--instance", "no-such.json", "--objective", "ew"]) == 2

    def test_bad_instance_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n":2, "m":2, "utilities":[["1/2","1/3"],["1/4","3/4"]]}')
        assert main(["solve", "--instance", str(path), "--objective", "ew"]) == 2
        assert "sum" in capsys.readouterr().err

    def test_unknown_objective(self, thm4_file):
        assert main(["solve", "--instance", str(thm4_file), "--objective", "zz"]) == 2
