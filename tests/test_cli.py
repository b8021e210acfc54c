import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egalpof import gen_thm4, gen_thm7, reports, verify
from egalpof.cli import main
from egalpof.model import DEFAULT_ENUMERATION_CAP
from egalpof.serialize import load_instance

# a size no Python list can have: it must fail before anything allocates
HUGE = str(sys.maxsize + 1)


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
        assert payload == {"value": "1/2", "witness": [1, 2, 2], "explored": 4}

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
        # both first-round orders reach the same outcome: one final state
        assert payload["explored"] == 1
        # pof also needs the unrestricted optimum, whose search over 2**1100
        # allocations passes the default cap
        assert main(["pof", "--instance", str(path), "--property", "rr"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_cap_reaches_round_robin(self, tmp_path, capsys):
        # 2 x 4 with distinct columns, so no good has a twin: 16
        # allocations fit the cap, but the round-robin search needs 19 states
        path = tmp_path / "ties.json"
        rows = [["1/6", "1/6", "1/3", "1/3"], ["1/6", "1/3", "1/6", "1/3"]]
        path.write_text(json.dumps({"n": 2, "m": 4, "utilities": rows}))
        argv = ["--instance", str(path), "--objective", "ew", "--property", "rr"]
        assert main(["solve", *argv, "--cap", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert main(["solve", *argv, "--cap", "100"]) == 0


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

    def test_thm7(self, tmp_path):
        path = tmp_path / "t7.json"
        assert main(["generate", "--family", "thm7", "--eps", "1/10", "--out", str(path)]) == 0
        assert load_instance(path).u == gen_thm7(Fraction(1, 10)).u

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

    def test_facts_past_maxsize_allocations(self, capsys):
        # 2^70 allocations, far under the cell cap: random.sample cannot take
        # len() of a range that long, so the EF1 forms sample another way
        argv = ["verify", "--suite", "facts", "--n", "2", "--m-max", "70",
                "--trials", "6", "--seed", "1"]
        assert main(argv) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_violations_exit_one(self, capsys, monkeypatch):
        import egalpof.cli as cli
        from egalpof.verify import CheckRecord, VerifyReport

        def fake_suite(suite, n, m_max, trials, seed, cap):
            report = VerifyReport(suite=suite, n=n, m_max=m_max, trials=trials, seed=seed)
            report.checks = [CheckRecord("stub", 1, 1, None)]
            return report

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        assert main(["verify", "--suite", "bounds", "--n", "2", "--m-max", "4",
                     "--trials", "1", "--seed", "1"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_real_violations_exit_one(self, capsys, monkeypatch):
        # a rounding that leaves the MEW allocation as it is fails the
        # balanced per-agent check on the draws whose optimum is unbalanced
        monkeypatch.setattr(verify, "balanced_from_mew", lambda inst, alloc: alloc)
        argv = ["verify", "--suite", "lemmas", "--n", "3", "--m-max", "5",
                "--trials", "4", "--seed", "0"]
        assert main(argv) == 1
        out = capsys.readouterr().out.splitlines()
        assert "check balanced_rounding_per_agent: tried=8 violations=4 worst=1" in out
        assert out[-1] == "overall: FAIL"

    @pytest.mark.parametrize("m_max, trials", [("0", "1"), ("3", "-1")])
    def test_out_of_range_params(self, m_max, trials, capsys):
        argv = ["verify", "--suite", "bounds", "--n", "2", "--m-max", m_max,
                "--trials", trials, "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_negative_n_named(self, capsys):
        argv = ["verify", "--suite", "bounds", "--n", "-1", "--m-max", "3",
                "--trials", "1", "--seed", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: need at least 2 agents, got -1\n"

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("EGALPOF_CAP", "1")
        argv = ["verify", "--suite", "bounds", "--n", "2", "--m-max", "4",
                "--trials", "1", "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReproduce:
    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce", "--out", str(a), "--format", "csv"]) == 0
        assert main(["reproduce", "--out", str(b), "--format", "csv"]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "family,n,m,params,property,mew,mew_p,pof"
        assert "thm4,2,3,eps=1/100,muw,1/2,1/50,25" in lines

    def test_cross_check_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # a thm4 row whose price is not 1/(4 eps) stops the report unwritten
        monkeypatch.setattr(reports, "gen_thm4", lambda eps: gen_thm4(eps / 2))
        path = tmp_path / "r.csv"
        assert main(["reproduce", "--out", str(path), "--format", "csv"]) == 1
        assert capsys.readouterr().err == "error: thm4 eps=1/100: unexpected pof 50\n"
        assert not path.exists()

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

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 2, "m": 1, "utilities": [["1"], ["\xff"]]}',
            b"[" * 100_000,
            b'{"n": 2, "m": 1, "utilities": [["1/' + b"1" * 5000 + b'"], ["1"]]}',
            b'{"n": ' + b"1" * 5000 + b"}",
        ],
        ids=["not-utf8", "deep-nesting", "long-rational", "long-integer"],
    )
    def test_malformed_file_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve", "--instance", str(path), "--objective", "ew"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_objective(self, thm4_file):
        assert main(["solve", "--instance", str(thm4_file), "--objective", "zz"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--family", "thm1", "--n", "3", "--m", HUGE],
            ["generate", "--family", "thm1", "--n", HUGE, "--m", HUGE],
            ["generate", "--family", "thm1", "--n", "3", "--m", "5", "--pad", HUGE],
            ["verify", "--suite", "facts", "--n", HUGE, "--m-max", "3", "--trials", "1", "--seed", "1"],
            ["verify", "--suite", "facts", "--n", "2", "--m-max", HUGE, "--trials", "1", "--seed", "1"],
        ],
        ids=["generate-m", "generate-n-and-m", "generate-pad", "verify-n", "verify-m-max"],
    )
    def test_huge_sizes(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        if argv[0] == "generate":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["verify", "--suite", "facts", "--n", "1000000000", "--m-max", "3", "--trials", "1", "--seed", "1"], None),
            (["generate", "--family", "thm1", "--n", "3", "--m", "700000"], None),
            (["generate", "--family", "thm4", "--eps", "1/100", "--pad", "1500"], None),
            (["generate", "--family", "thm1", "--n", "3", "--m", "40"], "100"),
            (["verify", "--suite", "bounds", "--n", "3", "--m-max", "40", "--trials", "1", "--seed", "1"], "100"),
        ],
        ids=["verify-n", "generate-m", "generate-pad", "generate-env-cap", "verify-env-cap"],
    )
    def test_sizes_past_cell_cap(self, tmp_path, capsys, monkeypatch, argv, env):
        # more utility cells than the cap in force: exit 2 before the
        # instance is built
        out = tmp_path / "x.json"
        if argv[0] == "generate":
            argv = [*argv, "--out", str(out)]
        if env is None:
            monkeypatch.delenv("EGALPOF_CAP", raising=False)
        else:
            monkeypatch.setenv("EGALPOF_CAP", env)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: need at most ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, source, value",
        [(c, "--cap", v) for c in ("solve", "pof") for v in ("0", "-3")]
        + [(c, "EGALPOF_CAP", v) for c in ("solve", "pof", "verify") for v in ("0", "-3")],
    )
    def test_non_positive_cap(self, thm4_file, capsys, monkeypatch, command, source, value):
        argv = {
            "solve": ["solve", "--instance", str(thm4_file), "--objective", "ew"],
            "pof": ["pof", "--instance", str(thm4_file), "--property", "ef1"],
            "verify": ["verify", "--suite", "facts", "--n", "2", "--m-max", "2",
                       "--trials", "1", "--seed", "1"],
        }[command]
        if source == "EGALPOF_CAP":
            monkeypatch.setenv(source, value)
        else:
            argv += [source, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source} must be at least 1, got {value}\n"


VALID_2X3 = b'{"n": 2, "m": 3, "utilities": [["1/2", "1/4", "1/4"], ["1/3", "1/3", "1/3"]]}'


@st.composite
def mutated_instances(draw):
    """A valid 2x3 instance file with a few bytes inserted, deleted or replaced."""
    data = bytearray(VALID_2X3)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "delete":
                del data[at]
            else:
                data[at] = byte
    return bytes(data)


def sizes(top):
    """Small sizes, or sizes past the default cap on utility cells, up to
    past every list length, so no example allocates much or searches long."""
    large = st.integers(DEFAULT_ENUMERATION_CAP + 1, 4 * sys.maxsize)
    return st.one_of(st.integers(-2, top), large).map(str)


RATIONALS = st.sampled_from(["1/100", "1/10", "3/2", "2/5", "0", "-1", "1/0", "x", ""])


def _options(draw, options):
    """Each (flag, strategy) pair, drawn or left out."""
    argv = []
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def cli_argvs(draw, instance, out):
    command = draw(st.sampled_from(["solve", "pof", "generate", "verify"]))
    caps = st.integers(-3, 10**4).map(str)
    props = st.sampled_from(["none", "ef1", "ba", "rr", "muw", "mnw", "zz"])
    if command == "solve":
        objective = draw(st.sampled_from(["ew", "uw", "nw", "zz"]))
        return ["solve", "--instance", instance, "--objective", objective,
                *_options(draw, [("--property", props), ("--cap", caps)])]
    if command == "pof":
        return ["pof", "--instance", instance, "--property", draw(props),
                *_options(draw, [("--cap", caps)])]
    if command == "generate":
        family = draw(st.sampled_from(["thm1", "thm4", "thm5", "thm7", "thm9"]))
        options = [("--n", sizes(6)), ("--m", sizes(6)), ("--eps", RATIONALS),
                   ("--x", RATIONALS), ("--y", RATIONALS), ("--pad", sizes(6))]
        return ["generate", "--family", family, *_options(draw, options), "--out", out]
    # n = m = 6 lemmas take seconds per trial, and a huge trial count is a
    # long run, not an error
    suite = draw(st.sampled_from(["bounds", "facts", "lemmas", "zz"]))
    values = [draw(sizes(4)), draw(sizes(4)), str(draw(st.integers(-2, 3))), str(draw(st.integers(-5, 5)))]
    flags = ["--n", "--m-max", "--trials", "--seed"]
    return ["verify", "--suite", suite, *[x for pair in zip(flags, values) for x in pair]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz_keeps_exit_contract(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    instance, out = tmp / "inst.json", tmp / "out.json"
    instance.write_bytes(data.draw(mutated_instances()))
    argv = data.draw(cli_argvs(str(instance), str(out)))
    stdout, stderr = io.StringIO(), io.StringIO()
    # the cap comes only from the drawn arguments
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        os.environ.pop("EGALPOF_CAP", None)
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout.getvalue() == ""
        assert sum("error:" in line for line in stderr.getvalue().splitlines()) == 1
