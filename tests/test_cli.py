"""Command-line contract: outputs, artifacts, and exit codes."""

import hashlib
import json
import pathlib

import pytest

from stagebound import cli, parse_protocol, verify
from stagebound.cli import main
from stagebound.protocol import PopulationProtocol
from stagebound.stagegraph import to_dot

ROOT = pathlib.Path(__file__).resolve().parents[1]
PP = ROOT / "protocols"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_certified(capsys, tmp_path):
    dot = tmp_path / "t.dot"
    js = tmp_path / "t.json"
    code, out, _ = run(
        capsys,
        "analyze",
        str(PP / "majority-ex2.pp"),
        "--dot",
        str(dot),
        "--json",
        str(js),
    )
    assert code == 0
    assert "bound: O(n^2*log n); stages: 13; certified" in out
    assert dot.read_text().startswith("digraph")
    payload = json.loads(js.read_text())
    assert payload["report"]["stages"] == 13
    assert len(payload["stage_tree"]["stages"]) == 13


# SHA-256 of the `--dot` text (`to_dot`) of every corpus tree, recorded
# before the stage formula's printer read `logic.Parts`: the root writes its
# disjunction first, and every other stage its units, the xi of its heads
# and its disjunction, in that order
DOT_SHA256 = {
    "broadcast": "74173ae0f96697eba0196b3d85284b5d0b5de9ac9ec19174a39d57a1ab2b258a",
    "majority-ex2": "3ec02ee70995bf2022d07cce96632a2bda6e7e96b3d848ad99685c1b05e4c5be",
    "majority-ex1": "d913954777992979d794803ac5e8e49b284005d3ed0376fe501210b3d588f4b3",
    "majority-ex1-no-tiebreak": "f8909f8e80e5d948870294ad9fccc38782f3613a452d14cf91ae913cfeef27ea",
    "flock-sum-c5": "296b626b29734da868765cc2a58aa3d88e21a0c3c6e69f2666a56bba6756d788",
    "flock-sum-c10": "dcaff37e2c81beed0667912a0742e3be9211a8988cf6d6957830e9d5ca1b9022",
    "flock-tower-c5": "321e821aba24aff34c6d21776ab570df6d2afc20231216431be160519d306f02",
    "flock-tower-c7": "1c16b66b72280cbeadb1867599d6681c042e0b49b82b09b5e7d76ff914a5e51a",
    "flock-log-c15": "baf67756e98ceed38e094d4a16def772504a8275f2d0aea26fe1c0a57486c374",
    "flock-log-c31": "730f827add78564b35fc8b4b2d774d93192dce6f6fb416979f90a5bb0dea5562",
    "remainder-m3": "e4d3f1377083291e78b97ac37b7efbc4627b07d92b79f3812c8d9922e82a44a4",
    "remainder-m5": "7d24f43b90f8d5f4bac8dc12053adb2d10ad35f29a94e60b50325a5a0ae6bc20",
    "avc-m3-d1": "91b9768a64593fcc33a5efd668639d976021f95e581feac33afac67695d4e555",
    "threshold-m1p1-lt0": "7619415bc9bd9ba7a3f7dbfddcfce29e1f6ae8dd0333fcf361366540cdc857ae",
}


def test_dot_digests_on_corpus(corpus_graphs):
    assert list(corpus_graphs) == list(DOT_SHA256)
    for name, sg in corpus_graphs.items():
        assert hashlib.sha256(to_dot(sg).encode()).hexdigest() == DOT_SHA256[name], name


def test_analyze_exponential(capsys):
    code, out, _ = run(capsys, "analyze", str(PP / "majority-ex1.pp"))
    assert code == 0
    assert "bound: exp(n); stages: 11; certified" in out


def test_analyze_non_certified_exit(capsys):
    code, out, _ = run(capsys, "analyze", str(PP / "majority-ex1-no-tiebreak.pp"))
    assert code == 2
    assert "dead-terminal-present" in out


def test_analyze_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.pp"
    bad.write_text("protocol x\nstates: A A\ninputs: x -> A\noutput1: A\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "duplicate" in err


@pytest.mark.parametrize(
    "name,text",
    [
        ("split.pp", "protocol t\nstates: A B\ninputs: x -> A\ninputs: y -> B\noutput1: B\n"),
        ("renamed.pp", "protocol t\nprotocol u\nstates: A B\ninputs: x -> A\noutput1: B\n"),
        (
            "twice.json",
            '{"states": ["A", "B"], "inputs": {"x": "A"}, "inputs": {"y": "B"},'
            ' "output1": ["B"], "transitions": []}',
        ),
    ],
)
def test_repeated_section_exits_with_one_error_line(capsys, tmp_path, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("header", ["", "protocol t\n"])
def test_state_named_protocol_exits_with_one_error_line(capsys, tmp_path, header):
    bad = tmp_path / "named.pp"
    bad.write_text(
        header + "states: protocol A\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  protocol A -> A A\n"
    )
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "'protocol' cannot name a state" in err


def test_rule_on_the_transitions_line_exits_with_one_error_line(capsys, tmp_path):
    # on a line of its own the rule is certified; on the transitions line
    # it is an input error, not a protocol without rules (exit 2)
    src = "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: B\ntransitions:"
    good, bad = tmp_path / "good.pp", tmp_path / "bad.pp"
    good.write_text(src + "\n  A B -> B B\n")
    bad.write_text(src + " A B -> B B\n")
    code, out, _ = run(capsys, "analyze", str(good))
    assert code == 0 and "certified" in out
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "line 5: rules go on the lines after 'transitions:'" in err


def test_json_protocol_errors_exit_without_traceback(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["A"], "inputs": [], "output1": [], "transitions": []}')
    for argv in (
        ["analyze", str(bad)],
        ["check", str(bad)],
        ["simulate", str(bad), "--config", "A=2"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_analyze_limit_exit(capsys):
    code, _, err = run(
        capsys, "analyze", str(PP / "majority-ex2.pp"), "--max-stages", "2"
    )
    assert code == 3
    assert "stage limit" in err


def test_analyze_json_deterministic(capsys, tmp_path):
    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    run(capsys, "analyze", str(PP / "broadcast.pp"), "--json", str(j1))
    run(capsys, "analyze", str(PP / "broadcast.pp"), "--json", str(j2))
    assert j1.read_bytes() == j2.read_bytes()


def test_constructed_protocol_analyzes_like_the_parsed_one(capsys, tmp_path, monkeypatch):
    # the parser sorts rule sides and the constructor takes them as written:
    # the swap A B -> B A must be idle either way
    src = tmp_path / "swap.pp"
    src.write_text(
        "protocol swap\nstates: A B C\ninputs: x -> A, y -> B\noutput1: A C\n"
        "transitions:\n  A B -> B A\n  A C -> C C\n"
    )
    parsed, built = tmp_path / "parsed.json", tmp_path / "built.json"
    code, _, _ = run(capsys, "analyze", str(src), "--json", str(parsed))
    p = PopulationProtocol(
        "swap", ("A", "B", "C"), [((0, 1), (1, 0)), ((0, 2), (2, 2))],
        {"x": 0, "y": 1}, frozenset({0, 2}),
    )
    monkeypatch.setattr(cli, "_read_protocol", lambda path: p)
    assert run(capsys, "analyze", str(src), "--json", str(built))[0] == code == 2
    assert built.read_bytes() == parsed.read_bytes()
    report = json.loads(parsed.read_text())["report"]
    assert (report["bound"], report["claim"]) == ("0", "dead-terminal-present")


def test_simulate_consensus_and_determinism(capsys):
    args = (
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=2,B=1",
        "--trials",
        "100",
        "--seed",
        "7",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    # A-majority: consensus output 0 in every trial
    row = out1.strip().splitlines()[-1]
    assert row.startswith("100,")
    assert row.endswith(",100,0")
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_simulate_pinned_row(capsys):
    # the closure of A=6,B=4 (74 configurations) is smaller than the space
    # of size 10 (1,001); the row must stay byte-identical, so a change in
    # the stopping decisions or in the use of the random stream shows.
    # Recorded once more when idle interactions came to be skipped
    code, out, _ = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=6,B=4",
        "--trials",
        "50",
        "--seed",
        "7",
    )
    assert code == 0
    assert out.splitlines()[-1] == "50,91.7400,4.8090,50,0"


def test_simulate_zero_trials(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=2,B=1",
        "--trials",
        "0",
    )
    assert code == 0
    assert out.strip().endswith("consensus0,consensus1")


def test_simulate_zero_trials_writes_header_csv(capsys, tmp_path):
    csv = tmp_path / "z.csv"
    code, _, _ = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=2,B=1",
        "--trials",
        "0",
        "--csv",
        str(csv),
    )
    assert code == 0
    assert csv.read_text() == "trial,interactions,consensus\n"


def test_simulate_unknown_state(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "Z=2",
        "--trials",
        "1",
    )
    assert code == 1
    assert "unknown state" in err


def test_simulate_negative_count(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=-3,B=6",
        "--trials",
        "1",
    )
    assert code == 1
    assert err.startswith("error:") and "negative count" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ("A=1,B=5,A=3", "state 'A' named twice"),
        ("A=x,B=2", "entry 'A=x' is not an integer"),
    ],
)
def test_simulate_bad_config_exits_with_one_error_line(capsys, spec, fragment):
    code, out, err = run(
        capsys, "simulate", str(PP / "majority-ex2.pp"), "--config", spec
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and fragment in err
    assert err.count("\n") == 1


def test_simulate_size_past_int64_exits_with_one_error_line(capsys):
    # refused before exploring: the move weights of a block would overflow
    # int64; stdout stays empty, as for every other input error
    code, out, err = run(
        capsys, "simulate", str(PP / "majority-ex2.pp"), "--config", "A=99999999999999999999,B=1"
    )
    assert code == 1
    assert err == "error: 100000000000000000000 agents are too many to simulate: " \
        "move weights overflow int64\n"
    assert out == ""


def test_simulate_negative_trials(capsys):
    code, out, err = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=2,B=1",
        "--trials",
        "-1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--trials" in err
    assert err.count("\n") == 1


def assert_one_error_line(err, path):
    assert err.startswith(f"error: {path}: "), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(PP / "broadcast.pp"), "--max-stages", "-1"],
        ["analyze", str(PP / "broadcast.pp"), "--timeout", "-1"],
        ["check", str(PP / "broadcast.pp"), "--max-stages", "-1"],
        ["check", str(PP / "broadcast.pp"), "--timeout", "-1"],
        ["check", str(PP / "broadcast.pp"), "--max-n", "-1"],
        ["bench", "--timeout", "-1"],
        ["bench", "--timeout", "nan"],
    ],
    ids=lambda argv: " ".join(a for a in argv if "/" not in a),
)
def test_negative_limits_exit_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    flag = argv[-2]
    assert err == f"error: {flag} must be a non-negative number\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(PP / "broadcast.pp"), "--max-stages", "x"],
        ["analyze"],
        ["simulate", str(PP / "broadcast.pp"), "--config", "one=1,zero=3", "--trials", "1.5"],
        ["simulate", str(PP / "broadcast.pp")],
        ["check", str(PP / "broadcast.pp"), "--max-n", "x"],
        ["check", str(PP / "broadcast.pp"), "--frobnicate"],
        ["bench", "--timeout", "soon"],
        ["bench", "extra"],
        [],
        ["frobnicate"],
    ],
    ids=lambda argv: " ".join(a for a in argv if "/" not in a) or "no command",
)
def test_malformed_command_line_exits_with_one_error_line(capsys, argv):
    # a bad value, a missing or unknown argument: an input error, exit 1
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["simulate", "--help"],
                                  ["check", "--help"], ["bench", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: stagebound") and err == ""


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_seed_out_of_range_exits_with_one_error_line(capsys, seed):
    argv = ["simulate", str(PP / "majority-ex2.pp"), "--config", "A=2,B=1"]
    code, out, err = run(capsys, *argv, "--trials", "3", "--seed", str(seed))
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "--seed")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulate_seed_at_range_ends_runs(capsys, seed):
    argv = ["simulate", str(PP / "majority-ex2.pp"), "--config", "A=2,B=1"]
    code, out, err = run(capsys, *argv, "--trials", "3", "--seed", str(seed))
    assert code == 0, err
    assert out.splitlines()[-1].startswith("3,")


def test_unreadable_protocol_exits_without_traceback(capsys, tmp_path):
    binary = tmp_path / "binary.pp"
    binary.write_bytes(b"\xff\xfe\x00\x81\x00\xc3")
    for path in (binary, tmp_path):
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1, path
        assert_one_error_line(err, path)


def test_analyze_unwritable_output_exits_without_traceback(capsys, tmp_path):
    for flag in ("--dot", "--json", "--csv"):
        code, _, err = run(
            capsys, "analyze", str(PP / "broadcast.pp"), flag, str(tmp_path)
        )
        assert code == 1, flag
        assert_one_error_line(err, tmp_path)


def test_simulate_unwritable_csv_exits_without_traceback(capsys, tmp_path):
    # a missing directory or a directory itself: the CSV is written before
    # anything is printed, so stdout stays empty
    for path in (tmp_path / "missing" / "dir" / "x.csv", tmp_path):
        code, out, err = run(
            capsys,
            "simulate",
            str(PP / "majority-ex2.pp"),
            "--config",
            "A=2,B=1",
            "--trials",
            "5",
            "--csv",
            str(path),
        )
        assert code == 1 and out == "", path
        assert_one_error_line(err, path)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    import os
    import subprocess
    import sys

    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "stagebound", "analyze", str(PP / "remainder-m5.pp"),
         "--json", "/dev/stdout"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered},
    )
    # the reader takes a few bytes and goes, as `| head -1` does, long
    # before the 548 KB of JSON, far more than a pipe holds, are written
    assert os.read(proc.stdout.fileno(), 64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_simulate_exploration_limit_exits_3(capsys, monkeypatch):
    # a resource limit, as for check: exit 3 with one error line and
    # nothing on stdout
    def capped(*args, **kwargs):
        raise verify.ExplorationLimitError("exploration cap 10 exceeded")

    monkeypatch.setattr(verify, "simulate", capped)
    code, out, err = run(
        capsys,
        "simulate",
        str(PP / "majority-ex2.pp"),
        "--config",
        "A=2,B=1",
        "--trials",
        "5",
    )
    assert code == 3
    assert err == "error: exploration cap 10 exceeded\n"
    assert out == ""


def test_simulate_out_of_memory_exits_3(capsys):
    # numpy refuses at once the array of 10^13 trials' results: a resource
    # limit, one error line and nothing on stdout
    code, out, err = run(
        capsys,
        "simulate",
        str(PP / "broadcast.pp"),
        "--config",
        "t=1,f=3",
        "--trials",
        "10000000000000",
    )
    assert code == 3
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert out == ""


def test_simulate_stuck_run_exits_2(capsys, tmp_path):
    # the swap changes no count, so A=1,B=1 never reaches its stable set
    # (empty): the run fails at once, after 0 interactions, with one error
    # line that says it is stuck, and nothing on stdout
    pp = tmp_path / "swap.pp"
    pp.write_text(
        "protocol swap\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> B A\n"
    )
    code, out, err = run(capsys, "simulate", str(pp), "--config", "A=1,B=1")
    assert code == 2
    assert err == (
        "error: trial 0 stuck at (1, 1) after 0 interactions: "
        "it is not stable, and no interaction changes it\n"
    )
    assert out == ""


def test_bench_unwritable_csv_exits_without_traceback(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "--csv", str(tmp_path))
    assert code == 1
    assert_one_error_line(err, tmp_path)


def test_check_clean(capsys):
    code, out, _ = run(
        capsys, "check", str(PP / "majority-ex2.pp"), "--max-n", "5"
    )
    assert code == 0
    assert "0 violations (sizes 2..5)" in out


def test_check_vacuous(capsys):
    code, out, _ = run(capsys, "check", str(PP / "broadcast.pp"), "--max-n", "1")
    assert code == 0
    assert "vacuous" in out


def test_check_exploration_cap_is_per_size(capsys, monkeypatch):
    # check explores every size as one chain, but the cap still counts per
    # size: a cap that holds each size's closure passes, one below the
    # largest exits 3 with nothing on stdout
    p = parse_protocol((PP / "majority-ex2.pp").read_text())
    sizes = [verify.explore(p, verify.initial_configurations(p, n)).size for n in range(2, 6)]
    real = verify.explore
    for cap in (max(sizes), max(sizes) - 1):
        monkeypatch.setattr(
            verify, "explore", lambda p, roots, cap=cap, **limits: real(p, roots, cap=cap, **limits)
        )
        code, out, err = run(capsys, "check", str(PP / "majority-ex2.pp"), "--max-n", "5")
        if cap < max(sizes):
            assert (code, out) == (3, "")
            assert err == f"partial verification: exploration cap {cap} exceeded\n"
        else:
            assert cap < sum(sizes)
            assert (code, out, err) == (0, "0 violations (sizes 2..5)\n", "")


def test_check_timeout_bounds_the_oracle(capsys, monkeypatch):
    # check hands the oracle what is left of --timeout after the build; an
    # oracle whose budget is spent exits 3 with nothing on stdout
    budgets = []
    real = verify.check_stage_graph

    def spent(p, sg, max_n, timeout):
        budgets.append(timeout)
        return real(p, sg, max_n, timeout=0)

    monkeypatch.setattr(verify, "check_stage_graph", spent)
    code, out, err = run(
        capsys, "check", str(PP / "majority-ex2.pp"), "--max-n", "5", "--timeout", "50"
    )
    assert (code, out, err) == (3, "", "partial verification: timeout exceeded\n")
    assert 0 < budgets[0] <= 50


def test_bench_runs_ordered(capsys, tmp_path):
    csv = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--csv", str(csv), "--timeout", "300")
    assert code == 0
    lines = [
        l for l in csv.read_text().splitlines() if l and not l.startswith("#")
    ]
    assert lines[0].startswith("protocol,")
    names = [l.split(",")[0] for l in lines[1:]]
    assert names[:3] == ["broadcast", "majority-ex2", "majority-ex1"]
    rem = [l for l in lines if l.startswith("remainder-m3,")][0]
    assert rem.split(",")[3] == "27"
    assert rem.split(",")[4] == "n^2*log n"


def test_bench_diff_accepts_known_deviation(capsys):
    code, out, _ = run(capsys, "bench", "--diff", "--timeout", "300")
    assert code == 0
    assert "# note: threshold-m1p1-lt0" in out


def test_bench_diff_reports_timed_out_rows(capsys):
    code, out, _ = run(capsys, "bench", "--diff", "--timeout", "0")
    assert code == 2
    lines = out.splitlines()
    timed_out = [l.split(",")[0] for l in lines if ",T/O," in l]
    assert timed_out
    for name in timed_out:
        assert f"# DIFF {name}: timed out" in lines


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    # the child interpreter finds the package of this checkout, as pytest does
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "stagebound", "analyze", str(PP / "broadcast.pp")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "stages: 5" in proc.stdout


def test_analyze_csv_row(capsys, tmp_path):
    csv = tmp_path / "one.csv"
    code, _, _ = run(
        capsys, "analyze", str(PP / "remainder-m3.pp"), "--csv", str(csv)
    )
    assert code == 2  # dead terminals are possible from untcapped stages
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("protocol,")
    assert lines[1].startswith("remainder-m3,5,12,27,n^2*log n,")
