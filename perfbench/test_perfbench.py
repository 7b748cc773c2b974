"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The workloads run here at the TINY size, a subset of the real inputs; one
test runs the real runner on its cheapest workload in a copy of the tree.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import refclock
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
CLOCK = refclock.RefClock()


def tiny_pass(name, golden=None, tracer=None):
    """One pass of a workload at the TINY size: [(op name, output, error)]."""
    size = workloads.TINY
    lib = workloads.import_stagebound()
    parsed = workloads.parse_inputs(name, lib, size)
    trees = None
    if name == "oracle-check":
        trees = {n: workloads.build_tree(lib, p) for n, (_, p) in parsed.items()}
    ops = workloads.make_ops(name, lib, parsed, trees, size, golden or workloads.load_golden(), 7)
    if tracer is not None:
        tracer.install(lib)
    try:
        results = []
        for op in ops:
            _, _, out, error = workloads.run_op(op, CLOCK)
            results.append((op.name, out, error))
        return results
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(name):
    results = tiny_pass(name)
    assert results
    assert [(op, err) for op, _, err in results if err is not None] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_reproduces_untraced_results(name):
    plain = tiny_pass(name)
    tracer = tracing.Tracer()
    traced = tiny_pass(name, tracer=tracer)
    assert traced == plain
    assert tracer.absent == []
    metrics = tracer.metrics(0.0, 0.0)
    assert list(metrics) == tracing.metric_names()
    layer = {"analyze-corpus": "stagegraph.build_stage_graph.calls",
             "oracle-check": "verify.check_stage_graph.calls",
             "simulate-mc": "verify.simulate.calls"}[name]
    assert metrics[layer] > 0


def test_tautology_calls_are_split_by_phase():
    tracer = tracing.Tracer()
    tiny_pass("analyze-corpus", tracer=tracer)
    m = tracer.metrics(0.0, 0.0)
    by_phase = sum(m[f"logic.is_tautology.by.{ph}.calls"] for ph in tracing.TAUTOLOGY_PHASES)
    assert by_phase == m["logic.is_tautology.calls"] > 0
    assert m["logic.is_tautology.by.other.calls"] == 0
    assert 0 < m["logic.is_tautology.distinct"] <= m["logic.is_tautology.calls"]
    for span in tracing.BOUNDARIES:
        assert m[f"{span}.self_s"] <= m[f"{span}.total_s"] + 1e-9


def test_missing_boundary_is_reported_absent():
    tracer = tracing.Tracer()
    lib = workloads.import_stagebound()
    del lib["stagegraph"].is_tautology
    tracer.install(lib)
    tracer.uninstall()
    assert tracer.absent == ["stagegraph.is_tautology"]


def test_wrong_golden_values_fail_the_gate():
    golden = copy.deepcopy(workloads.load_golden())
    golden["analyze"]["broadcast"] = "0" * 64
    golden["hitting"]["majority-ex2 n=4"]["roots"][2] = "11"
    errors = {op: err for op, _, err in tiny_pass("analyze-corpus", golden)}
    errors.update({op: err for op, _, err in tiny_pass("oracle-check", golden)})
    failed = [op for op, err in errors.items() if err is not None]
    assert failed == ["broadcast", "hitting majority-ex2 n=4"]


def test_failing_operation_is_counted_not_raised():
    def boom():
        raise RuntimeError("no result")

    op = workloads.Op("boom", boom, lambda out: None)
    raw, _, out, error = workloads.run_op(op, CLOCK)
    assert raw is None and out is None and error == "RuntimeError: no result"


def test_broadcast_closed_form():
    # (n-1) * H_{n-1} for n = 100
    assert round(float(workloads.broadcast_mean(100)), 1) == 512.6


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def copy_tree(dst: Path, with_program: bool) -> None:
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    shutil.copytree(HERE, dst / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_program:
        shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_the_result_line(tmp_path, trace):
    copy_tree(tmp_path, with_program=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "simulate-mc",
           "--seed", "3", "--seconds", "0.1", "--trace", trace]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["record"]["nproc"] >= 1
    expect = tracing.metric_names() if trace == "1" else list(run.END_TO_END_UNITS)
    assert list(result["metrics"]) == expect
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / record["record"]["spans_file"]).is_file()


def test_runner_fails_without_the_program(tmp_path):
    copy_tree(tmp_path, with_program=False)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "analyze-corpus",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clock_probes_during_a_long_call():
    def busy():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        return "done"

    result, raw, ref = CLOCK.call(busy)
    assert result == "done"
    assert 0.3 < raw < 0.35  # the probes' own time is left out
    assert len(CLOCK.probes) >= 4  # before, at least two during, after
    assert ref > 0
