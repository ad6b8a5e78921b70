"""Tests of the benchmark itself: metric emission, exit codes, span accounting
and the outcome checks."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from ffcbf.scenario import TrialResult  # noqa: E402

from ffcbf_bench import tracing, workloads  # noqa: E402

RUN = os.path.join(ROOT, "ffcbf_bench", "run.py")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    shown = expected if trace else {**expected, **workloads.REPORTED}
    for name, unit in shown.items():
        assert printed.get(name) == unit, name
    assert lines[0].startswith("env nproc=")


def test_cli_compare_runs_the_left_turn_outcome_set():
    def digest_lines(workload):
        proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "0",
                      "--tiny")
        assert proc.returncode == 0, proc.stderr
        return [line for line in proc.stdout.splitlines() if line.startswith("digest ")]

    assert digest_lines("cli-compare") == digest_lines("central-left-turn") != []


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "ffcbf_bench"), tmp_path / "ffcbf_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "ffcbf_bench/run.py", "--workload",
                           "central-straight", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _fake_spans(tracer, spans):
    """Append (name, start, end, parent) spans to tracer directly."""
    for name, start, end, parent in spans:
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.name_id.append(tracer.names.index(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.trial.append(0)


def test_self_times_plus_remainder_equal_wall():
    tracer = tracing.Tracer()
    _fake_spans(tracer, [("root", 10, 90, -1), ("a", 20, 50, 0), ("b", 25, 35, 1),
                         ("a", 60, 70, 0), ("root", 95, 99, -1)])
    table, problems = tracing.summarize(tracer, wall_ns=100)
    assert problems == []
    assert table["root"] == {"calls": 2, "total_ns": 84, "self_ns": 44}
    assert table["a"] == {"calls": 2, "total_ns": 40, "self_ns": 30}
    assert table["b"]["self_ns"] == 10
    assert table["_unwrapped_ns"] == 16
    assert sum(v["self_ns"] for k, v in table.items() if k != "_unwrapped_ns") + 16 == 100


def test_accounting_flags_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    _fake_spans(tracer, [("root", 10, 50, -1), ("a", 40, 60, 0)])
    _, problems = tracing.summarize(tracer, wall_ns=100)
    assert "child span outside its parent" in problems


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    tracer = tracing.Tracer()
    configs = workloads.build_configs("central-left-turn", seed=5, t_max=0.3)
    with tracing.traced_layers(tracer):
        wall = -tracing._now()
        records, _ = workloads.closed_loop(configs, rounds=1, seconds=0.0)
        wall += tracing._now()
    table, problems = tracing.summarize(tracer, wall)
    assert problems == []
    self_total = sum(v["self_ns"] for k, v in table.items() if k != "_unwrapped_ns")
    assert self_total + table["_unwrapped_ns"] == wall
    assert table["scenario.run_trial"]["calls"] == len(records) == 3
    assert table["controllers.step"]["calls"] == table["qp.solve"]["calls"] == 90
    # the wrappers are gone again
    assert workloads.scenario.step.__module__ == "ffcbf.dynamics"


def _result(**changes):
    base = dict(trial_index=0, success=True, always_feasible=True, deadlock=False,
                unsafe=False, timeout=False, completion_time=3.5, min_h0=0.25,
                initial_barrier_min=1.0, resamples=0)
    base.update(changes)
    return TrialResult(**base)


@pytest.mark.parametrize("changes", [
    {"deadlock": True},
    {"success": False, "completion_time": None},
    {"min_h0": -0.1},
    {"unsafe": True},
    {"completion_time": None},
    {"trial_index": 1},
])
def test_invariant_checks_catch_inconsistent_results(changes):
    assert workloads.invariant_problems([workloads.TrialRecord("c", 0, _result())]) == []
    bad = workloads.TrialRecord("c", 0, _result(**changes))
    assert workloads.invariant_problems([bad])


def test_digest_sees_the_last_bit_of_min_h0():
    a = workloads.TrialRecord("c", 0, _result(min_h0=0.25))
    b = workloads.TrialRecord("c", 0, _result(min_h0=float.fromhex("0x1.0000000000001p-2")))
    assert workloads.digests([a]) != workloads.digests([b])


def test_errors_are_counted_not_raised():
    records = [workloads.TrialRecord("c", 0, _result()),
               workloads.TrialRecord("c", 1, None, "RuntimeError: phase-1 LP failed")]
    assert workloads.outcome_fractions(records) == {
        "safe_success_frac": 0.5, "unsafe_frac": 0.0, "error_frac": 0.5}
