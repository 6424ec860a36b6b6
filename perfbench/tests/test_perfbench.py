"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, one tiny
pass per workload, and the refusal to run without the program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] and b [50, 70]; a holds c [15, 25].
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    assert list(tracer.self_times(start, end, parent)) == [50, 20, 10, 20]


def test_self_time_of_sibling_roots_and_empty_input():
    assert list(tracer.self_times([0, 5], [3, 9], [-1, -1])) == [3, 4]
    assert tracer.self_times([], [], []).size == 0


def _originals():
    return {(m, f): getattr(importlib.import_module(f"memstp.{m}"), f)
            for m, f in tracer.WRAPPED}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _originals()
    t = tracer.Tracer()
    with t.installed():
        inside = _originals()
    assert all(inside[k] is not before[k] for k in before)
    assert _originals() == before

    runner = worker.Runner("device_protocols", 0, tmp_path)
    result = worker.trace(runner, 0.0, tmp_path / "spans.npz")
    assert _originals() == before
    assert result["counts_repeat"] and result["repeat_identical"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} <= set(result["per_layer"])
    assert result["per_layer"]["device.apply_pulse.calls"] > 0
    assert result["per_layer"]["network.run_trial.calls"] == 0


def test_wrapper_counts_errors_and_reraises(tmp_path):
    t = tracer.Tracer()
    t.begin_pass(1)
    with t.installed():
        from memstp import device
        params = device.DeviceParams()
        state = device.initial_state(params, t0=1.0)
        with pytest.raises(ValueError):
            device.decay_to(state, params, 0.0)
    (summary,) = t.pass_summaries([1])
    assert summary["device.decay_to.errors"] == 1
    assert summary["device.decay_to.calls"] == 1
    assert summary["device.initial_state.calls"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_has_no_failed_ops(name, tmp_path):
    if name == "detect_mc":
        ops = workloads.detect_mc_ops(5, tmp_path, trials=50)
    else:
        ops = workloads.WORKLOADS[name](5, tmp_path)
    result = worker.run_pass(ops, tmp_path)
    assert result["failures"] == []
    assert result["ops"] == len(ops) and result["items"] > 0


def test_checks_reject_wrong_outputs(tmp_path):
    ops = workloads.device_protocols_ops(3, tmp_path)
    op = next(o for o in ops if o.name == "iv_sweep")
    code, _ = worker.invoke(op.argv)
    assert code == 0
    op.check(op.out)
    trace = op.out / "iv_trace.csv"
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:-1]))
    with pytest.raises(workloads.CheckError, match="2000 rows"):
        op.check(op.out)

    fit = workloads.fit_suite_ops(3, tmp_path)[2]  # fit decay
    assert worker.invoke(fit.argv)[0] == 0
    fit.check(fit.out)
    csv = fit.out / "fit_decay.csv"
    csv.write_text(csv.read_text().replace("tau_d,", "tau_d,1"))  # corrupt tau_d
    with pytest.raises(workloads.CheckError, match="residual"):
        fit.check(fit.out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect_mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
