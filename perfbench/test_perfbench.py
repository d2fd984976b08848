"""Deterministic tests of the benchmark itself; nothing here reads a time.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import install, layer_metrics
from perfbench.spans import END, PARENT, START, Breakdown, NullTracer, Tracer
from perfbench.workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke_state(name: str, seed: int = DEFAULT_SEED):
    workload = WORKLOADS[name]
    state = workload.setup(seed, smoke=True)
    workload.prepare(state)
    return workload, state


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_pass_clears_the_gate_and_repeats(name):
    workload, state = _smoke_state(name, seed=DEFAULT_SEED + 1)
    result, summary = workload.run(state, NullTracer())
    digest, problems = workload.check(state, result, summary)
    assert problems == []
    assert summary.served + summary.shed == summary.offered
    assert summary.work > 0 and summary.latencies_s.size == summary.served
    again, _ = workload.check(state, *workload.run(state, NullTracer()))
    assert again == digest


@pytest.mark.parametrize(
    "name", ["drift-serving", "frozen-serving", "engine-batch"]
)
def test_traced_spans_nest_and_wrappers_come_off(name):
    from repro.core import cluster, faults, simkernel

    workload, state = _smoke_state(name)
    tracer = Tracer()
    try:
        install(tracer, getattr(state, "conv_names", {}))
        workload.run(state, tracer)
    finally:
        tracer.restore()
    spans = tracer.spans
    breakdown = Breakdown(spans)
    assert len(spans) > 1
    for index, span in enumerate(spans):
        assert span[START] <= span[END]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] <= span[END] <= parent[END]
        assert breakdown.self_time[index] >= -1e-9
    assert all(value >= 0 for value in layer_metrics(breakdown).values())
    assert not hasattr(faults.CoreHealthState.advance_to, "__wrapped__")
    assert cluster.plan_batches is simkernel.plan_batches
    assert not hasattr(simkernel.plan_batches, "__wrapped__")


def test_declared_metrics_match_the_code():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END == end_to_end
    assert {n: run.layer_unit(n) for n in run.per_layer_names()} == per_layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES
    )
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: WORKLOADS[name].why for name in run.WORKLOAD_NAMES
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace, capsys):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    argv = ["--workload", "drift-serving", "--smoke", "--seconds", "0"]
    assert run.main([*argv, "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_without_record_leaves_git_status_unchanged(capsys):
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status() -> str:
        return subprocess.run(
            [git, "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout

    before = status()
    argv = ["--workload", "frozen-serving", "--smoke", "--seconds", "0"]
    assert run.main(argv) == 0
    assert status() == before


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift-serving"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert finished.returncode != 0
    assert finished.stdout == ""
