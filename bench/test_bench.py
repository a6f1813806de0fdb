"""Tests of the benchmark itself (not collected by the repository suite).

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def test_self_time_on_synthetic_nested_spans():
    # a [0,100] holds b [10,40] (which holds c [20,30]) and d [50,90];
    # e [120,130] is a second root.
    ticks = iter([0, 10, 20, 30, 40, 50, 90, 100, 120, 130])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a = tracer.enter("a")
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(b)
    d = tracer.enter("b")
    tracer.exit(d)
    tracer.exit(a)
    e = tracer.enter("e")
    tracer.exit(e)
    assert tracer.self_times() == {"a": 30, "b": 20 + 40, "c": 10, "e": 10}
    assert tracer.root_time() == 110
    assert sum(tracer.self_times().values()) == tracer.root_time()


def test_wrappers_are_removed_before_untraced_runs():
    from cutchoose import engine, solver
    original = engine.legal_moves
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.legal_moves is engine.legal_moves is not original
        assert "cutchoose.solver.legal_moves" in spans.installed_wrappers()
        with pytest.raises(RuntimeError):
            spans.assert_untraced()
        from cutchoose.structures import GroundSet, MonotoneFamily
        g = GroundSet(4)
        inst = engine.GameInstance(game_family=engine.U, start=g.full_mask,
                                   rounds=2, width=2, ground=g,
                                   family=MonotoneFamily.size_at_most(g, 1))
        solver.solve(inst)
        assert tracer.counts["solver.solve.calls"] == 1
        assert tracer.counts["engine.legal_moves.calls"] > 0
    finally:
        tracer.remove()
    assert spans.installed_wrappers() == []
    spans.assert_untraced()
    assert solver.legal_moves is engine.legal_moves is original


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["corpus", "ladder", "transport"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    spec = _benchmark_spec()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    report = "\n".join(lines[:-1])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(m["name"] in line and m["unit"] in line.split()
                   for line in report.splitlines()), m["name"]
