"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run every workload at its tiny size, untraced and traced,
in a temporary directory whose ``src`` links to this checkout's sources.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import Patcher, Span, Tracer, self_times  # noqa: E402


def test_self_time_is_duration_minus_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 8.0, 0),
        Span("c", 5.0, 6.0, 2),
        Span("d", 5.5, 7.0, 2),  # overlaps its sibling c: the union is covered once
        Span("other_root", 20.0, 21.0, None),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 1.0, 1.5, 1.0])


def test_self_times_must_add_up_to_the_measured_wall():
    spans = [Span("cli", 0.0, 10.0, None), Span("layer", 2.0, 5.0, 0)]
    assert bench.self_sum_problems(spans, 10.0) == []
    assert bench.self_sum_problems([Span("layer", 2.0, 5.0, None)], 10.0) != []  # no root span
    assert bench.self_sum_problems(spans, 12.0) != []  # time outside every span


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.traced(lambda x: x + 1, "inner", lambda r, a, k: {"seen": a[0]})
    outer = tracer.traced(lambda x: inner(x) * 2, lambda x: f"outer{x}")
    assert outer(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer3", None), ("inner", 0)]
    assert tracer.counts == {"seen": 3}
    assert self_times(tracer.spans) == [2.0, 1.0]


def _attribute_snapshot():
    from taclearn.model.backend import ConvNetBackend
    from taclearn.tactile_image import TactileImage

    owners = Patcher("taclearn").modules() + [ConvNetBackend, TactileImage]
    return {(repr(owner), name): value for owner in owners for name, value in vars(owner).items()}


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    (tmp_path / "src").symlink_to(HERE.parent / "src", target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_restores_every_wrapped_attribute(checkout, capsys):
    args = ["--workload", "cl-sweep", "--seed", "0", "--seconds", "0", "--size", "tiny"]
    assert bench.main([*args, "--trace", "1"]) == 0
    assert _result(capsys)["correct"]
    before = _attribute_snapshot()
    assert bench.main([*args, "--trace", "1"]) == 0
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_tiny_workload_passes_output_checks(workload, checkout, capsys):
    args = ["--workload", workload, "--seed", "5", "--seconds", "0", "--size", "tiny"]
    assert bench.main([*args, "--trace", "0"]) == 0
    plain = _result(capsys)
    assert plain["correct"] and plain["failed"] == 0
    assert [m for m in plain["metrics"]] == [name for name, _, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    # The traced replay must reproduce the untraced outputs recorded above.
    assert bench.main([*args, "--trace", "1"]) == 0
    traced = _result(capsys)
    assert traced["correct"] and traced["failed"] == 0
    assert len(traced["metrics"]) == len(bench.instrument.PER_LAYER)
    assert traced["metrics"]["model.conv.flops"]["value"] > 0


def test_changed_output_counts_as_failure(tmp_path):
    record = bench.Record(tmp_path / "record.json")
    assert record.compare("outputs", {"model.tacm": "aa"}) == []
    assert bench.Record(tmp_path / "record.json").compare("outputs", {"model.tacm": "ab"}) != []


def test_accuracy_below_floor_counts_as_failure():
    assert workloads._floor_problems({"test_acc": 0.5}, 0.6) != []
    assert workloads._floor_problems({"test_acc": 0.7}, 0.6) == []


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == [HERE.name]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        bench.instrument.PER_LAYER
