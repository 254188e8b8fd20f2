"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import child
import measure
import workloads
from measure import END_TO_END, EXACT, GATED, PER_LAYER, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TinyAnalytic(workloads.Analytic):
    n_objects = 300


class TinyAdhoc(workloads.Adhoc):
    n_objects = 400
    pool_size = 120
    cache_entries = 16


class TinyOltp(workloads.Oltp):
    n_objects = 300
    hot_keys = 8
    writes_per_cycle = 8


TINY = {"analytic": TinyAnalytic, "adhoc": TinyAdhoc, "oltp": TinyOltp}


@pytest.fixture(autouse=True)
def short_traced_window(monkeypatch):
    monkeypatch.setattr(
        child, "TRACE_CYCLES", {"analytic": 1, "adhoc": 3, "oltp": 2}
    )
    monkeypatch.setattr(child, "SETUP_REPEATS", 1)


def _lines(kind, tmp_path, trace, seed=7):
    workload = TINY[kind](seed, str(tmp_path))
    if trace:
        lines = child.traced(workload)
    else:
        lines = child.end_to_end(workload, 0.2)
    workload.teardown()
    return json.loads(lines[0]), json.loads(lines[1])


@pytest.mark.parametrize("kind", sorted(TINY))
def test_same_seed_gives_identical_exact_counts(kind, tmp_path):
    report_a, result_a = _lines(kind, tmp_path / "a", trace=1)
    report_b, result_b = _lines(kind, tmp_path / "b", trace=1)
    assert (result_a["attempted"], result_a["failed"]) == (
        result_b["attempted"], result_b["failed"],
    )
    for name in EXACT:
        assert report_a["report"][name] == report_b["report"][name], name


@pytest.mark.parametrize("kind", sorted(TINY))
def test_output_names_every_metric_with_unit_and_samples(kind, tmp_path):
    report, result = _lines(kind, tmp_path, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == GATED
    expected = set(GATED) | {"error_rate"}
    if kind == "oltp":
        expected = set(END_TO_END)
    assert set(report["report"]) == expected
    for name, entry in report["report"].items():
        assert entry["unit"] == END_TO_END[name][0]
        assert isinstance(entry["samples"], int)

    report, result = _lines(kind, tmp_path / "traced", trace=1)
    assert list(result["metrics"]) == list(PER_LAYER)
    for name, entry in report["report"].items():
        assert entry["unit"] == PER_LAYER[name][0]
        assert isinstance(entry["samples"], int)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_no_op_fails(kind, tmp_path):
    report, result = _lines(kind, tmp_path, trace=0)
    assert result["failed"] == 0
    assert not report["errors"]


@pytest.mark.xfail(
    strict=True,
    reason="StoreView.index_is_complete_for is always False, so the cost "
    "planner calls enable_index on the read-only snapshot",
)
def test_snapshot_point_lookup(tmp_path):
    """Once this passes, put the point lookup back into the oltp mix."""
    workload = TinyOltp(7, str(tmp_path))
    workload.setup()
    key = workload.hot[0]
    snap = workload.session.snapshot_view()
    try:
        result = snap.query(workload.point_text(key), plan="cost")
    finally:
        snap.close()
        workload.teardown()
    assert workloads.result_digest(result) == workloads.digest(
        [(workloads.lit(workload.salary[key]),)]
    )


def test_checker_rejects_a_wrong_expected_digest(tmp_path):
    workload = TinyAnalytic(7, str(tmp_path))
    text, _right = workload.queries[0]
    workload.queries[0] = (text, workloads.digest([("not", "the", "answer")]))
    workload.setup()
    rec = Recorder()
    for op in workload.queries:
        workload.do(op, rec)
    assert (rec.attempted, rec.failed, rec.wrong) == (7, 1, 1)
    report, result = measure.result_lines({}, [], rec)
    assert json.loads(result)["correct"] is False


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == GATED
    for entry in spec["end_to_end"]:
        unit, better, bound, _every = END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            unit, better, bound,
        )
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_system_under_test(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    with open(os.path.join(ROOT, "perfbench", "run.py")) as handle:
        (bench / "run.py").write_text(handle.read())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
