"""Supervisor-side sweep telemetry artifacts."""

import json

import pytest

from repro.telemetry.check import (
    CheckFailure,
    check_chrome_trace,
    check_events_jsonl,
    check_tree,
)
from repro.telemetry.sweep import SWEEP_EVENTS_NAME, SWEEP_TRACE_NAME, SweepTelemetry


def test_sweep_events_and_trace(tmp_path):
    tel = SweepTelemetry(tmp_path)
    tel.cell_started(0, "pagerank/urand/rnr", attempt=1)
    tel.cell_heartbeat(0, "pagerank/urand/rnr", {"cycle": 5000, "instructions": 1200})
    tel.cell_started(1, "pagerank/urand/baseline", attempt=1)
    tel.cell_finished(0, "pagerank/urand/rnr", "ok", 1, 0.25)
    tel.cell_finished(1, "pagerank/urand/baseline", "failed", 2, 0.10, "boom")
    root = tel.write()
    assert root == tmp_path

    events_path = tmp_path / SWEEP_EVENTS_NAME
    count = check_events_jsonl(events_path, require_cycle=False)
    assert count == 6  # 2 starts + 1 heartbeat + 2 finishes + sweep.end
    events = [json.loads(line) for line in events_path.read_text().splitlines()]
    kinds = [event["ev"] for event in events]
    assert kinds.count("cell.start") == 2
    assert "cell.heartbeat" in kinds
    assert "cell.ok" in kinds and "cell.failed" in kinds
    assert events[-1]["ev"] == "sweep.end"
    assert events[-1]["heartbeats"] == 1
    failed = next(event for event in events if event["ev"] == "cell.failed")
    assert failed["message"] == "boom"

    flags = check_chrome_trace(tmp_path / SWEEP_TRACE_NAME)
    assert flags["spans"] == 2


def test_finish_without_start_synthesizes_span(tmp_path):
    """A reaped worker's cell gets a span even though its start was lost."""
    tel = SweepTelemetry(tmp_path)
    tel.cell_finished(3, "pagerank/urand/stems", "timeout", 1, 2.5)
    tel.write()
    payload = json.loads((tmp_path / SWEEP_TRACE_NAME).read_text())
    spans = [event for event in payload["traceEvents"] if event["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["args"]["status"] == "timeout"


def test_check_tree_accepts_sweep_only_root(tmp_path):
    tel = SweepTelemetry(tmp_path)
    tel.cell_started(0, "c", 1)
    tel.cell_finished(0, "c", "ok", 1, 0.0)
    tel.write()
    summary = check_tree(tmp_path, [])
    assert "sweep telemetry present" in summary


def test_missing_required_field_fails_check(tmp_path):
    path = tmp_path / SWEEP_EVENTS_NAME
    path.write_text(
        json.dumps({"ev": "cell.done", "t": 1.0, "worker": 0, "cell": "c", "attempt": 1})
        + "\n"
    )
    with pytest.raises(CheckFailure, match="cell.done.*'duration_s'"):
        check_events_jsonl(path, require_cycle=False, sweep_schema=True)


def test_unknown_event_kind_tolerated(tmp_path):
    # Forward compatibility: new emitters must not break old checkers.
    path = tmp_path / SWEEP_EVENTS_NAME
    path.write_text(json.dumps({"ev": "cell.someday", "t": 1.0}) + "\n")
    assert check_events_jsonl(path, require_cycle=False, sweep_schema=True) == 1


def test_check_tree_applies_sweep_schema(tmp_path):
    tel = SweepTelemetry(tmp_path)
    tel.cell_started(0, "pagerank/urand/rnr", attempt=1)
    tel.cell_finished(0, "pagerank/urand/rnr", "done", 1, 0.25)
    tel.write()
    assert "sweep telemetry present" in check_tree(tmp_path, [])
    # A cell event stripped of a required field must fail the tree scan.
    path = tmp_path / SWEEP_EVENTS_NAME
    events = [json.loads(line) for line in path.read_text().splitlines()]
    for event in events:
        event.pop("cell", None)
    path.write_text("\n".join(json.dumps(event) for event in events) + "\n")
    with pytest.raises(CheckFailure):
        check_tree(tmp_path, [])
