"""Schema validation for emitted telemetry artifacts.

Usage::

    python -m repro.telemetry.check TELEMETRY_DIR [--expect phase-span]
                                                  [--expect window-span]

Walks ``TELEMETRY_DIR`` for per-cell telemetry directories (anything
holding a ``summary.json``) and validates:

* ``events.jsonl`` — every line is a JSON object with an ``ev`` kind and
  a numeric ``cycle``;
* ``timeseries.csv`` — columns match the summary, every value is an
  integer, and **the per-column sums reconcile exactly with the final
  ``SimStats`` counters** (the interval deltas account for every event);
* ``trace.json`` (when present) — Chrome ``trace_event`` object format,
  with structurally complete span/counter events;
* root-level ``sweep-events.jsonl`` / ``sweep-trace.json`` when present.

``--expect phase-span`` / ``--expect window-span`` additionally require
at least one phase span, or one RnR window span carrying pacing
annotations, across the checked trace files (the CI smoke contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.stats import SimStats
from repro.telemetry.export import read_csv
from repro.telemetry.sweep import SWEEP_EVENTS_NAME, SWEEP_TRACE_NAME


class CheckFailure(Exception):
    """One validation problem (path + reason)."""


def _fail(path: Path, reason: str) -> CheckFailure:
    return CheckFailure(f"{path}: {reason}")


# ----------------------------------------------------------------------
# Individual validators
# ----------------------------------------------------------------------
#: Required fields per sweep-event kind (``sweep-events.jsonl``, written
#: by the supervised sweep).  Unknown kinds are tolerated (forward
#: compatibility), but a known kind missing one of its fields is a schema
#: violation.
SWEEP_EVENT_FIELDS = {
    "cell.start": ("worker", "cell", "attempt"),
    "cell.heartbeat": ("worker", "cell"),
    "cell.done": ("worker", "cell", "attempt", "duration_s"),
    "cell.failed": ("worker", "cell", "attempt", "duration_s"),
    "cell.timeout": ("worker", "cell", "attempt", "duration_s"),
    "cell.crash": ("worker", "cell", "attempt", "duration_s"),
    "sweep.end": ("heartbeats",),
}


def check_events_jsonl(
    path: Path, require_cycle: bool = True, sweep_schema: bool = False
) -> int:
    """Validate one JSONL event log; returns the event count.

    ``sweep_schema=True`` additionally checks every known sweep-event
    kind (cell lifecycle and the closing ``sweep.end``) for its required
    fields.
    """
    count = 0
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise _fail(path, f"line {number}: invalid JSON ({exc})") from None
        if not isinstance(event, dict) or "ev" not in event:
            raise _fail(path, f"line {number}: event object needs an 'ev' kind")
        stamp = "cycle" if require_cycle else "t"
        if stamp not in event or not isinstance(event[stamp], (int, float)):
            raise _fail(path, f"line {number}: missing numeric {stamp!r} timestamp")
        if sweep_schema:
            for field in SWEEP_EVENT_FIELDS.get(event["ev"], ()):
                if field not in event:
                    raise _fail(
                        path,
                        f"line {number}: {event['ev']} event missing "
                        f"required field {field!r}",
                    )
        count += 1
    return count


def check_timeseries(path: Path, summary: dict) -> int:
    """Validate the CSV and reconcile column sums with final counters."""
    columns, rows = read_csv(path)
    expected = summary.get("timeseries", {}).get("columns")
    if expected and columns != expected:
        raise _fail(path, f"columns {columns} != summary columns {expected}")
    if not columns or columns[0] != "cycle":
        raise _fail(path, "first column must be 'cycle'")
    sums = {name: 0 for name in columns[1:]}
    for number, row in enumerate(rows, start=2):
        for name, value in zip(columns, row):
            try:
                parsed = int(value)
            except ValueError:
                raise _fail(
                    path, f"line {number}: non-integer value {value!r} in {name}"
                ) from None
            if name != "cycle":
                sums[name] += parsed
    final = summary.get("final")
    if final:
        counters = SimStats.from_dict(final).flat_counters()
        for name, total in sums.items():
            want = counters.get(name)
            if want is None:
                raise _fail(path, f"column {name!r} has no final counter")
            if total != want:
                raise _fail(
                    path,
                    f"column {name!r} sums to {total} but the final "
                    f"SimStats counter is {want} (deltas do not reconcile)",
                )
    return len(rows)


def check_chrome_trace(path: Path) -> dict:
    """Structural Chrome trace check; returns presence flags."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise _fail(path, f"invalid JSON ({exc})") from None
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise _fail(path, "must be an object with a 'traceEvents' list")
    flags = {"phase_span": False, "window_span": False, "spans": 0}
    for index, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise _fail(path, f"traceEvents[{index}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise _fail(path, f"traceEvents[{index}] missing {key!r}")
        if event["ph"] in ("X", "i", "C") and not isinstance(
            event.get("ts"), (int, float)
        ):
            raise _fail(path, f"traceEvents[{index}] missing numeric 'ts'")
        if event["ph"] == "X":
            flags["spans"] += 1
            if not isinstance(event.get("dur"), (int, float)):
                raise _fail(path, f"traceEvents[{index}] span missing 'dur'")
            if event.get("cat") == "phase":
                flags["phase_span"] = True
            if event.get("cat", "").startswith("rnr.") and "pace" in event.get(
                "args", {}
            ):
                flags["window_span"] = True
    return flags


def check_cell_dir(cell_dir: Path) -> dict:
    """Validate one per-cell telemetry directory; returns its flags."""
    summary_path = cell_dir / "summary.json"
    try:
        summary = json.loads(summary_path.read_text())
    except ValueError as exc:
        raise _fail(summary_path, f"invalid JSON ({exc})") from None
    for key in ("final", "final_cycle", "timeseries"):
        if key not in summary:
            raise _fail(summary_path, f"missing {key!r}")
    events_path = cell_dir / "events.jsonl"
    if not events_path.exists():
        raise _fail(events_path, "missing event log")
    check_events_jsonl(events_path)
    series_path = cell_dir / "timeseries.csv"
    if not series_path.exists():
        raise _fail(series_path, "missing time series")
    rows = check_timeseries(series_path, summary)
    flags = {"rows": rows, "phase_span": False, "window_span": False}
    trace_path = cell_dir / "trace.json"
    if trace_path.exists():
        flags.update(check_chrome_trace(trace_path))
    return flags


# ----------------------------------------------------------------------
def check_tree(root: Path, expect: List[str]) -> str:
    """Validate every telemetry artifact under ``root``.

    Raises :class:`CheckFailure` on the first problem; returns a one-line
    human summary on success.
    """
    root = Path(root)
    if not root.is_dir():
        raise CheckFailure(f"{root}: not a directory")
    cell_dirs = sorted(p.parent for p in root.rglob("summary.json"))
    phase_spans = window_spans = 0
    for cell_dir in cell_dirs:
        flags = check_cell_dir(cell_dir)
        phase_spans += bool(flags.get("phase_span"))
        window_spans += bool(flags.get("window_span"))
    sweep_events = root / SWEEP_EVENTS_NAME
    swept = False
    if sweep_events.exists():
        check_events_jsonl(sweep_events, require_cycle=False, sweep_schema=True)
        swept = True
    sweep_trace = root / SWEEP_TRACE_NAME
    if sweep_trace.exists():
        check_chrome_trace(sweep_trace)
    if not cell_dirs and not swept:
        raise CheckFailure(f"{root}: no telemetry artifacts found")
    if "phase-span" in expect and phase_spans == 0:
        raise CheckFailure(
            f"{root}: no Chrome trace contains a phase span "
            "(was --trace-events set on the producing run?)"
        )
    if "window-span" in expect and window_spans == 0:
        raise CheckFailure(
            f"{root}: no Chrome trace contains an RnR window span with "
            "pacing annotations (did the run include an rnr cell?)"
        )
    return (
        f"telemetry ok: {len(cell_dirs)} cell dir(s), "
        f"{phase_spans} with phase spans, {window_spans} with window spans"
        + (", sweep telemetry present" if swept else "")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.check",
        description="Validate emitted telemetry files against the schema.",
    )
    parser.add_argument("root", help="telemetry output directory to validate")
    parser.add_argument(
        "--expect",
        action="append",
        default=[],
        choices=("phase-span", "window-span"),
        help="additionally require this trace content to be present",
    )
    args = parser.parse_args(argv)
    try:
        print(check_tree(Path(args.root), args.expect))
    except CheckFailure as exc:
        print(f"telemetry check FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
