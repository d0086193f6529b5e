"""Fault-tolerant sweep supervision: timeouts, retries, crash isolation,
the per-cell manifest, and resume from the cell cache."""

import json
import os

import pytest

from repro.experiments import supervise
from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import (
    MANIFEST_NAME,
    CellFailure,
    FailureKind,
    RetryPolicy,
    SweepManifest,
    SweepReport,
    cell_id,
    classify_exception,
    pick_cell,
    resolve_cell_timeout,
    run_supervised_sweep,
)
from repro.rnr.replayer import ControlMode

SPECS = [
    CellSpec("pagerank", "urand", "baseline"),
    CellSpec("pagerank", "urand", "nextline"),
    CellSpec("pagerank", "amazon", "baseline"),
    CellSpec("spcg", "bbmat", "baseline"),
]

ONE_RETRY = RetryPolicy(retries=1)


def _runner():
    return ExperimentRunner(scale="test", cache_dir=None)


def _cached_runner(tmp_path, **kwargs):
    """A runner with a cell cache and a trace store, so the sweep report's
    store counters and the default manifest show every commit."""
    return ExperimentRunner(
        scale="test", cache_dir=tmp_path / "cache", trace_store=tmp_path / "store", **kwargs
    )


def _manifest_cells(runner):
    return SweepManifest.load(runner.cache.root / MANIFEST_NAME).cells


def _with_status(cells, status):
    return {cell for cell, entry in cells.items() if entry["status"] == status}


class TestCellId:
    def test_plain(self):
        assert cell_id(CellSpec("pagerank", "urand", "rnr")) == "pagerank/urand/rnr"

    def test_mode_and_window_suffixes(self):
        spec = CellSpec("spcg", "bbmat", "rnr", mode=ControlMode.WINDOW, window=8)
        assert cell_id(spec) == "spcg/bbmat/rnr@window/w8"


class TestResolveCellTimeout:
    def test_argument_wins(self):
        assert resolve_cell_timeout(5.0) == 5.0

    def test_default_unlimited(self):
        assert resolve_cell_timeout() is None

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            resolve_cell_timeout(bad)


class TestRetryPolicy:
    def test_max_attempts(self):
        assert RetryPolicy(retries=2).max_attempts == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)


class TestClassify:
    def test_cache_corruption(self):
        assert classify_exception("CacheIntegrityError") == FailureKind.CACHE_CORRUPTION

    def test_anything_else_is_deterministic(self):
        assert classify_exception("ValueError") == FailureKind.ERROR

    def test_transient_set(self):
        assert FailureKind.TIMEOUT in FailureKind.TRANSIENT
        assert FailureKind.CRASH in FailureKind.TRANSIENT
        assert FailureKind.ERROR not in FailureKind.TRANSIENT


class TestSweepReport:
    def test_ok_without_failures(self):
        assert SweepReport().ok

    def test_render_lists_failures_sorted(self):
        report = SweepReport(simulated=3)
        report.failures.append(CellFailure("b/y/rnr", "crash", 2, "died"))
        report.failures.append(CellFailure("a/x/rnr", "timeout", 3, "slow"))
        text = report.render()
        assert "2 failed" in text
        assert text.index("a/x/rnr") < text.index("b/y/rnr")
        assert "attempts=3" in text

    def test_render_names_slowest_cells_and_busy_share(self):
        report = SweepReport(simulated=4, duration=10.0, workers=2)
        report.cell_seconds.update(
            {"a/x/baseline": 1.0, "a/x/rnr": 6.0, "b/y/rnr": 4.0, "b/y/baseline": 5.0}
        )
        lines = report.render().splitlines()
        assert lines == [
            "sweep: 4 simulated, 0 warm, 0 retries, 0 failed in 10.0s",
            "slowest cells: a/x/rnr 6.0s, b/y/baseline 5.0s, b/y/rnr 4.0s; "
            "workers 80% busy",
        ]

    def test_render_omits_cell_line_when_nothing_ran(self):
        assert "slowest cells" not in SweepReport(skipped=3).render()


class TestPickCell:
    """The dispatch rule: the worker's own (app, input) pair, then a pair
    no worker holds, then the head of the queue."""

    A = ("pagerank", "urand")
    B = ("pagerank", "amazon")
    C = ("spcg", "bbmat")

    def test_own_pair_first(self):
        ready = [self.A, self.B, self.C]
        assert pick_cell(ready, own={self.C}, held={self.A, self.C}) == 2

    def test_then_a_pair_no_worker_holds(self):
        assert pick_cell([self.A, self.A, self.B], own=set(), held={self.A}) == 2

    def test_then_the_queue_head(self):
        held = {self.A, self.B, self.C}
        assert pick_cell([self.B, self.A], own={self.C}, held=held) == 0

    def test_fresh_workers_start_on_distinct_pairs(self):
        ready = [self.A, self.A, self.B, self.B]
        first = ready.pop(pick_cell(ready, own=set(), held=set()))
        second = ready.pop(pick_cell(ready, own=set(), held={first}))
        assert (first, second) == (self.A, self.B)

    def test_retried_cell_goes_through_the_same_rule(self):
        # A retry re-enters at the back of the queue.  The worker that
        # holds its pair takes it ahead of the head...
        assert pick_cell([self.B, self.A], own={self.A}, held={self.A, self.B}) == 1
        # ...and once that worker died (its pairs are no longer held), a
        # fresh replacement takes it as an unheld pair.
        assert pick_cell([self.B, self.A], own=set(), held={self.B}) == 1


class TestCellDispatch:
    def test_one_pair_spreads_over_both_workers(self, tmp_path, monkeypatch):
        """A single (app, input) at jobs=2 runs on two worker processes."""
        specs = [
            CellSpec("pagerank", "amazon", name)
            for name in ("baseline", "nextline", "stems", "rnr")
        ]

        class PidRecordingRunner(ExperimentRunner):
            def run_spec(self, spec):
                with open(tmp_path / str(os.getpid()), "a") as fh:
                    fh.write(cell_id(spec) + "\n")
                return super().run_spec(spec)

        # Workers build supervise.ExperimentRunner and inherit it by fork.
        monkeypatch.setattr(supervise, "ExperimentRunner", PidRecordingRunner)
        runner = _runner()
        report = run_supervised_sweep(runner, specs, jobs=2)
        assert report.ok
        logs = {int(path.name): path.read_text().split() for path in tmp_path.iterdir()}
        assert len(logs) == 2 and os.getpid() not in logs
        assert sorted(sum(logs.values(), [])) == sorted(cell_id(s) for s in specs)
        assert report.workers == 2
        assert set(report.cell_seconds) == {cell_id(s) for s in specs}

        serial = _runner()
        for spec in specs:
            assert runner.run_spec(spec).stats == serial.run_spec(spec).stats


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.mark_done("a/x/rnr", attempts=1, duration=0.5)
        manifest.mark_failed("b/y/rnr", "crash", "died", attempts=2, duration=1.0)
        manifest.save()

        loaded = SweepManifest.load(path)
        assert loaded.cells == manifest.cells
        assert _with_status(loaded.cells, "done") == {"a/x/rnr"}
        assert _with_status(loaded.cells, "failed") == {"b/y/rnr"}
        assert loaded.cells["b/y/rnr"]["kind"] == "crash"

    def test_garbage_file_starts_fresh(self, tmp_path):
        path = tmp_path / "m.json"
        assert SweepManifest.load(path).cells == {}  # missing
        # Cut mid-JSON, undecodable bytes, JSON that is not a manifest.
        for garbage in (b'{"cells": {"a/b/c": {"st', b"\x00\xff\x13garbage", b"[1]"):
            path.write_bytes(garbage)
            assert SweepManifest.load(path).cells == {}

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.mark_done("a", 1, 0.1)
        manifest.save()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []
        assert json.loads(path.read_text()) == {
            "cells": {"a": {"status": "done", "attempts": 1, "duration_s": 0.1}}
        }


class TestHappyPath:
    def test_matches_serial_results(self):
        serial = _runner()
        for spec in SPECS:
            serial.run_spec(spec)

        supervised = _runner()
        report = run_supervised_sweep(supervised, SPECS, jobs=2)
        assert report.ok
        assert report.simulated == len(SPECS)
        for spec in SPECS:
            assert supervised.run_spec(spec).stats == serial.run_spec(spec).stats

    def test_warm_cells_skipped(self):
        runner = _runner()
        runner.run_spec(SPECS[0])
        report = run_supervised_sweep(runner, SPECS, jobs=2)
        assert report.skipped == 1
        assert report.simulated == len(SPECS) - 1

    def test_all_cells_commit_exactly_once(self, tmp_path):
        runner = _cached_runner(tmp_path)
        report = run_supervised_sweep(runner, SPECS, jobs=2, policy=ONE_RETRY)
        assert report.simulated == len(SPECS)
        assert not report.failures and report.ok
        assert report.retried == 0
        # One publish per cell: nothing committed twice.
        assert report.cell_cache["stores"] == len(SPECS)
        # Every result was merged: figures can render with no simulation.
        for spec in SPECS:
            assert runner.run_spec(spec) is not None
        cells = _manifest_cells(runner)
        assert sorted(cells) == sorted(cell_id(s) for s in SPECS)
        assert all(entry["status"] == "done" for entry in cells.values())
        assert all(entry["attempts"] == 1 for entry in cells.values())

    def test_second_sweep_is_fully_warm(self, tmp_path):
        run_supervised_sweep(_cached_runner(tmp_path), SPECS, jobs=2, policy=ONE_RETRY)
        report = run_supervised_sweep(
            _cached_runner(tmp_path), SPECS, jobs=2, policy=ONE_RETRY
        )
        # Nothing simulated, nothing rebuilt: every cell is warm on disk.
        assert report.simulated == 0
        assert report.skipped == len(SPECS)
        assert report.cell_cache["stores"] == 0
        assert report.trace_store["builds"] == 0


class TestFaultIsolation:
    def test_raising_cell_fails_fast_rest_completes(self, tmp_path):
        runner = _cached_runner(tmp_path)
        report = run_supervised_sweep(
            runner,
            SPECS,
            jobs=2,
            policy=RetryPolicy(retries=2),
            faults={"pagerank/urand/nextline": ("raise", None)},
        )
        assert [f.cell for f in report.failures] == ["pagerank/urand/nextline"]
        failure = report.failures[0]
        # Deterministic errors are not retried.
        assert failure.kind == FailureKind.ERROR
        assert failure.attempts == 1
        assert "InjectedFault" in failure.message
        assert report.retried == 0
        assert report.simulated == len(SPECS) - 1
        for spec in SPECS[:1] + SPECS[2:]:
            assert runner.run_spec(spec) is not None
        cells = _manifest_cells(runner)
        assert _with_status(cells, "failed") == {"pagerank/urand/nextline"}
        assert len(_with_status(cells, "done")) == len(SPECS) - 1

    def test_cache_corruption_is_transient(self):
        runner = _runner()
        report = run_supervised_sweep(
            runner,
            SPECS[:2],
            jobs=1,
            policy=RetryPolicy(retries=1),
            faults={"pagerank/urand/nextline": ("cache", 1)},
        )
        # First attempt corrupts, the retry succeeds.
        assert report.ok
        assert report.retried == 1
        assert report.simulated == 2

    def test_transient_error_retried_then_permanent(self):
        victim = cell_id(SPECS[0])
        report = run_supervised_sweep(
            _runner(), SPECS[:1], jobs=1, policy=ONE_RETRY, faults={victim: ("cache", None)}
        )
        # Cache corruption may be the environment's fault: retried once,
        # then failed permanently when it persists.
        assert report.retried == 1
        [failure] = report.failures
        assert failure.cell == victim
        assert failure.kind == FailureKind.CACHE_CORRUPTION
        assert failure.attempts == ONE_RETRY.max_attempts

    def test_crashed_first_attempts_commit_exactly_once(self, tmp_path):
        runner = _cached_runner(tmp_path)
        # Every cell's first attempt kills its worker before a result
        # message is sent; the supervisor must notice each loss.
        report = run_supervised_sweep(
            runner, SPECS, jobs=2, policy=ONE_RETRY,
            faults={cell_id(spec): ("crash", 1) for spec in SPECS},
        )
        # Exactly once: every cell committed, none lost, none duplicated.
        assert report.simulated == len(SPECS)
        assert not report.failures
        assert report.retried == len(SPECS)
        assert report.cell_cache["stores"] == len(SPECS)
        cells = _manifest_cells(runner)
        assert sorted(cells) == sorted(cell_id(s) for s in SPECS)
        assert all(entry["status"] == "done" for entry in cells.values())
        assert all(entry["attempts"] == 2 for entry in cells.values())

    def test_hung_first_attempts_commit_exactly_once(self, tmp_path):
        runner = _cached_runner(tmp_path)
        stalled = SPECS[:2]
        # Both cells stall past their deadline on the first attempt.  The
        # stalled worker is killed, so its result can never land late; the
        # retry commits each cell exactly once.
        report = run_supervised_sweep(
            runner, stalled, jobs=2, cell_timeout=5.0, policy=ONE_RETRY,
            faults={cell_id(spec): ("hang", 1) for spec in stalled},
        )
        assert report.simulated == 2
        assert not report.failures
        assert report.retried == 2
        assert report.cell_cache["stores"] == 2
        cells = _manifest_cells(runner)
        assert all(entry["status"] == "done" for entry in cells.values())
        assert all(entry["attempts"] == 2 for entry in cells.values())

    def test_poison_cell_does_not_sink_the_sweep(self, tmp_path):
        runner = _cached_runner(tmp_path, lenient=True)
        victim = cell_id(SPECS[1])
        report = run_supervised_sweep(
            runner, SPECS, jobs=2, policy=ONE_RETRY, faults={victim: ("crash", None)}
        )
        # The crashing cell killed a worker on every attempt and failed
        # permanently; every other cell still committed exactly once.
        assert report.simulated == len(SPECS) - 1
        [failure] = report.failures
        assert failure.kind == FailureKind.CRASH
        assert failure.cell == victim
        assert failure.attempts == ONE_RETRY.max_attempts
        assert report.cell_cache["stores"] == len(SPECS) - 1
        # Degraded-figure machinery: the failed cell renders as '-'.
        assert runner.run_spec(SPECS[1]) is None
        assert runner.missing_note()
        cells = _manifest_cells(runner)
        assert cells[victim]["status"] == "failed"
        assert cells[victim]["kind"] == FailureKind.CRASH

    def test_crash_and_hang_isolated_then_resumed(self, tmp_path):
        """The acceptance scenario: one crashing cell, one hanging cell;
        every other cell finishes, both faults follow the retry policy, the
        manifest records everything, and a re-run against the same cell
        cache simulates only the failure."""
        runner = ExperimentRunner(scale="test", cache_dir=tmp_path / "cache")
        policy = RetryPolicy(retries=1)
        report = run_supervised_sweep(
            runner,
            SPECS,
            jobs=2,
            cell_timeout=0.75,
            policy=policy,
            faults={
                # Unbounded: crashes on every attempt -> permanent failure.
                "pagerank/urand/nextline": ("crash", None),
                # Bounded to attempt 1: hangs once, succeeds on retry.
                "spcg/bbmat/baseline": ("hang", 1),
            },
        )
        assert [f.cell for f in report.failures] == ["pagerank/urand/nextline"]
        crash = report.failures[0]
        assert crash.kind == FailureKind.CRASH
        assert crash.attempts == policy.max_attempts
        # One retry for the crash, one for the hang's timeout.
        assert report.retried == 2
        # Crash and hang are isolated: the other three cells all finished.
        assert report.simulated == len(SPECS) - 1
        for spec in SPECS[:1] + SPECS[2:]:
            assert runner.run_spec(spec) is not None
        assert runner.failed_cells  # the crash cell is marked on the runner

        cells = _manifest_cells(runner)
        assert _with_status(cells, "failed") == {"pagerank/urand/nextline"}
        assert cells["spcg/bbmat/baseline"]["status"] == "done"
        assert cells["spcg/bbmat/baseline"]["attempts"] == 2

        # Re-run with the fault gone: only the failed cell is simulated.
        rerun = ExperimentRunner(scale="test", cache_dir=tmp_path / "cache")
        second = run_supervised_sweep(rerun, SPECS, jobs=2, policy=policy)
        assert second.ok
        assert second.simulated == 1
        assert second.skipped == len(SPECS) - 1
        cells = _manifest_cells(rerun)
        assert _with_status(cells, "failed") == set()
        assert len(_with_status(cells, "done")) == len(SPECS)

    def test_timeout_kills_hung_worker(self):
        runner = _runner()
        report = run_supervised_sweep(
            runner,
            SPECS[:1],
            jobs=1,
            cell_timeout=0.5,
            policy=RetryPolicy(retries=0),
            faults={"pagerank/urand/baseline": ("hang", None)},
        )
        assert [f.kind for f in report.failures] == [FailureKind.TIMEOUT]
        assert report.simulated == 0

    def test_killed_worker_keeps_finished_results(self, tmp_path):
        """A worker dying on one cell must not discard the cells it already
        finished, and the sweep must go on to finish the rest."""
        runner = _cached_runner(tmp_path)
        report = run_supervised_sweep(
            runner,
            SPECS,
            jobs=1,  # one worker runs the (app, input) pair's cells in turn
            policy=RetryPolicy(retries=0),
            faults={"pagerank/urand/nextline": ("crash", None)},
        )
        # baseline ran on the same worker before the crash and must be kept.
        key = runner._result_key("pagerank", "urand", "baseline", None, None)
        assert key in runner._results
        assert report.simulated == len(SPECS) - 1
        assert [f.cell for f in report.failures] == ["pagerank/urand/nextline"]
        assert "pagerank/urand/baseline" in _with_status(_manifest_cells(runner), "done")


class TestTelemetry:
    def test_sweep_telemetry_tree_validates(self, tmp_path):
        from repro.telemetry.check import check_tree
        from repro.telemetry.config import TelemetryConfig

        runner = _cached_runner(tmp_path, telemetry=TelemetryConfig(out_dir=tmp_path / "tel"))
        report = run_supervised_sweep(runner, SPECS[:2], jobs=2, policy=ONE_RETRY)
        assert report.simulated == 2
        # The supervisor's sweep-events.jsonl (sweep schema) and the
        # workers' per-cell trees all pass repro.telemetry.check.
        summary = check_tree(tmp_path / "tel", [])
        assert "sweep telemetry present" in summary
        lines = (tmp_path / "tel" / "sweep-events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        done = [event["cell"] for event in events if event["ev"] == "cell.done"]
        assert sorted(done) == sorted(cell_id(s) for s in SPECS[:2])
        assert events[-1]["ev"] == "sweep.end"
