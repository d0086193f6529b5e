"""End-to-end supervised sweeps: real worker processes, real caches.

The headline invariant, asserted clean and under injected worker deaths
and stalls: the sweep completes **every cell that can complete exactly
once** — no lost cells, no duplicate commits — as shown by the sweep
report, the manifest, and the disk-cache counters.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import (
    INTERRUPT_EXIT_STATUS,
    MANIFEST_NAME,
    FailureKind,
    RetryPolicy,
    SweepManifest,
    cell_id,
    run_supervised_sweep,
    runner_fingerprint,
)

SPECS = [
    CellSpec("pagerank", "urand", "baseline"),
    CellSpec("pagerank", "urand", "nextline"),
    CellSpec("pagerank", "amazon", "baseline"),
    CellSpec("spcg", "bbmat", "baseline"),
]

#: One retry with millisecond backoff, so fault tests stay fast.
FAST = RetryPolicy(retries=1, backoff=0.01, backoff_max=0.02, jitter=0.0)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("trace_store", tmp_path / "store")
    return ExperimentRunner(scale="test", **kwargs)


def _sweep(runner, specs=SPECS, jobs=2, **kwargs):
    kwargs.setdefault("policy", FAST)
    return run_supervised_sweep(runner, list(specs), jobs=jobs, **kwargs)


def _manifest_cells(runner):
    manifest = SweepManifest.load(
        runner.cache.root / MANIFEST_NAME, runner_fingerprint(runner)
    )
    return manifest.cells


class TestCleanSweep:
    def test_all_cells_commit_exactly_once(self, tmp_path):
        runner = _runner(tmp_path)
        report = _sweep(runner)
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
        first = _runner(tmp_path)
        _sweep(first)
        second = _runner(tmp_path)
        report = _sweep(second, resume=True)
        # Nothing simulated, nothing rebuilt: warm cache + manifest.
        assert report.simulated == 0
        assert report.skipped + report.resumed == len(SPECS)
        assert report.cell_cache["stores"] == 0
        assert report.trace_store["builds"] == 0


class TestChaos:
    def test_worker_die_and_message_loss_exactly_once(self, tmp_path):
        runner = _runner(tmp_path)
        # Every cell's first attempt kills its worker before a result
        # message is sent; the supervisor must notice each loss.
        report = _sweep(
            runner, faults={cell_id(spec): ("crash", 1) for spec in SPECS}
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

    def test_late_results_absorbed_exactly_once(self, tmp_path):
        runner = _runner(tmp_path)
        stalled = SPECS[:2]
        # Both cells stall past their deadline on the first attempt.  The
        # stalled worker is killed, so its result can never land late; the
        # retry commits each cell exactly once.
        report = _sweep(
            runner,
            specs=stalled,
            cell_timeout=5.0,
            faults={cell_id(spec): ("hang", 1) for spec in stalled},
        )
        assert report.simulated == 2
        assert not report.failures
        assert report.retried == 2
        assert report.cell_cache["stores"] == 2
        cells = _manifest_cells(runner)
        assert all(entry["status"] == "done" for entry in cells.values())
        assert all(entry["attempts"] == 2 for entry in cells.values())

    def test_poison_cell_fails_without_sinking_the_sweep(self, tmp_path):
        runner = _runner(tmp_path, lenient=True)
        victim = cell_id(SPECS[1])
        report = _sweep(runner, faults={victim: ("crash", None)})
        # The crashing cell killed a worker on every attempt and failed
        # permanently; every other cell still committed exactly once.
        assert report.simulated == len(SPECS) - 1
        [failure] = report.failures
        assert failure.kind == FailureKind.CRASH
        assert failure.cell == victim
        assert failure.attempts == FAST.max_attempts
        assert report.cell_cache["stores"] == len(SPECS) - 1
        # Degraded-figure machinery: the failed cell renders as '-'.
        assert runner.run_spec(SPECS[1]) is None
        assert runner.missing_note()
        cells = _manifest_cells(runner)
        assert cells[victim]["status"] == "failed"
        assert cells[victim]["kind"] == FailureKind.CRASH


class TestTelemetry:
    def test_fabric_sweep_telemetry_tree_validates(self, tmp_path):
        from repro.telemetry.check import check_tree
        from repro.telemetry.config import TelemetryConfig

        runner = _runner(
            tmp_path, telemetry=TelemetryConfig(out_dir=tmp_path / "tel")
        )
        report = _sweep(runner, specs=SPECS[:2])
        assert report.simulated == 2
        # The supervisor's sweep-events.jsonl (sweep schema) and the
        # workers' per-cell trees all pass repro.telemetry.check.
        summary = check_tree(tmp_path / "tel", [])
        assert "sweep telemetry present" in summary
        events = [
            json.loads(line)
            for line in (tmp_path / "tel" / "sweep-events.jsonl")
            .read_text()
            .splitlines()
        ]
        done = [event["cell"] for event in events if event["ev"] == "cell.done"]
        assert sorted(done) == sorted(cell_id(s) for s in SPECS[:2])
        assert events[-1]["ev"] == "sweep.end"


class TestResume:
    def test_partial_sweep_resumes_without_rebuilds(self, tmp_path):
        # Phase 1: half the matrix commits (simulating a killed sweep
        # whose manifest and caches survived).
        first = _runner(tmp_path)
        _sweep(first, specs=SPECS[:2])
        # Phase 2: the full matrix resumes — only the missing half runs.
        second = _runner(tmp_path)
        report = _sweep(second, resume=True)
        assert report.simulated == 2
        assert report.skipped + report.resumed == 2
        assert not report.failures
        # Zero rebuilt cached cells: nothing already on disk was redone.
        assert report.cell_cache["stores"] == 2
        cells = _manifest_cells(second)
        assert sorted(cells) == sorted(cell_id(s) for s in SPECS)


class TestGracefulInterrupt:
    """One worker, the manifest in its default place next to the cache."""

    def _popen_sweep(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[3] / "src"),
             env.get("PYTHONPATH", "")]
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "fig13",
                "--scale", "test",
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace-store", str(tmp_path / "store"),
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sigterm_drains_and_resume_completes(self, tmp_path):
        manifest_path = tmp_path / "cache" / MANIFEST_NAME
        # --resume routes even one worker through the supervised sweep.
        proc = self._popen_sweep(tmp_path, "--resume")
        try:
            deadline = time.time() + 180
            while time.time() < deadline:
                if manifest_path.exists():
                    try:
                        payload = json.loads(manifest_path.read_text())
                    except ValueError:
                        payload = {}
                    if any(
                        entry.get("status") == "done"
                        for entry in payload.get("cells", {}).values()
                    ):
                        break
                if proc.poll() is not None:
                    pytest.fail(
                        f"sweep finished before it could be interrupted:\n"
                        f"{proc.stdout.read()}"
                    )
                time.sleep(0.1)
            else:
                pytest.fail("no cell committed within the deadline")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == INTERRUPT_EXIT_STATUS, out
        assert "sweep interrupted" in out
        # The manifest survived the drain as valid JSON with progress.
        payload = json.loads(manifest_path.read_text())
        done = [
            cell
            for cell, entry in payload["cells"].items()
            if entry["status"] == "done"
        ]
        assert done
        # ... and --resume finishes the rest, re-running none of the
        # committed cells.
        proc = self._popen_sweep(tmp_path, "--resume")
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, out
        runner = _runner(tmp_path)
        cells = _manifest_cells(runner)
        assert all(entry["status"] == "done" for entry in cells.values())
        # Cells committed before the interrupt were not re-run on resume.
        assert all(entry == payload["cells"][cell]
                   for cell, entry in cells.items() if cell in done)
