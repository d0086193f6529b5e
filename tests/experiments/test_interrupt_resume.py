"""Graceful interrupt and resume for supervised sweeps.

A sweep killed mid-flight must drain cleanly — workers reaped, manifest
flushed as valid JSON, distinct exit status — and a re-run with the same
cell cache must pick up exactly where it stopped.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import supervise
from repro.experiments.__main__ import main
from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import (
    INTERRUPT_EXIT_STATUS,
    MANIFEST_NAME,
    SweepManifest,
    cell_id,
    run_supervised_sweep,
)

SPECS = [
    CellSpec("pagerank", "urand", "baseline"),
    CellSpec("pagerank", "urand", "nextline"),
    CellSpec("pagerank", "amazon", "baseline"),
    CellSpec("spcg", "bbmat", "baseline"),
]


def _cached_runner(tmp_path):
    return ExperimentRunner(
        scale="test", cache_dir=tmp_path / "cache", trace_store=tmp_path / "store"
    )


class TestResume:
    def test_partial_sweep_resumes_without_rebuilds(self, tmp_path):
        # Phase 1: half the matrix commits (simulating a killed sweep
        # whose caches survived).
        run_supervised_sweep(_cached_runner(tmp_path), SPECS[:2], jobs=2)
        # Phase 2: the full matrix re-runs — only the missing half runs.
        second = _cached_runner(tmp_path)
        report = run_supervised_sweep(second, SPECS, jobs=2)
        assert report.simulated == 2
        assert report.skipped == 2
        assert not report.failures
        # Zero rebuilt cached cells: nothing already on disk was redone.
        assert report.cell_cache["stores"] == 2
        # The manifest keeps the first run's cells beside the second's.
        manifest = SweepManifest.load(second.cache.root / MANIFEST_NAME)
        assert sorted(manifest.cells) == sorted(cell_id(s) for s in SPECS)


class TestInterruptedSweepCLI:
    """Kill `repro.experiments` mid-sweep; it must drain and resume."""

    def _popen(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src"),
             env.get("PYTHONPATH", "")]
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "fig13",
                "--scale", "test",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace-store", str(tmp_path / "store"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _wait_for_done_cell(self, proc, manifest_path, deadline_s=180):
        deadline = time.time() + deadline_s
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
                    return payload
            if proc.poll() is not None:
                pytest.fail(
                    "sweep finished before it could be interrupted:\n"
                    + proc.stdout.read()
                )
            time.sleep(0.1)
        pytest.fail("no cell committed within the deadline")

    def test_sigterm_exits_130_and_resume_completes(self, tmp_path):
        manifest_path = tmp_path / "cache" / MANIFEST_NAME
        proc = self._popen(tmp_path)
        try:
            self._wait_for_done_cell(proc, manifest_path)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == INTERRUPT_EXIT_STATUS, out
        assert "sweep interrupted" in out
        assert (
            f"manifest flushed to {manifest_path}: re-running with the same "
            "--cache-dir continues it" in out
        )
        # The drain left a valid manifest with real progress, and no
        # orphaned worker processes holding the caches open.
        payload = json.loads(manifest_path.read_text())
        done = {
            cell
            for cell, entry in payload["cells"].items()
            if entry["status"] == "done"
        }
        assert done
        # The same command finishes the matrix without re-running the done
        # cells.
        proc = self._popen(tmp_path)
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, out
        final = json.loads(manifest_path.read_text())
        assert all(
            entry["status"] == "done" for entry in final["cells"].values()
        )
        assert all(final["cells"][cell] == payload["cells"][cell] for cell in done)
        # Cells committed before the interrupt come back warm from the
        # disk cache — never re-simulated.
        total = len(final["cells"])
        assert f"sweep: {total - len(done)} simulated" in out


class TestInterruptHint:
    """The CLI offers the re-run hint only when a cell cache holds the
    finished cells."""

    def _interrupted(self, monkeypatch, capsys, *flags):
        def stopped(runner, specs, **kwargs):
            return supervise.SweepReport(interrupted=True)

        monkeypatch.setattr(supervise, "run_supervised_sweep", stopped)
        assert main(["fig13", "--scale", "test", "--jobs", "2", *flags]) == INTERRUPT_EXIT_STATUS
        return capsys.readouterr().out

    def test_no_manifest_no_resume_hint(self, monkeypatch, capsys):
        out = self._interrupted(monkeypatch, capsys)
        assert "sweep interrupted" in out
        assert "manifest flushed" not in out
        assert "continues it" not in out

    def test_flushed_manifest_gets_resume_hint(self, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "cells"
        out = self._interrupted(monkeypatch, capsys, "--cache-dir", str(cache_dir))
        assert (
            f"manifest flushed to {cache_dir / MANIFEST_NAME}: re-running with "
            "the same --cache-dir continues it" in out
        )
