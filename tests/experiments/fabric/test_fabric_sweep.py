"""Graceful interrupt of a one-worker sweep whose manifest sits in its
default place next to the cell cache.

One worker runs through the supervised sweep like any other count, so a
SIGTERM must drain it: manifest flushed as valid JSON, distinct exit
status, and a re-run with the same cell cache that finishes the matrix
without re-running a committed cell.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.supervise import (
    INTERRUPT_EXIT_STATUS,
    MANIFEST_NAME,
    SweepManifest,
)


def _runner(tmp_path):
    return ExperimentRunner(
        scale="test", cache_dir=tmp_path / "cache", trace_store=tmp_path / "store"
    )


def _manifest_cells(runner):
    return SweepManifest.load(runner.cache.root / MANIFEST_NAME).cells


class TestGracefulInterrupt:
    """One worker, the manifest in its default place next to the cache."""

    def _popen_sweep(self, tmp_path):
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
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sigterm_drains_and_resume_completes(self, tmp_path):
        manifest_path = tmp_path / "cache" / MANIFEST_NAME
        # --jobs 1 alone runs through the supervised sweep.
        proc = self._popen_sweep(tmp_path)
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
        assert (
            f"manifest flushed to {manifest_path}: re-running with the same "
            "--cache-dir continues it" in out
        )
        # The manifest survived the drain as valid JSON with progress.
        payload = json.loads(manifest_path.read_text())
        done = [
            cell
            for cell, entry in payload["cells"].items()
            if entry["status"] == "done"
        ]
        assert done
        # ... and the same command finishes the rest, re-running none of
        # the committed cells.
        proc = self._popen_sweep(tmp_path)
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, out
        cells = _manifest_cells(_runner(tmp_path))
        assert all(entry["status"] == "done" for entry in cells.values())
        # Cells committed before the interrupt were not re-run on resume.
        assert all(entry == payload["cells"][cell]
                   for cell, entry in cells.items() if cell in done)
