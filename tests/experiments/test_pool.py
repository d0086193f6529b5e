"""The parallel sweep must be indistinguishable from the serial one."""

import os

import pytest

from repro.experiments import supervise
from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import run_supervised_sweep
from repro.rnr.replayer import ControlMode

SPECS = [
    CellSpec("pagerank", "urand", "baseline"),
    CellSpec("pagerank", "urand", "nextline"),
    CellSpec("pagerank", "urand", "rnr", mode=ControlMode.WINDOW),
    CellSpec("spcg", "bbmat", "baseline"),
    CellSpec("spcg", "bbmat", "rnr", window=8),
    CellSpec("pagerank", "amazon", "ideal"),
]


def _runner():
    return ExperimentRunner(scale="test", cache_dir=None)


class TestResolveJobs:
    def test_explicit_wins(self):
        assert supervise.resolve_jobs(3) == 3

    def test_cpu_count_default(self):
        if hasattr(os, "sched_getaffinity"):
            assert supervise.resolve_jobs() == len(os.sched_getaffinity(0))
        else:
            assert supervise.resolve_jobs() == (os.cpu_count() or 1)

    def test_default_follows_cpu_affinity(self, monkeypatch):
        # taskset / a cpuset-limited container: one usable CPU of many.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert supervise.resolve_jobs() == 1

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert supervise.resolve_jobs() == 3

    def test_rejects_nonpositive(self):
        for bad in (0, -2):
            with pytest.raises(ValueError):
                supervise.resolve_jobs(bad)

    def test_rejects_noninteger_argument(self):
        with pytest.raises(ValueError, match="positive integer"):
            supervise.resolve_jobs("abc")

    def test_error_message_names_the_source(self):
        with pytest.raises(ValueError, match="jobs must be"):
            supervise.resolve_jobs(0)


class TestRunSweep:
    """The sweep executor, fed by its matrix and pending-cell helpers."""

    def test_parallel_matches_serial(self):
        serial = _runner()
        for spec in SPECS:
            serial.run_spec(spec)
        parallel = _runner()
        report = run_supervised_sweep(parallel, SPECS, jobs=2)
        assert report.ok and report.simulated == len(SPECS)
        for spec in SPECS:
            a = serial.run_spec(spec)
            b = parallel.run_spec(spec)
            assert a.stats == b.stats, spec
            assert a.input_bytes == b.input_bytes, spec

    def test_merged_cells_feed_the_memo(self):
        runner = _runner()
        run_supervised_sweep(runner, SPECS[:2], jobs=2)
        key = runner._result_key("pagerank", "urand", "nextline", None, None)
        assert key in runner._results

    def test_sweep_skips_memoized_cells(self):
        runner = _runner()
        runner.run_spec(SPECS[0])
        assert run_supervised_sweep(runner, SPECS[:2], jobs=1).simulated == 1
        assert run_supervised_sweep(runner, SPECS[:2], jobs=1).simulated == 0

    def test_duplicate_specs_run_once(self):
        runner = _runner()
        report = run_supervised_sweep(runner, [SPECS[0], SPECS[0]], jobs=1)
        # One cell, simulated once; its second listing is not a warm cell.
        assert report.simulated == 1
        assert report.skipped == 0
        assert report.render().startswith("sweep: 1 simulated, 0 warm")
