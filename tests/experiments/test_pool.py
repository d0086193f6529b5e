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
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(supervise.JOBS_ENV, "7")
        assert supervise.resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(supervise.JOBS_ENV, "5")
        assert supervise.resolve_jobs() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv(supervise.JOBS_ENV, raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert supervise.resolve_jobs() == len(os.sched_getaffinity(0))
        else:
            assert supervise.resolve_jobs() == (os.cpu_count() or 1)

    def test_default_follows_cpu_affinity(self, monkeypatch):
        # taskset / a cpuset-limited container: one usable CPU of many.
        monkeypatch.delenv(supervise.JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert supervise.resolve_jobs() == 1

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(supervise.JOBS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert supervise.resolve_jobs() == 3

    def test_rejects_nonpositive(self, monkeypatch):
        with pytest.raises(ValueError):
            supervise.resolve_jobs(0)
        monkeypatch.setenv(supervise.JOBS_ENV, "-2")
        with pytest.raises(ValueError):
            supervise.resolve_jobs()

    def test_rejects_zero_env(self, monkeypatch):
        monkeypatch.setenv(supervise.JOBS_ENV, "0")
        with pytest.raises(ValueError, match="RNR_JOBS"):
            supervise.resolve_jobs()

    def test_rejects_noninteger_env(self, monkeypatch):
        monkeypatch.setenv(supervise.JOBS_ENV, "many")
        with pytest.raises(ValueError, match="positive integer"):
            supervise.resolve_jobs()

    def test_rejects_noninteger_argument(self):
        with pytest.raises(ValueError, match="positive integer"):
            supervise.resolve_jobs("abc")

    def test_error_message_names_the_source(self, monkeypatch):
        with pytest.raises(ValueError, match="jobs must be"):
            supervise.resolve_jobs(0)
        monkeypatch.setenv(supervise.JOBS_ENV, "0")
        with pytest.raises(ValueError, match=supervise.JOBS_ENV):
            supervise.resolve_jobs()


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
        assert run_supervised_sweep(runner, [SPECS[0], SPECS[0]], jobs=1).simulated == 1

    def test_full_matrix_covers_every_cell(self):
        runner = _runner()
        specs = supervise.full_matrix_specs(runner)
        pairs = {(s.app, s.input_name) for s in specs}
        assert pairs == set(runner.cells())
        names = {s.prefetcher for s in specs}
        assert {"baseline", "rnr", "ideal"} <= names
        # DROPLET must not be scheduled for the matrix apps.
        assert not any(
            s.prefetcher == "droplet" and s.app == "spcg" for s in specs
        )
