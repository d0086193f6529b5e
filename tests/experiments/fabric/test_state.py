"""Supervisor bookkeeping rules, one per test: which failures are retried,
and what a resumed sweep takes from its manifest.

Each test drives :func:`run_supervised_sweep` over one or two test-scale
cells with no disk cache, so the report reflects only the rule under test.
"""

from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import (
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
]

POLICY = RetryPolicy(retries=1, backoff=0.01, backoff_max=0.02, jitter=0.0)


def _runner():
    return ExperimentRunner(scale="test", cache_dir=None)


def _sweep(runner, specs=SPECS, **kwargs):
    kwargs.setdefault("policy", POLICY)
    return run_supervised_sweep(runner, list(specs), jobs=1, **kwargs)


class TestQuarantine:
    def test_transient_error_retried_then_permanent(self):
        victim = cell_id(SPECS[0])
        report = _sweep(_runner(), specs=SPECS[:1], faults={victim: ("cache", None)})
        # Cache corruption may be the environment's fault: retried once,
        # then failed permanently when it persists.
        assert report.retried == 1
        [failure] = report.failures
        assert failure.cell == victim
        assert failure.kind == FailureKind.CACHE_CORRUPTION
        assert failure.attempts == POLICY.max_attempts

    def test_deterministic_error_fails_immediately(self):
        victim = cell_id(SPECS[0])
        report = _sweep(_runner(), specs=SPECS[:1], faults={victim: ("raise", None)})
        [failure] = report.failures
        assert failure.kind == FailureKind.ERROR
        assert failure.attempts == 1
        assert report.retried == 0


class TestResume:
    def test_manifest_done_cells_skipped(self, tmp_path):
        runner = _runner()
        path = tmp_path / "m.json"
        manifest = SweepManifest(path, runner_fingerprint(runner))
        manifest.mark_done(cell_id(SPECS[0]), attempts=1, duration=1.0)
        manifest.save()
        report = _sweep(runner, manifest_path=path, resume=True)
        assert report.resumed == 1
        assert report.simulated == len(SPECS) - 1

    def test_corrupt_manifest_surfaced(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": 1, "cells": {"a/b/c": {"st')  # cut mid-JSON
        report = _sweep(_runner(), manifest_path=path, resume=True)
        assert report.manifest_corrupt
        assert report.resumed == 0
        assert report.simulated == len(SPECS)  # nothing skipped
