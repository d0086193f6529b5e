"""Supervisor bookkeeping rules, one per test: a deterministic failure is
not retried, and a resumed sweep surfaces a corrupt manifest.

Each test drives :func:`run_supervised_sweep` over one or two test-scale
cells with no disk cache, so the report reflects only the rule under test.
"""

from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import (
    FailureKind,
    RetryPolicy,
    cell_id,
    run_supervised_sweep,
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
    def test_deterministic_error_fails_immediately(self):
        victim = cell_id(SPECS[0])
        report = _sweep(_runner(), specs=SPECS[:1], faults={victim: ("raise", None)})
        [failure] = report.failures
        assert failure.kind == FailureKind.ERROR
        assert failure.attempts == 1
        assert report.retried == 0


class TestResume:
    def test_corrupt_manifest_surfaced(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": 1, "cells": {"a/b/c": {"st')  # cut mid-JSON
        report = _sweep(_runner(), manifest_path=path, resume=True)
        assert report.manifest_corrupt
        assert report.resumed == 0
        assert report.simulated == len(SPECS)  # nothing skipped
