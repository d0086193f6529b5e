"""Supervisor bookkeeping rule: a deterministic failure is not retried.

The test drives :func:`run_supervised_sweep` over one test-scale cell
with no disk cache, so the report reflects only the rule under test.
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

POLICY = RetryPolicy(retries=1)


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

