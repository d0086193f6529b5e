"""Helpers the sweep executor shares with the CLI and the fabric.

Every (app, input, prefetcher) cell of the figure matrix is an independent
simulation (the trace-driven methodology of the paper's ChampSim harness),
and :func:`repro.experiments.supervise.run_supervised_sweep` runs them
across worker processes.  This module holds what that executor, the CLI
and the fabric coordinator share: the worker count (:func:`resolve_jobs`),
the full cell matrix (:func:`full_matrix_specs`), and the filter that
drops memoized, disk-cached and duplicate cells before dispatch
(:func:`pending_specs`).

Worker count resolution: explicit ``jobs`` argument, else the ``RNR_JOBS``
environment variable, else the number of CPUs this process may run on.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional

from repro.experiments.runner import (
    APPS,
    CellSpec,
    ExperimentRunner,
    inputs_for,
    prefetchers_for,
)

#: Environment variable providing the default worker count.
JOBS_ENV = "RNR_JOBS"


def _validate_jobs(value, source: str) -> int:
    """Shared worker-count validator for the explicit-argument and
    ``RNR_JOBS`` paths: must parse as an integer and be >= 1."""
    try:
        jobs = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive integer, got {value!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"{source} must be >= 1, got {jobs}")
    return jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``RNR_JOBS`` > usable CPUs."""
    if jobs is not None:
        return _validate_jobs(jobs, "jobs")
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        return _validate_jobs(env, JOBS_ENV)
    if hasattr(os, "sched_getaffinity"):
        # Under taskset or a cpuset-limited container this is fewer than
        # os.cpu_count(), which would oversubscribe the usable CPUs.
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def full_matrix_specs(runner: ExperimentRunner) -> List[CellSpec]:
    """Every (app, input, prefetcher) cell of Figs 1 and 6-13 plus ideal."""
    specs: List[CellSpec] = []
    for app in APPS:
        for input_name in inputs_for(app):
            specs.append(CellSpec(app, input_name, "baseline"))
            for name in prefetchers_for(app):
                specs.append(CellSpec(app, input_name, name))
            specs.append(CellSpec(app, input_name, "ideal"))
    return specs


def pending_specs(
    runner: ExperimentRunner, specs: Iterable[CellSpec]
) -> List[CellSpec]:
    """The subset of ``specs`` that actually needs simulating.

    Memoized and duplicate cells are dropped; disk-cached cells are loaded
    into the runner's memo here, so a fully warm sweep dispatches no work.
    Shared by the sweep executor and the fabric coordinator.
    """
    pending: List[CellSpec] = []
    seen = set()
    for spec in specs:
        key = runner._result_key(
            spec.app, spec.input_name, spec.prefetcher, spec.mode, spec.window
        )
        if key in runner._results or key in seen:
            continue
        # Telemetry-enabled sweeps re-simulate warm disk cells so every
        # requested cell produces artifacts (see ExperimentRunner.run).
        if runner.cache is not None and runner.telemetry is None:
            window = spec.window if spec.window is not None else runner.window_size
            cached = runner.cache.get(
                runner._cell_key(
                    spec.app, spec.input_name, spec.prefetcher, spec.mode, window
                )
            )
            if cached is not None:
                runner.merge_result(spec, cached)
                continue
        seen.add(key)
        pending.append(spec)
    return pending
