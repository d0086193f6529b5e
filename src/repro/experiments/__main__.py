"""Command-line reproduction driver.

Usage::

    python -m repro.experiments                # every figure, bench scale
    python -m repro.experiments fig06 fig09    # selected figures
    python -m repro.experiments --scale test   # fast smoke pass
    python -m repro.experiments fig06 --jobs 4 # parallel sweep, 4 workers

Figure names are the keys of ``FIGURES`` (``--help`` lists them).  After
the tables comes one ``claim`` line for each paper claim of a rendered
figure (:mod:`repro.experiments.claims`), reading ``ok``, ``FAILED``,
``unavailable`` or ``bench scale only``; a ``FAILED`` claim makes the run
exit 1.

Every requested figure's cells are simulated by a supervised sweep
(:mod:`repro.experiments.supervise`) across ``--jobs N`` worker processes
(default: the number of CPUs this process may run on); the reports then
render serially from the warm memo.  ``--cache-dir DIR`` persists
finished cells on disk across invocations, so re-running with the same
cache simulates only the cells that are missing.  ``--trace-store DIR``
persists the recorded workload traces themselves: a sweep builds each
trace at most once ever and every worker ``mmap``-loads the packed binary
file instead of rebuilding the stream in Python.  The arguments are the
run's whole configuration; only ``--engine`` falls back to an environment
variable (``RNR_ENGINE``).

``--cell-timeout`` bounds each cell's wall clock and ``--retries`` re-runs
transiently failed cells.  By default (``--strict``) any permanently
failed cell makes the run exit non-zero after printing the failure report;
``--lenient`` renders the figures anyway, with failed cells shown as ``-``
and a footnote.  An interrupted sweep (SIGINT/SIGTERM) drains gracefully
and exits with status 130.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import (
    ablations,
    claims,
    extra_workloads,
    faults as faults_mod,
    fig01_scatter,
    fig06_speedup,
    fig07_mpki,
    fig08_coverage,
    fig09_accuracy,
    fig10_timing_control,
    fig11_timeliness,
    fig12_traffic,
    fig13_storage,
    fig14_window_sweep,
    hw_overhead,
    multicore,
    record_overhead,
    supervise,
)
from repro.experiments.runner import ExperimentRunner
from repro.sim.backend import ENGINE_BACKENDS, ENGINE_ENV, resolve_engine_backend
from repro.telemetry.config import DEFAULT_SAMPLE_INTERVAL, TelemetryConfig
from repro.trace.store import ensure_writable

FIGURES = {
    "fig01": fig01_scatter,
    "fig06": fig06_speedup,
    "fig07": fig07_mpki,
    "fig08": fig08_coverage,
    "fig09": fig09_accuracy,
    "fig10": fig10_timing_control,
    "fig11": fig11_timeliness,
    "fig12": fig12_traffic,
    "fig13": fig13_storage,
    "fig14": fig14_window_sweep,
    "record": record_overhead,
    "hw": hw_overhead,
    "ablations": ablations,
    "extra": extra_workloads,
    "multicore": multicore,
}


def _store_root(parser, flag: str, value):
    """The writable root named by ``flag``, or None when the flag is not
    given; a bad root is a usage error naming the flag."""
    if not value:
        return None
    try:
        return ensure_writable(value)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIG",
        help=f"figures to run (default: all). Known: {', '.join(FIGURES)}",
    )
    parser.add_argument("--scale", default="bench", choices=("bench", "test"))
    parser.add_argument("--window", type=int, default=16, help="RnR window size (>= 1)")
    parser.add_argument(
        "--engine",
        default=None,
        metavar="BACKEND",
        help="simulation engine backend: "
        f"{', '.join(ENGINE_BACKENDS)} (default: ${ENGINE_ENV}, else fast)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep (default: usable CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cell cache directory (default: off)",
    )
    parser.add_argument(
        "--trace-store",
        default=None,
        metavar="DIR",
        help="content-addressed binary trace store: each workload trace is "
        "built at most once and mmap'd by every worker (default: off)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill any cell running longer than this (default: unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="re-attempts for transiently failed cells "
        "(timeout/crash/cache corruption; default: 1)",
    )
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict",
        dest="strict",
        action="store_true",
        default=True,
        help="exit non-zero if any cell failed permanently (default; for CI)",
    )
    strictness.add_argument(
        "--lenient",
        dest="strict",
        action="store_false",
        help="render figures anyway; failed cells show as '-' with a footnote",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="CELL=KIND[:N]",
        help="chaos testing: fault the named cell (kinds: "
        f"{', '.join(faults_mod.FAULT_KINDS)})",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="write per-cell telemetry (events, time series, summaries) "
        "under DIR (default: off)",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=DEFAULT_SAMPLE_INTERVAL,
        metavar="CYCLES",
        help="cycles between time-series samples, with --telemetry-dir "
        f"(default: {DEFAULT_SAMPLE_INTERVAL})",
    )
    parser.add_argument(
        "--trace-events",
        action="store_true",
        help="with --telemetry-dir, also export Chrome trace_event files "
        "loadable in chrome://tracing",
    )
    args = parser.parse_args(argv)

    names = args.figures or list(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {', '.join(unknown)}")
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")

    cache_dir = _store_root(parser, "--cache-dir", args.cache_dir)
    trace_store_dir = _store_root(parser, "--trace-store", args.trace_store)

    try:
        faults = faults_mod.parse_faults(args.inject_fault)
        engine_backend = resolve_engine_backend(args.engine)
        cell_timeout = supervise.resolve_cell_timeout(args.cell_timeout)
        jobs = supervise.resolve_jobs(args.jobs)
        policy = supervise.RetryPolicy(retries=args.retries)
        # Without --telemetry-dir the other telemetry flags are ignored.
        telemetry = (
            TelemetryConfig(args.telemetry_dir, args.sample_interval, args.trace_events)
            if args.telemetry_dir
            else None
        )
    except ValueError as exc:
        parser.error(str(exc))

    # Sweep workers are separate processes; the environment variable is how
    # the chosen backend reaches every SimulationEngine they construct.
    os.environ[ENGINE_ENV] = engine_backend

    runner = ExperimentRunner(
        scale=args.scale,
        window_size=args.window,
        cache_dir=cache_dir,
        lenient=not args.strict,
        telemetry=telemetry,
        trace_store=trace_store_dir,
    )
    start = time.time()

    # Every figure cell is simulated inside the supervised sweep, even with
    # one worker; figures without specs (ablations, extra, multicore, hw)
    # compute inline while they render.
    specs = []
    for name in names:
        if hasattr(FIGURES[name], "specs"):
            specs.extend(FIGURES[name].specs(runner))
    if specs:
        report = supervise.run_supervised_sweep(
            runner,
            specs,
            jobs=jobs,
            cell_timeout=cell_timeout,
            policy=policy,
            faults=faults,
        )
        print(f"[{report.render()}]")
        if report.interrupted:
            # A distinct status lets wrappers tell "stopped" from "failed".
            manifest = supervise.default_manifest_path(runner)
            if manifest is not None:
                print(
                    f"[manifest flushed to {manifest}: re-running with the "
                    "same --cache-dir continues it]"
                )
            return supervise.INTERRUPT_EXIT_STATUS
        if report.failures and args.strict:
            print(
                "strict mode: failing because "
                f"{len(report.failures)} cell(s) could not be produced "
                "(re-run with the same --cache-dir to retry only those, "
                "or --lenient to render partial figures)",
                file=sys.stderr,
            )
            return 1
    if runner.cache is not None:
        print(f"[{runner.cache.describe()}]")
    if runner.trace_store is not None:
        print(f"[{runner.trace_store.describe()}]")
    if runner.telemetry is not None:
        print(f"[telemetry: {runner.telemetry.root}]")
    for name in names:
        began = time.time()
        print(FIGURES[name].report(runner))
        print(f"[{name}: {time.time() - began:.0f}s]")
        print()
    statuses = []
    for claim in claims.CLAIMS:
        if claim.figure in names:
            status, line = claim.check(runner)
            statuses.append(status)
            print(line)
    print(f"total: {time.time() - start:.0f}s")
    return 1 if claims.FAILED in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
