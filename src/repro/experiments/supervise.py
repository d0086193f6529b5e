"""The sweep executor: the cell matrix across supervised worker processes.

Nothing in the (app x input x prefetcher) matrix shares mutable state, so
cells fan out across worker processes.  A plain process pool is brittle,
though: one worker exception, hang, or OOM kill aborts the whole sweep
and discards every finished cell.  This module runs the matrix under the
supervision discipline of a long-running serving stack:

* **per-cell wall-clock timeouts** (``cell_timeout`` argument or
  ``--cell-timeout`` flag) — a hung worker is killed and only its cell
  is charged;
* **bounded retries** (:class:`RetryPolicy`) for transient failures
  (timeouts, crashes, cache corruption); a retried cell rejoins the back
  of the ready queue, and deterministic errors fail immediately;
* **crash isolation** — each worker is a separate process with its own
  result pipe; a dead worker (exception we never saw, signal, OOM kill)
  fails only the cell it was running, and a replacement worker is
  spawned;
* **resume from the cell cache** — the cache is the only record of
  finished work, so re-running an interrupted or partly failed sweep with
  the same cache simulates only the missing cells; a **sweep manifest**
  (:class:`SweepManifest`) next to the cache records each cell's status,
  attempts, duration and failure, written atomically after every event;
* a **failure taxonomy** (:class:`FailureKind`: timeout / crash /
  deterministic error / cache corruption) and a structured end-of-sweep
  report (:meth:`SweepReport.render`).

A worker is given one cell at a time and answers with one result
message, so results finished before a fault are always kept and every
worker stays busy while cells remain.  An idle worker takes the cell
:func:`pick_cell` chooses: one of a workload it has already run (whose
traces its runner holds), else one of a workload no worker holds, else
the head of the queue.  Workers therefore start on distinct (app, input)
pairs, and a worker takes up another worker's workload only when no cell
of its own or of an unstarted workload is ready.

Before dispatch, :func:`pending_specs` drops memoized, disk-cached and
duplicate cells, so a fully warm sweep starts no worker.  The worker
count comes from :func:`resolve_jobs`: the ``jobs`` argument, else the
number of CPUs this process may run on.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.experiments import faults as faults_mod
from repro.experiments.diskcache import DiskCellCache
from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.telemetry.sweep import SweepTelemetry
from repro.trace.store import TraceStore

#: Manifest file name (placed next to the cell cache entries).
MANIFEST_NAME = "sweep-manifest.json"

#: Supervisor poll interval in seconds (timeout/death detection latency).
_POLL_SECONDS = 0.02


class FailureKind:
    """The sweep failure taxonomy."""

    TIMEOUT = "timeout"
    CRASH = "crash"
    ERROR = "error"  # deterministic: the cell's workload raised
    CACHE_CORRUPTION = "cache-corruption"

    #: Kinds worth retrying — the environment may have misbehaved.
    TRANSIENT = frozenset({TIMEOUT, CRASH, CACHE_CORRUPTION})


#: Exit status for a sweep stopped by SIGINT/SIGTERM after a graceful
#: drain (finished cells stay in the cell cache, if one is configured,
#: and a re-run with it continues the sweep).  Distinct from 0 (complete)
#: and 1 (cells failed permanently).
INTERRUPT_EXIT_STATUS = 130


def classify_exception(exc_type_name: str) -> str:
    """Map a worker-side exception type name onto the taxonomy."""
    if exc_type_name == "CacheIntegrityError":
        return FailureKind.CACHE_CORRUPTION
    return FailureKind.ERROR


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: the argument (an integer >= 1), else usable CPUs."""
    if jobs is not None:
        try:
            value = int(jobs)
        except (TypeError, ValueError):
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}") from None
        if value < 1:
            raise ValueError(f"jobs must be >= 1, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        # Under taskset or a cpuset-limited container this is fewer than
        # os.cpu_count(), which would oversubscribe the usable CPUs.
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_cell_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Timeout: the argument (> 0 seconds), else None (no limit)."""
    if timeout is not None and timeout <= 0:
        raise ValueError(f"cell timeout must be > 0 seconds, got {timeout}")
    return timeout


def cell_id(spec: CellSpec) -> str:
    """Stable human-readable manifest id for one cell.

    ``app/input/prefetcher`` plus ``@mode`` when a control mode is set and
    ``/wN`` when the spec overrides the window.
    """
    out = f"{spec.app}/{spec.input_name}/{spec.prefetcher}"
    if spec.mode is not None:
        out += f"@{getattr(spec.mode, 'value', spec.mode)}"
    if spec.window is not None:
        out += f"/w{spec.window}"
    return out


@dataclass
class RetryPolicy:
    """Bounded retries.

    ``retries`` is the number of *re*-attempts after the first try, so a
    cell runs at most ``retries + 1`` times.  Only transient failures
    (:data:`FailureKind.TRANSIENT`) are retried, and without a wait: a
    timed-out or crashed worker is replaced by a new process, and a
    corrupt cache entry is deleted when it is read.
    """

    retries: int = 1

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


@dataclass
class CellFailure:
    """One permanently failed cell."""

    cell: str
    kind: str
    attempts: int
    message: str
    duration: float = 0.0


@dataclass
class SweepReport:
    """Outcome of one supervised sweep."""

    simulated: int = 0
    skipped: int = 0  # distinct cells warm in memo/disk cache before the sweep
    retried: int = 0  # extra attempts beyond the first, across all cells
    duration: float = 0.0
    failures: List[CellFailure] = field(default_factory=list)
    #: Aggregated trace-store counters (supervisor + every worker's
    #: delta), or None when no store was configured.  ``builds == 0``
    #: proves a warm-store sweep rebuilt nothing.
    trace_store: Optional[Dict[str, int]] = None
    #: Aggregated cell-cache counters (supervisor + every worker's
    #: delta), or None when no cache was configured.  A cold cell counts
    #: two ``misses``: the supervisor's probe in :func:`pending_specs` and
    #: the worker's own probe in ``ExperimentRunner.run``.  ``races``
    #: counts concurrent-writer publishes that lost the first-winner
    #: rename (safe; surfaced for observability).
    cell_cache: Optional[Dict[str, int]] = None
    #: The sweep was stopped by SIGINT/SIGTERM.  Cells finished before the
    #: stop are in the cell cache, if one is configured; a re-run with the
    #: same cache simulates only the rest.
    interrupted: bool = False
    #: Worker seconds of every simulated or permanently failed cell,
    #: summed over its attempts (cell id -> seconds).
    cell_seconds: Dict[str, float] = field(default_factory=dict)
    #: Worker processes the sweep ran side by side.
    workers: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted

    def render(self) -> str:
        """The structured end-of-sweep failure report."""
        header = (
            f"sweep: {self.simulated} simulated, {self.skipped} warm, "
            f"{self.retried} retries, "
            f"{len(self.failures)} failed in {self.duration:.1f}s"
        )
        if self.interrupted:
            header += "\nsweep interrupted"
        for store_cls, counters in (
            (TraceStore, self.trace_store),
            (DiskCellCache, self.cell_cache),
        ):
            if counters is not None:
                header += f"\n{store_cls.LABEL}: {store_cls.SUMMARY.format(**counters)}"
        if self.cell_seconds:
            slowest = sorted(
                self.cell_seconds.items(), key=lambda item: (-item[1], item[0])
            )
            capacity = self.workers * self.duration
            busy = sum(self.cell_seconds.values()) / capacity if capacity else 0.0
            header += (
                "\nslowest cells: "
                + ", ".join(f"{cell} {seconds:.1f}s" for cell, seconds in slowest[:3])
                + f"; workers {busy:.0%} busy"
            )
        if not self.failures:
            return header
        lines = [header, "failed cells:"]
        width = max(len(f.cell) for f in self.failures)
        for failure in sorted(self.failures, key=lambda f: f.cell):
            lines.append(
                f"  {failure.cell.ljust(width)}  {failure.kind:<16} "
                f"attempts={failure.attempts}  {failure.message}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class SweepManifest:
    """Atomic JSON record of per-cell sweep status, kept next to the cell
    cache.  The sweep never reads it to skip work: the cache does that.

    One entry per cell id: ``status`` ("done"/"failed"), ``attempts``,
    ``duration_s`` and — for failures — ``kind`` and ``message``.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.cells: Dict[str, dict] = {}

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepManifest":
        """The manifest at ``path``; empty when the file is missing or
        unreadable (cut mid-JSON, bit-flipped, not a manifest)."""
        manifest = cls(path)
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return manifest
        cells = payload.get("cells") if isinstance(payload, dict) else None
        if isinstance(cells, dict):
            manifest.cells = {
                k: v for k, v in cells.items() if isinstance(v, dict) and "status" in v
            }
        return manifest

    def save(self) -> None:
        """Write the manifest atomically (temp file + ``os.replace``)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=".tmp-manifest-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"cells": self.cells}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def mark_done(self, cell: str, attempts: int, duration: float) -> None:
        self.cells[cell] = {
            "status": "done",
            "attempts": attempts,
            "duration_s": round(duration, 3),
        }

    def mark_failed(
        self, cell: str, kind: str, message: str, attempts: int, duration: float
    ) -> None:
        self.cells[cell] = {
            "status": "failed",
            "kind": kind,
            "message": message,
            "attempts": attempts,
            "duration_s": round(duration, 3),
        }


def pending_specs(
    runner: ExperimentRunner, specs: Iterable[CellSpec]
) -> List[CellSpec]:
    """The subset of ``specs`` that actually needs simulating.

    Memoized and duplicate cells are dropped; disk-cached cells are loaded
    into the runner's memo here, so a fully warm sweep dispatches no work.
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


def default_manifest_path(runner: ExperimentRunner) -> Optional[Path]:
    """Next to the cell cache when one is configured, else None."""
    if runner.cache is None:
        return None
    return runner.cache.root / MANIFEST_NAME


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, init_kwargs: dict, fault_plan: dict) -> None:
    """One supervised worker: receive one (spec, attempt) cell at a time,
    answer with a start and a result message, repeat until told to stop."""
    runner = ExperimentRunner(**init_kwargs)
    plan = faults_mod.FaultPlan(fault_plan)
    if runner.telemetry is not None:
        # Live progress: the interval sampler calls this (wall-clock
        # throttled) and the payload rides the result pipe as a
        # ("tel", payload) message about the cell in flight.
        def _heartbeat(payload, _conn=conn):
            try:
                _conn.send(("tel", payload))
            except (OSError, BrokenPipeError, ValueError):
                pass

        runner.telemetry.heartbeat = _heartbeat
    store, cache = runner.trace_store, runner.cache
    try:
        while True:
            cell = conn.recv()
            if cell is None:
                return
            spec, attempt = cell
            conn.send(("start",))
            store_snapshot = store.counters() if store is not None else None
            cache_snapshot = cache.counters() if cache is not None else None
            began = time.perf_counter()
            try:
                plan.fire(cell_id(spec), attempt)
                outcome = ("ok", runner.run_spec(spec))
            except BaseException as exc:  # noqa: BLE001 — reported, not hidden
                name = type(exc).__name__
                outcome = ("err", name, f"{name}: {exc}"[:500])
            # The cell's trace-store and cell-cache counter deltas ride its
            # result so the supervisor can aggregate across workers (a
            # crashed worker's deltas are lost with it — best effort).
            deltas = (
                store.counters_since(store_snapshot) if store is not None else None,
                cache.counters_since(cache_snapshot) if cache is not None else None,
            )
            conn.send((*outcome, time.perf_counter() - began, deltas))
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _Worker:
    """Supervisor-side handle on one worker process."""

    def __init__(self, init_kwargs: dict, fault_plan: dict, wid: int = 0):
        self.wid = wid
        self.conn, child_conn = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, init_kwargs, fault_plan),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        #: The cell in flight, None while idle.
        self.cell: Optional[_CellState] = None
        #: (app, input) pairs this worker has been given; its runner holds
        #: their workloads and traces.
        self.pairs: Set[Tuple[str, str]] = set()
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.cell is not None

    def assign(self, state: _CellState) -> None:
        """Send one cell.  Its timeout is armed by :meth:`arm` when the
        worker reports the start, so forking the worker and building its
        runner never count against the cell."""
        self.conn.send((state.spec, state.attempts + 1))
        self.cell = state
        self.pairs.add((state.spec.app, state.spec.input_name))

    def arm(self, timeout: Optional[float]) -> None:
        self.deadline = (time.monotonic() + timeout) if timeout else None

    def release(self) -> _CellState:
        """Take back the cell in flight: it finished, failed or is charged."""
        state, self.cell, self.deadline = self.cell, None, None
        return state

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.join(timeout=5)
        self._reap()

    def _reap(self) -> None:
        """Last-resort teardown: escalate terminate -> kill until the
        process is actually gone, then close the pipe.  ``join(timeout)``
        alone can return with the process still alive (a zombie once the
        supervisor exits); this never leaves one behind."""
        if self.proc.is_alive():
            try:
                self.proc.terminate()
            except OSError:
                pass
            self.proc.join(timeout=2)
        if self.proc.is_alive():
            try:
                self.proc.kill()
            except OSError:
                pass
            self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Polite shutdown for an idle worker, escalating if it lingers."""
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.proc.join(timeout=5)
        self._reap()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _CellState:
    """Attempt bookkeeping for one pending cell."""

    __slots__ = ("spec", "attempts", "elapsed")

    def __init__(self, spec: CellSpec):
        self.spec = spec
        self.attempts = 0
        self.elapsed = 0.0


def pick_cell(
    ready: List[Tuple[str, str]], own: Set[Tuple[str, str]], held: Set[Tuple[str, str]]
) -> int:
    """Index of the ready cell an idle worker runs next.

    ``ready`` lists the (app, input) pair of each ready cell in queue
    order, ``own`` the pairs this worker has run and ``held`` the pairs
    any live worker has run.  The first cell of one of the worker's own
    pairs wins, since its runner already holds that workload's traces;
    then the first cell of a pair no worker holds, so that workers spread
    over workloads; then the head of the queue.
    """
    unheld = None
    for index, pair in enumerate(ready):
        if pair in own:
            return index
        if unheld is None and pair not in held:
            unheld = index
    return 0 if unheld is None else unheld


def run_supervised_sweep(
    runner: ExperimentRunner,
    specs: Iterable[CellSpec],
    jobs: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[dict] = None,
) -> SweepReport:
    """Run ``specs`` under supervision.

    Completed cells are merged into ``runner``'s memo (and its disk cache,
    written by the workers); permanently failed cells are recorded on the
    runner via :meth:`ExperimentRunner.mark_failed`, in the manifest next
    to the cell cache, and in the returned :class:`SweepReport`.  Cells
    already in the memo or the cell cache are not simulated again, so a
    re-run against the same cache resumes an interrupted sweep.
    """
    began = time.monotonic()
    policy = policy if policy is not None else RetryPolicy()
    cell_timeout = resolve_cell_timeout(cell_timeout)
    jobs = resolve_jobs(jobs)
    report = SweepReport()

    specs = list(specs)
    pending = pending_specs(runner, specs)
    # A spec listed twice is one cell: only distinct cells count as warm.
    distinct = {
        runner._result_key(s.app, s.input_name, s.prefetcher, s.mode, s.window)
        for s in specs
    }
    report.skipped = len(distinct) - len(pending)

    if not pending:
        report.duration = time.monotonic() - began
        if runner.trace_store is not None:
            report.trace_store = runner.trace_store.counters()
        if runner.cache is not None:
            report.cell_cache = runner.cache.counters()
        return report

    manifest_path = default_manifest_path(runner)
    manifest = SweepManifest.load(manifest_path) if manifest_path is not None else None

    # ------------------------------------------------------------------
    # Dispatch state
    # ------------------------------------------------------------------
    ready: List[_CellState] = [_CellState(spec) for spec in pending]
    report.workers = min(jobs, len(pending))

    cache_dir = runner.cache.root if runner.cache is not None else None
    init_kwargs = dict(
        scale=runner.scale,
        iterations=runner.iterations,
        window_size=runner.window_size,
        config=runner.config,
        seed=runner.seed,
        cache_dir=cache_dir,
        telemetry=runner.telemetry,
        trace_store=(
            runner.trace_store.root if runner.trace_store is not None else None
        ),
    )
    fault_plan = dict(faults or {})
    workers: List[_Worker] = []
    next_wid = 0
    sweep_tel = (
        SweepTelemetry(runner.telemetry.root) if runner.telemetry is not None else None
    )

    def complete(state: _CellState, result, duration: float) -> None:
        state.attempts += 1
        state.elapsed += duration
        runner.merge_result(state.spec, result)
        report.simulated += 1
        name = cell_id(state.spec)
        report.cell_seconds[name] = state.elapsed
        if manifest is not None:
            manifest.mark_done(name, state.attempts, state.elapsed)
            manifest.save()

    def fail_or_retry(state: _CellState, kind: str, message: str, duration: float) -> None:
        state.attempts += 1
        state.elapsed += duration
        retryable = kind in FailureKind.TRANSIENT
        if retryable and state.attempts < policy.max_attempts:
            report.retried += 1
            ready.append(state)
            return
        name = cell_id(state.spec)
        failure = CellFailure(name, kind, state.attempts, message, state.elapsed)
        report.failures.append(failure)
        report.cell_seconds[name] = state.elapsed
        runner.mark_failed(state.spec, f"{kind}: {message}")
        if manifest is not None:
            manifest.mark_failed(name, kind, message, state.attempts, state.elapsed)
            manifest.save()

    def handle_message(worker: _Worker, message) -> None:
        """Apply one message about the worker's cell in flight."""
        state = worker.cell
        tag = message[0]
        if tag == "start":
            worker.arm(cell_timeout)
            if sweep_tel is not None:
                sweep_tel.cell_started(
                    worker.wid, cell_id(state.spec), state.attempts + 1
                )
            return
        if tag == "tel":
            if sweep_tel is not None:
                sweep_tel.cell_heartbeat(worker.wid, cell_id(state.spec), message[1])
            return
        worker.release()
        if tag == "ok":
            _, result, duration, (store_delta, cache_delta) = message
            complete(state, result, duration)
            status, text = "done", ""
        else:
            _, exc_name, text, duration, (store_delta, cache_delta) = message
            fail_or_retry(state, classify_exception(exc_name), text, duration)
            status = "failed"
        if store_delta is not None and runner.trace_store is not None:
            runner.trace_store.merge_counters(store_delta)
        if cache_delta is not None and runner.cache is not None:
            runner.cache.merge_counters(cache_delta)
        if sweep_tel is not None:
            sweep_tel.cell_finished(
                worker.wid, cell_id(state.spec), status, state.attempts, duration, text
            )

    def drain(worker: _Worker) -> None:
        """Consume every message a (possibly dead) worker already sent, so
        results that completed before a fault are never discarded."""
        try:
            while worker.conn.poll():
                handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass

    def charge(worker: _Worker, kind: str, message: str) -> None:
        """Fail or retry the cell of a killed or dead worker."""
        state = worker.release()
        if sweep_tel is not None:
            sweep_tel.cell_finished(
                worker.wid, cell_id(state.spec), kind, state.attempts + 1, 0.0,
                f"worker {kind}",
            )
        fail_or_retry(state, kind, message, 0.0)

    def dispatch(worker: _Worker) -> None:
        """Send the idle worker the ready cell :func:`pick_cell` chooses."""
        held = set().union(*(w.pairs for w in workers if w.alive()))
        pairs = [(state.spec.app, state.spec.input_name) for state in ready]
        state = ready.pop(pick_cell(pairs, worker.pairs, held))
        try:
            worker.assign(state)
        except (OSError, BrokenPipeError):
            ready.append(state)

    # SIGTERM (systemd stop, container eviction) behaves like Ctrl-C:
    # stop dispatching, reap workers, flush the manifest, and report
    # interrupted so the CLI can exit with a distinct status.
    import signal as signal_mod

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal_mod.signal(signal_mod.SIGTERM, _sigterm)
    except ValueError:
        pass  # not the main thread; SIGTERM stays at its default

    try:
        while ready or any(w.busy for w in workers):
            # Dispatch to idle workers, then start workers up to ``jobs``.
            for worker in workers:
                if ready and not worker.busy and worker.alive():
                    dispatch(worker)
            while ready and sum(1 for w in workers if w.alive()) < jobs:
                worker = _Worker(init_kwargs, fault_plan, next_wid)
                next_wid += 1
                workers.append(worker)
                dispatch(worker)

            busy = [w for w in workers if w.busy]
            if not busy:
                continue

            # Wait for events from any busy worker.
            conns = {w.conn: w for w in busy if w.alive()}
            if conns:
                timeout = _POLL_SECONDS
                if cell_timeout is not None:
                    deadlines = [w.deadline for w in busy if w.deadline is not None]
                    if deadlines:
                        timeout = min(
                            _POLL_SECONDS, max(0.0, min(deadlines) - time.monotonic())
                        )
                for conn in connection_wait(list(conns), timeout=timeout):
                    drain(conns[conn])  # a death is handled below

            # Timeouts: kill the worker, charge its cell.
            for worker in busy:
                if (
                    worker.deadline is not None
                    and time.monotonic() > worker.deadline
                    and worker.alive()
                ):
                    drain(worker)
                    worker.kill()
                    if worker.busy:
                        charge(
                            worker,
                            FailureKind.TIMEOUT,
                            f"exceeded cell timeout of {cell_timeout}s",
                        )

            # Deaths: keep what the worker sent before dying, charge its
            # cell if it had one, and let a replacement take its slot.
            for worker in [w for w in workers if not w.alive()]:
                drain(worker)
                if worker.busy:
                    charge(
                        worker,
                        FailureKind.CRASH,
                        f"worker process died (exit {worker.proc.exitcode})",
                    )
                try:
                    worker.conn.close()
                except OSError:
                    pass
                workers.remove(worker)
    except KeyboardInterrupt:
        # Graceful drain: everything already committed stays committed
        # (the manifest is flushed after every event); lingering workers
        # are escalation-reaped in the finally block, and the caller sees
        # a distinct interrupted report instead of a traceback.
        report.interrupted = True
    finally:
        if previous_sigterm is not None:
            try:
                signal_mod.signal(signal_mod.SIGTERM, previous_sigterm)
            except ValueError:
                pass
        for worker in workers:
            if worker.alive():
                if worker.busy or report.interrupted:
                    worker.kill()
                else:
                    worker.stop()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass

    report.duration = time.monotonic() - began
    if runner.trace_store is not None:
        report.trace_store = runner.trace_store.counters()
    if runner.cache is not None:
        report.cell_cache = runner.cache.counters()
    if manifest is not None:
        # A stop that landed inside an earlier save left its last event
        # unwritten.
        manifest.save()
    if sweep_tel is not None:
        sweep_tel.write(report)
    return report
