"""Trace-driven simulation engine: one core, or one core of a multicore run.

Couples one :class:`~repro.cpu.core.Core` to a
:class:`~repro.cache.hierarchy.CacheHierarchy` and an attached prefetcher,
interprets embedded RnR directives, and tracks per-phase statistics at the
``iter.begin`` / ``iter.end`` markers the workloads emit.

An optional telemetry :class:`~repro.telemetry.collector.Collector` can
observe the run (interval counter sampling, phase/directive events,
prefetch lifecycle tracing).  The default is the shared null collector:
``collector.enabled`` is checked once per run, and the disabled path
executes the uninstrumented fast loops.

Hot-loop structure (see docs/PERFORMANCE.md for the invariants).
``_loop`` picks one of three loops once per run:

* ``_run_straight`` when the collector is enabled or the backend is
  ``straight`` (``--engine straight`` / ``RNR_ENGINE=straight``): every
  access goes through ``CacheHierarchy.load``/``store``, both prefetcher
  hooks are dispatched, and each entry checks for a telemetry sample
  point.  It is the golden reference the parity suite holds the fast
  loops to;
* otherwise ``_run_slim_fast`` when the prefetcher's per-access hooks are
  the base-class no-ops, else ``_run_hooks_fast``.  The **fast** loops
  inline the L1-hit case: one set-dict probe plus the dict-LRU
  promotion, core bookkeeping, and a deferred hit counter, with no
  ``CacheHierarchy`` call and no result-object traffic.  L1 hit/access
  counters accumulate in loop-local ints and are flushed into
  ``SimStats`` at directives and at the end of the trace, so phase
  accounting still sees exact values.

Each loop is a generator.  Before every trace entry it compares its
core's ``(clock, core index)`` with a limit, and once the clock has
passed the limit it yields the clock and takes the next limit from
``send()``.  ``run`` passes :data:`UNBOUNDED`, which no clock reaches,
so a single-core run never yields;
:class:`~repro.sim.multicore.MulticoreEngine` passes the runner-up
core's key and resumes the same loops in global time order.  Both
engines end a trace with ``_finish``.

Backend selection is shared with the CLI and the multicore engine
through :func:`repro.sim.backend.resolve_engine_backend`.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy, L2Event
from repro.config import LINE_SIZE, SystemConfig
from repro.cpu.core import Core
from repro.mem.controller import MemoryController
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.sim.backend import ENGINE_ENV, resolve_engine_backend
from repro.sim.os_model import apply_switch
from repro.stats import PhaseStats, SimStats
from repro.telemetry.collector import NULL_COLLECTOR, Collector
from repro.trace.record import KIND_DIRECTIVE, KIND_LOAD
from repro.trace.trace import Trace

__all__ = [
    "ENGINE_ENV",
    "SimulationEngine",
    "resolve_engine_backend",
]

#: A loop's ``(clock, core index)`` limit: it yields before the first
#: entry at which its core's key has passed the limit.
Limit = Tuple[int, int]

#: A loop generator: yields its core's clock and is sent the next limit.
Loop = Generator[int, Limit, None]

#: A limit that no core clock reaches: a loop given it runs its whole
#: trace without yielding.
UNBOUNDED: Limit = (1 << 62, 0)


class SimulationEngine:
    """Runs one trace on one core."""

    def __init__(
        self,
        config: SystemConfig,
        prefetcher: Optional[Prefetcher] = None,
        llc: Optional[Cache] = None,
        controller: Optional[MemoryController] = None,
        prefetch_fill_level: str = "l2",
        collector: Optional[Collector] = None,
        engine: Optional[str] = None,
    ):
        # Backend choice: explicit argument wins; None defers to the
        # RNR_ENGINE environment variable at run() time.
        # Validate eagerly so a typo fails at construction, not mid-sweep.
        self._engine_choice = (
            resolve_engine_backend(engine) if engine is not None else None
        )
        self.config = config
        self.stats = SimStats()
        self.controller = (
            controller
            if controller is not None
            else MemoryController(config.memory, config.core)
        )
        self.hierarchy = CacheHierarchy(
            config,
            self.controller,
            self.stats,
            llc=llc,
            prefetch_fill_level=prefetch_fill_level,
        )
        self.core = Core(config.core)
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.prefetcher.attach(self.hierarchy, self.stats)
        self.collector = collector if collector is not None else NULL_COLLECTOR
        if self.collector.enabled:
            self._wire_collector()
        self._phase_stack: list = []

    def _wire_collector(self) -> None:
        """Point the hierarchy/MSHR/prefetcher-side hooks at the collector.

        Only runs for enabled collectors, so a disabled run leaves every
        ``tracer`` / ``on_stall`` / ``telemetry`` attribute None and pays
        nothing on the hot paths.
        """
        tracer = self.collector.tracer
        if tracer is not None:
            hierarchy = self.hierarchy
            hierarchy.tracer = tracer
            for level, cache in (
                ("l1d", hierarchy.l1),
                ("l2", hierarchy.l2),
                ("llc", hierarchy.llc),
            ):
                cache.mshr.on_stall = tracer.mshr_stall_hook(level)
        self.prefetcher.attach_telemetry(self.collector)

    # ------------------------------------------------------------------
    def _begin_phase(self, name: str) -> None:
        traffic = self.stats.traffic
        if self.collector.enabled:
            self.collector.on_phase_begin(name, self.core.cycle)
        self._phase_stack.append(
            (
                name,
                self.core.instructions,
                self.core.cycle,
                self.stats.l2.demand_misses,
                traffic.demand_lines,
                traffic.prefetch_lines,
                traffic.metadata_read_lines + traffic.metadata_write_lines,
            )
        )

    def _end_phase(self, name: str) -> None:
        if not self._phase_stack:
            raise ValueError(f"iter.end({name!r}) without matching iter.begin")
        start_name, instrs, cycles, misses, demand, prefetch, metadata = (
            self._phase_stack.pop()
        )
        if start_name != name:
            raise ValueError(f"phase mismatch: began {start_name!r}, ended {name!r}")
        traffic = self.stats.traffic
        phase = PhaseStats(
            name=name,
            instructions=self.core.instructions - instrs,
            cycles=self.core.cycle - cycles,
            l2_demand_misses=self.stats.l2.demand_misses - misses,
            demand_lines=traffic.demand_lines - demand,
            prefetch_lines=traffic.prefetch_lines - prefetch,
            metadata_lines=traffic.metadata_read_lines
            + traffic.metadata_write_lines
            - metadata,
        )
        self.stats.phases.append(phase)
        if self.collector.enabled:
            self.collector.on_phase_end(name, self.core.cycle, phase)

    def _handle_directive(self, op: str, args: tuple, cycle: int) -> None:
        if op == "iter.begin":
            self._begin_phase(f"iter{args[0]}")
        elif op == "iter.end":
            self._end_phase(f"iter{args[0]}")
        elif op == "os.switch":
            away_cycles, pollution = args
            self.core.cycle = apply_switch(
                self.hierarchy, self.core.cycle, away_cycles, pollution
            )
        if self.collector.enabled:
            self.collector.on_directive(op, args, cycle)
        self.prefetcher.on_directive(op, args, cycle)

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> SimStats:
        """Simulate the full trace; returns the accumulated statistics.

        The loops stream the trace's packed columns (kind, addr, pc, gap)
        and hoist every per-entry bound method into a local, so the
        steady-state cost per reference is the cache model itself rather
        than attribute lookups and record-object construction.  The
        columns may equally be ``memoryview`` windows into an mmap'd
        binary trace file (:class:`repro.trace.binfmt.MappedTrace`) — the
        loops stream those straight from the OS page cache.
        """
        collector = self.collector
        backend = resolve_engine_backend(self._engine_choice)
        if collector.enabled:
            collector.on_run_begin(len(trace), self.stats, self.prefetcher.name)
        # The unbounded limit is never reached, so the loop runs the
        # whole trace without yielding.
        for _ in self._loop(trace, backend):
            pass
        self._finish()
        if collector.enabled:
            collector.on_run_end(self.stats, self.stats.cycles)
        return self.stats

    def _loop(
        self, trace: Trace, backend: str, index: int = 0, limit: Limit = UNBOUNDED
    ) -> Loop:
        """The loop generator for ``trace`` under ``backend`` (the loop
        table in docs/PERFORMANCE.md), as core ``index`` bounded by
        ``limit``."""
        ptype = type(self.prefetcher)
        if self.collector.enabled or backend == "straight":
            return self._run_straight(trace, index, limit)
        if (
            ptype.on_access is Prefetcher.on_access
            and ptype.on_l2_event is Prefetcher.on_l2_event
        ):
            return self._run_slim_fast(trace, index, limit)
        return self._run_hooks_fast(trace, index, limit)

    def _finish(self) -> None:
        """End of the trace: finish the core, then drain the prefetcher
        and the hierarchy at the final cycle."""
        final_cycle = self.core.finish()
        self.prefetcher.finalize(final_cycle)
        self.hierarchy.drain(final_cycle)
        self.stats.instructions = self.core.instructions
        self.stats.cycles = final_cycle

    # ------------------------------------------------------------------
    # Fast loops: inlined L1-hit handling + deferred hit counters
    # ------------------------------------------------------------------
    def _run_slim_fast(self, trace: Trace, index: int, limit: Limit) -> Loop:
        """Base-class (no-op) prefetcher hooks: the leanest loop.

        An L1 hit costs one dict probe, the dict-LRU promotion, and core
        bookkeeping; only misses enter the hierarchy (allocation-free via
        the reusable result object).
        """
        core = self.core
        issue_after = core.issue_after
        advance = core.advance
        retire_load = core.retire_load
        retire_store = core.retire_store
        hierarchy = self.hierarchy
        demand_miss = hierarchy._demand_miss
        sets, num_sets = hierarchy.l1.demand_probe_state()
        l1_latency = hierarchy.l1.config.latency
        l1_stats = self.stats.l1d
        handle_directive = self._handle_directive
        directive_at = trace.directive_at
        kind_directive = KIND_DIRECTIVE
        kind_load = KIND_LOAD
        line_size = LINE_SIZE
        l1_hits = 0
        l1_misses = 0
        limit_clock, limit_index = limit

        for kind, addr, pc, gap in trace.iter_packed():
            clock = core.cycle
            if clock >= limit_clock and (clock > limit_clock or index > limit_index):
                limit_clock, limit_index = yield clock
            if kind == kind_directive:
                if gap:
                    advance(gap)
                if l1_hits or l1_misses:
                    l1_stats.demand_accesses += l1_hits + l1_misses
                    l1_stats.demand_hits += l1_hits
                    l1_stats.demand_misses += l1_misses
                    l1_hits = 0
                    l1_misses = 0
                op, args = directive_at(addr)
                handle_directive(op, args, core.cycle)
                continue
            issue = issue_after(gap)
            line_addr = addr // line_size
            lines = sets[line_addr % num_sets]
            tag = line_addr // num_sets
            line = lines.get(tag)
            if line is not None:
                del lines[tag]
                lines[tag] = line
                l1_hits += 1
                at_l1 = issue + l1_latency
                arrive = line.arrive
                completion = arrive if arrive > at_l1 else at_l1
                if kind == kind_load:
                    retire_load(completion)
                else:
                    line.dirty = True
                    retire_store(completion)
            else:
                l1_misses += 1
                if kind == kind_load:
                    retire_load(
                        demand_miss(
                            line_addr, issue, issue + l1_latency, False
                        ).completion
                    )
                else:
                    retire_store(
                        demand_miss(
                            line_addr, issue, issue + l1_latency, True
                        ).completion
                    )

        if l1_hits or l1_misses:
            l1_stats.demand_accesses += l1_hits + l1_misses
            l1_stats.demand_hits += l1_hits
            l1_stats.demand_misses += l1_misses

    def _run_hooks_fast(self, trace: Trace, index: int, limit: Limit) -> Loop:
        """Real prefetcher hooks, inlined L1-hit handling.

        ``on_access`` still fires for every reference (prefetchers train
        on the full access stream); ``on_l2_event`` only fires when the
        access actually reached the L2, which an L1 hit never does.
        """
        core = self.core
        issue_after = core.issue_after
        advance = core.advance
        retire_load = core.retire_load
        retire_store = core.retire_store
        hierarchy = self.hierarchy
        demand_miss = hierarchy._demand_miss
        sets, num_sets = hierarchy.l1.demand_probe_state()
        l1_latency = hierarchy.l1.config.latency
        l1_stats = self.stats.l1d
        prefetcher = self.prefetcher
        on_access = prefetcher.on_access
        on_l2_event = prefetcher.on_l2_event
        none_event = L2Event.NONE
        handle_directive = self._handle_directive
        directive_at = trace.directive_at
        kind_directive = KIND_DIRECTIVE
        kind_load = KIND_LOAD
        line_size = LINE_SIZE
        l1_hits = 0
        l1_misses = 0
        limit_clock, limit_index = limit

        for kind, addr, pc, gap in trace.iter_packed():
            clock = core.cycle
            if clock >= limit_clock and (clock > limit_clock or index > limit_index):
                limit_clock, limit_index = yield clock
            if kind == kind_directive:
                if gap:
                    advance(gap)
                if l1_hits or l1_misses:
                    l1_stats.demand_accesses += l1_hits + l1_misses
                    l1_stats.demand_hits += l1_hits
                    l1_stats.demand_misses += l1_misses
                    l1_hits = 0
                    l1_misses = 0
                op, args = directive_at(addr)
                handle_directive(op, args, core.cycle)
                continue
            issue = issue_after(gap)
            is_store = kind != kind_load
            flagged = on_access(addr, pc, issue, is_store)
            line_addr = addr // line_size
            lines = sets[line_addr % num_sets]
            tag = line_addr // num_sets
            line = lines.get(tag)
            if line is not None:
                del lines[tag]
                lines[tag] = line
                l1_hits += 1
                at_l1 = issue + l1_latency
                arrive = line.arrive
                completion = arrive if arrive > at_l1 else at_l1
                if is_store:
                    line.dirty = True
                    retire_store(completion)
                else:
                    retire_load(completion)
                continue
            l1_misses += 1
            result = demand_miss(line_addr, issue, issue + l1_latency, is_store)
            completion = result.completion
            if is_store:
                retire_store(completion)
            else:
                retire_load(completion)
            if result.l2_event is not none_event:
                on_l2_event(
                    result.line_addr, pc, issue, result.l2_event, flagged, completion
                )

        if l1_hits or l1_misses:
            l1_stats.demand_accesses += l1_hits + l1_misses
            l1_stats.demand_hits += l1_hits
            l1_stats.demand_misses += l1_misses

    # ------------------------------------------------------------------
    # Straight loop: the pre-fast-path code shape (golden reference)
    # ------------------------------------------------------------------
    def _run_straight(self, trace: Trace, index: int, limit: Limit) -> Loop:
        """Every access through ``load()``/``store()``, both hooks
        dispatched, one sample-point check per entry.

        Serves the ``straight`` backend and every run with an enabled
        collector.  The base hooks are no-ops and the null collector's
        ``next_sample`` is never reached, so the same loop serves
        baseline, hooked and telemetry runs.
        """
        collector = self.collector
        core = self.core
        prefetcher = self.prefetcher
        none_event = L2Event.NONE
        advance = core.advance
        issue_cycle = core.issue_cycle
        retire_load = core.retire_load
        retire_store = core.retire_store
        load = self.hierarchy.load
        store = self.hierarchy.store
        handle_directive = self._handle_directive
        directive_at = trace.directive_at
        kind_directive = KIND_DIRECTIVE
        kind_load = KIND_LOAD
        on_access = prefetcher.on_access
        on_l2_event = prefetcher.on_l2_event
        maybe_sample = collector.maybe_sample
        stats = self.stats
        limit_clock, limit_index = limit
        for kind, addr, pc, gap in trace.iter_packed():
            clock = core.cycle
            if clock >= limit_clock and (clock > limit_clock or index > limit_index):
                limit_clock, limit_index = yield clock
            if gap:
                advance(gap)
            if kind == kind_directive:
                op, args = directive_at(addr)
                handle_directive(op, args, core.cycle)
                continue
            issue = issue_cycle()
            if kind == kind_load:
                flagged = on_access(addr, pc, issue, False)
                result = load(addr, issue)
                retire_load(result.completion)
            else:
                flagged = on_access(addr, pc, issue, True)
                result = store(addr, issue)
                retire_store(result.completion)
            if result.l2_event is not none_event:
                on_l2_event(
                    result.line_addr, pc, issue, result.l2_event, flagged, result.completion
                )
            if core.cycle >= collector.next_sample:
                stats.instructions = core.instructions
                maybe_sample(core.cycle)
