"""Lockstep multicore simulation (paper Section V-E / VI).

The paper runs 4-core SPMD workloads: each worker owns a graph partition,
has private L1/L2 and its own per-core RnR state, and shares the LLC and
the memory controller.  This engine interleaves the per-core traces in
global time order: at every step the core with the smallest local clock
consumes its next trace entry, so shared-resource contention (LLC
capacity, DRAM banks/bus, write drains) is modelled in rough cycle order.

Scheduling is a ``heapq`` k-way merge over ``(clock, core_idx)`` keys.
Popping the minimum hands the winning core a *run*: it keeps consuming
trace entries until its clock passes the runner-up's ``(clock, idx)``
key, so the per-entry cost is one tuple comparison instead of a heap
operation (let alone the O(cores) ``min()`` scan this replaces).  The
``(clock, idx)`` ordering reproduces the previous scheduler's tie-break
(lowest core index first) exactly, and a core that exhausts its trace is
finished/drained immediately — in the same shared-controller order as
the one-entry-at-a-time scheduler — so results are bit-identical.

Per-core traces stream through ``iter_packed()``, so a store-served
binary trace runs straight off its mmap.  The backend, resolved once per
run through the same resolver as the single-core engine, applies to
every core: under ``fast`` each core takes the engine's inlined L1-hit
path (see :mod:`repro.sim.engine`), under ``straight`` every access goes
through ``CacheHierarchy.load``/``store``.  A core whose prefetcher
keeps the base no-op hooks skips hook dispatch under either backend.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from repro.cache.cache import Cache
from repro.cache.hierarchy import L2Event
from repro.config import LINE_SIZE, SystemConfig
from repro.mem.controller import MemoryController
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.sim.engine import SimulationEngine, resolve_engine_backend
from repro.stats import SimStats
from repro.trace.record import KIND_DIRECTIVE, KIND_LOAD
from repro.trace.trace import Trace


class MulticoreEngine:
    """Runs one trace per core against a shared LLC + memory controller."""

    def __init__(
        self,
        config: SystemConfig,
        prefetchers: Optional[Sequence[Optional[Prefetcher]]] = None,
        engine: Optional[str] = None,
    ):
        # Backend choice mirrors SimulationEngine: explicit argument wins,
        # None defers to RNR_ENGINE at run() time; validate eagerly so a
        # typo fails at construction.
        self._engine_choice = (
            resolve_engine_backend(engine) if engine is not None else None
        )
        self.config = config
        self.controller = MemoryController(config.memory, config.core)
        self.shared_llc = Cache(config.llc)
        cores = config.cores
        if prefetchers is None:
            prefetchers = [None] * cores
        if len(prefetchers) != cores:
            raise ValueError(
                f"need {cores} prefetchers (or None), got {len(prefetchers)}"
            )
        self.engines: List[SimulationEngine] = [
            SimulationEngine(
                config,
                prefetcher=prefetchers[i] if prefetchers[i] is not None else NullPrefetcher(),
                llc=self.shared_llc,
                controller=self.controller,
            )
            for i in range(cores)
        ]

    # ------------------------------------------------------------------
    def run(self, traces: Sequence[Trace]) -> List[SimStats]:
        """Interleave per-core traces by local core time.

        Each element of ``traces`` is a :class:`Trace` (a mmap-backed
        :class:`~repro.trace.binfmt.MappedTrace` is one).  A core whose
        trace is empty never runs and keeps zeroed statistics.
        """
        engines = self.engines
        if len(traces) != len(engines):
            raise ValueError(f"need {len(engines)} traces, got {len(traces)}")

        none_event = L2Event.NONE
        kind_directive = KIND_DIRECTIVE
        kind_load = KIND_LOAD
        line_size = LINE_SIZE
        fast = resolve_engine_backend(self._engine_choice) != "straight"

        # Per-core scheduler state, indexed by core number.  ``state``
        # holds every per-entry binding hoisted once per core, so run
        # consumption only rebinds locals when the scheduler actually
        # switches cores.
        iters: List = []
        entries: List = []
        hits: List[int] = []
        misses: List[int] = []
        state: List = []
        heap: List = []
        for idx, trace in enumerate(traces):
            if len(trace) == 0:
                # A core with no trace never runs, never finishes, and
                # keeps zeroed stats (matches the previous scheduler).
                iters.append(None)
                entries.append(None)
                hits.append(0)
                misses.append(0)
                state.append(None)
                continue
            engine = engines[idx]
            core = engine.core
            hierarchy = engine.hierarchy
            prefetcher = engine.prefetcher
            ptype = type(prefetcher)
            # Slim cores (base-class no-op hooks, e.g. NullPrefetcher)
            # skip hook dispatch entirely; None marks them in the state.
            slim = (
                ptype.on_access is Prefetcher.on_access
                and ptype.on_l2_event is Prefetcher.on_l2_event
            )
            sets, num_sets = hierarchy.l1.demand_probe_state()
            it = trace.iter_packed()
            it_next = it.__next__
            state.append(
                (
                    core,
                    engine,
                    core.issue_after,
                    core.advance,
                    core.retire_load,
                    core.retire_store,
                    engine._handle_directive,
                    trace.directive_at,
                    hierarchy._demand_miss,
                    hierarchy.load,
                    hierarchy.store,
                    None if slim else prefetcher.on_access,
                    None if slim else prefetcher.on_l2_event,
                    sets,
                    num_sets,
                    hierarchy.l1.config.latency,
                    engine.stats.l1d,
                )
            )
            iters.append(it_next)
            entries.append(it_next())
            hits.append(0)
            misses.append(0)
            heap.append((0, idx))

        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop

        while heap:
            _, idx = heappop(heap)
            (
                core,
                engine,
                issue_after,
                advance,
                retire_load,
                retire_store,
                handle_directive,
                directive_at,
                demand_miss,
                load,
                store,
                on_access,
                on_l2_event,
                sets,
                num_sets,
                l1_latency,
                l1_stats,
            ) = state[idx]
            it_next = iters[idx]
            entry = entries[idx]
            l1_hits = hits[idx]
            l1_misses = misses[idx]
            if heap:
                limit_clock, limit_idx = heap[0]
                bounded = True
            else:
                bounded = False
            while True:
                kind, addr, pc, gap = entry
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
                elif fast:
                    issue = issue_after(gap)
                    is_store = kind != kind_load
                    if on_access is not None:
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
                    else:
                        l1_misses += 1
                        result = demand_miss(
                            line_addr, issue, issue + l1_latency, is_store
                        )
                        completion = result.completion
                        if is_store:
                            retire_store(completion)
                        else:
                            retire_load(completion)
                        if (
                            on_l2_event is not None
                            and result.l2_event is not none_event
                        ):
                            on_l2_event(
                                result.line_addr,
                                pc,
                                issue,
                                result.l2_event,
                                flagged,
                                completion,
                            )
                else:
                    issue = issue_after(gap)
                    is_store = kind != kind_load
                    flagged = (
                        on_access(addr, pc, issue, is_store)
                        if on_access is not None
                        else False
                    )
                    if is_store:
                        result = store(addr, issue)
                        retire_store(result.completion)
                    else:
                        result = load(addr, issue)
                        retire_load(result.completion)
                    if (
                        on_l2_event is not None
                        and result.l2_event is not none_event
                    ):
                        on_l2_event(
                            result.line_addr,
                            pc,
                            issue,
                            result.l2_event,
                            flagged,
                            result.completion,
                        )

                try:
                    entry = it_next()
                except StopIteration:
                    # Trace exhausted: finish immediately — the drain
                    # order against the shared controller is part of
                    # the simulated result.
                    if l1_hits or l1_misses:
                        l1_stats.demand_accesses += l1_hits + l1_misses
                        l1_stats.demand_hits += l1_hits
                        l1_stats.demand_misses += l1_misses
                    final = core.finish()
                    engine.prefetcher.finalize(final)
                    engine.hierarchy.drain(final)
                    engine.stats.instructions = core.instructions
                    engine.stats.cycles = final
                    state[idx] = None
                    iters[idx] = None
                    entries[idx] = None
                    break
                if bounded:
                    c = core.cycle
                    if c > limit_clock or (c == limit_clock and idx > limit_idx):
                        entries[idx] = entry
                        hits[idx] = l1_hits
                        misses[idx] = l1_misses
                        heappush(heap, (c, idx))
                        break

        return [eng.stats for eng in engines]

    def aggregate(self) -> SimStats:
        """Merged statistics across cores (cycles = slowest core)."""
        total = SimStats()
        for engine in self.engines:
            total.merge(engine.stats)
            total.phases.extend(engine.stats.phases)
        return total
