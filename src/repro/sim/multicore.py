"""Lockstep multicore simulation (paper Section V-E / VI).

The paper runs 4-core SPMD workloads: each worker owns a graph partition,
has private L1/L2 and its own per-core RnR state, and shares the LLC and
the memory controller.  This engine interleaves the per-core traces in
global time order: at every step the core with the smallest local clock
consumes its next trace entry, so shared-resource contention (LLC
capacity, DRAM banks/bus, write drains) is modelled in rough cycle order.

Each core is a :class:`~repro.sim.engine.SimulationEngine`, and the
scheduler resumes that engine's own loop generator (the loop ``run``
would pick for it, see :mod:`repro.sim.engine`), so one implementation
of the per-entry rules serves 1 and N cores.  Scheduling is a ``heapq``
k-way merge over ``(clock, core_idx)`` keys.  Popping the minimum hands
the winning core a *run*: its loop consumes trace entries until, before
an entry, its clock has passed the runner-up's key, and then yields.  The
``(clock, idx)`` ordering breaks ties by the lowest core index, and a
core whose loop reaches the end of its trace finishes and drains at once
— the drain order against the shared controller is part of the result.

The backend, resolved once per run through the same resolver as the
single-core engine, applies to every core.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Sequence

from repro.cache.cache import Cache
from repro.config import SystemConfig
from repro.mem.controller import MemoryController
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.sim.engine import UNBOUNDED, SimulationEngine, resolve_engine_backend
from repro.stats import SimStats
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
        backend = resolve_engine_backend(self._engine_choice)

        # Ascending keys already form a heap.
        heap = [(0, idx) for idx, trace in enumerate(traces) if len(trace)]
        loops: List = [None] * len(engines)
        while heap:
            _, idx = heappop(heap)
            limit = heap[0] if heap else UNBOUNDED
            loop = loops[idx]
            try:
                if loop is None:
                    # A generator takes no value through send() before it
                    # has started, so a core's first turn starts its loop.
                    loop = loops[idx] = engines[idx]._loop(
                        traces[idx], backend, idx, limit
                    )
                    clock = next(loop)
                else:
                    clock = loop.send(limit)
            except StopIteration:
                engines[idx]._finish()
                continue
            heappush(heap, (clock, idx))

        return [engine.stats for engine in engines]

    def aggregate(self) -> SimStats:
        """Merged statistics across cores (cycles = slowest core)."""
        total = SimStats()
        for engine in self.engines:
            total.merge(engine.stats)
            total.phases.extend(engine.stats.phases)
        return total
