"""Prefetcher interface.

The simulation engine drives prefetchers through four hooks:

* :meth:`Prefetcher.on_access` — every demand reference, *before* the cache
  access.  Returns True if the reference targets a software-marked
  structure (the RnR "flag added to the packet"; always False for pure
  hardware prefetchers).
* :meth:`Prefetcher.on_l2_event` — every reference the L2 actually saw
  (L1 misses), with the L2 outcome.  This is the training input; the
  prefetcher issues prefetches by calling ``hierarchy.prefetch_l2``.
* :meth:`Prefetcher.on_directive` — Table I software calls embedded in the
  trace (ignored by hardware-only prefetchers).
* :meth:`Prefetcher.finalize` — end of trace.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.hierarchy import CacheHierarchy, L2Event
from repro.stats import SimStats


class Prefetcher:
    """Base class: a prefetcher that never prefetches."""

    name = "none"

    def __init__(self) -> None:
        self.hierarchy: Optional[CacheHierarchy] = None
        self.stats: Optional[SimStats] = None
        # Telemetry collector (None unless a run enables telemetry).
        self.telemetry = None

    def attach(self, hierarchy: CacheHierarchy, stats: SimStats) -> None:
        """Bind to one core's hierarchy before simulation starts."""
        self.hierarchy = hierarchy
        self.stats = stats

    def attach_telemetry(self, collector) -> None:
        """Bind an enabled telemetry collector (engine calls this once per
        instrumented run; never called for disabled runs)."""
        self.telemetry = collector

    # -- hooks --------------------------------------------------------------
    def on_access(self, address: int, pc: int, cycle: int, is_store: bool) -> bool:
        """Demand-reference hook; returns the RnR packet flag."""
        return False

    def on_l2_event(
        self,
        line_addr: int,
        pc: int,
        cycle: int,
        event: L2Event,
        flagged: bool,
        completion: int = 0,
    ) -> None:
        """L2 outcome hook (training input)."""
        pass

    def on_directive(self, op: str, args: tuple, cycle: int) -> None:
        """Software-directive hook (Table I calls)."""
        pass

    def finalize(self, cycle: int) -> None:
        """End-of-trace hook."""
        pass

    # -- helpers ------------------------------------------------------------
    def _issue(self, line_addr: int, cycle: int, window: int = -1) -> bool:
        """Issue one L2 prefetch if the line address is sane."""
        if line_addr < 0:
            return False
        assert self.hierarchy is not None, "prefetcher used before attach()"
        tracer = self.hierarchy.tracer
        if tracer is not None:
            tracer.source = self.name
        return self.hierarchy.prefetch_l2(line_addr, cycle, pf_window=window)


class NullPrefetcher(Prefetcher):
    """Explicit no-prefetching baseline."""

    name = "baseline"
