"""Composition of prefetchers.

Section V-D: RnR filters its address ranges out of the conventional stream
prefetcher's training so both can run side by side ("RnR-Combined").  The
composite forwards every hook to each child; the *flag* computed by the
first child that claims an access is passed to all children's training
hooks (this is the packet flag of Fig 4 telling the stream prefetcher to
skip RnR's structures).
"""

from __future__ import annotations

from typing import Sequence

from repro.prefetchers.base import Prefetcher


class CompositePrefetcher(Prefetcher):
    name = "composite"

    def __init__(self, children: Sequence[Prefetcher]):
        super().__init__()
        if not children:
            raise ValueError("composite prefetcher needs at least one child")
        self.children = list(children)
        self.name = "+".join(child.name for child in self.children)

    def attach(self, hierarchy, stats):
        """Bind to a core's hierarchy before simulation."""
        super().attach(hierarchy, stats)
        for child in self.children:
            child.attach(hierarchy, stats)

    def attach_telemetry(self, collector):
        """Forward the collector to every child."""
        super().attach_telemetry(collector)
        for child in self.children:
            child.attach_telemetry(collector)

    def on_access(self, address, pc, cycle, is_store):
        """Demand-reference hook; returns the RnR packet flag."""
        flagged = False
        for child in self.children:
            flagged = child.on_access(address, pc, cycle, is_store) or flagged
        return flagged

    def on_l2_event(self, line_addr, pc, cycle, event, flagged, completion=0):
        """L2 outcome hook (training input)."""
        for child in self.children:
            child.on_l2_event(line_addr, pc, cycle, event, flagged, completion)

    def on_directive(self, op, args, cycle):
        """Software-directive hook (Table I calls)."""
        for child in self.children:
            child.on_directive(op, args, cycle)

    def finalize(self, cycle):
        """End-of-trace hook."""
        for child in self.children:
            child.finalize(cycle)
