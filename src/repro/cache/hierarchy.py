"""Three-level cache hierarchy (private L1-D, private L2, shared LLC).

The hierarchy implements the paper's methodology:

* demand loads/stores traverse L1 -> L2 -> LLC -> memory, write-allocate,
  writeback, mostly-inclusive (fills populate every level; dirty evictions
  propagate downward);
* **all prefetchers fill into the private L2** (Section VII-A: "all of the
  evaluated prefetchers are prefetching data into the private L2");
* per-line prefetch bits feed usefulness accounting: a demand hit on a
  prefetched line is a *useful* prefetch; if the fill is still in flight it
  is additionally *late*; an eviction before any use reports the line to an
  optional classifier (RnR uses it for the early / out-of-window breakdown
  of Fig 11).
"""

from __future__ import annotations

from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.cache.cache import Cache
from repro.cache.line import CacheLine
from repro.config import LINE_SIZE, SystemConfig
from repro.mem.controller import MemoryController, RequestKind
from repro.stats import SimStats


class L2Event(Enum):
    """What a demand access did at the L2 (prefetcher training input)."""

    NONE = "none"  # L1 hit; the L2 never saw the access
    HIT = "hit"
    PREFETCH_HIT = "prefetch_hit"  # hit on a not-yet-used prefetched line
    MISS = "miss"


class AccessResult:
    """Outcome of one demand access.

    A plain __slots__ class rather than a dataclass: one is built per
    demand access, so construction cost is part of the engine hot loop.
    """

    __slots__ = ("completion", "latency", "l2_event", "line_addr")

    def __init__(
        self, completion: int, latency: int, l2_event: L2Event, line_addr: int
    ):
        self.completion = completion
        self.latency = latency
        self.l2_event = l2_event
        self.line_addr = line_addr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AccessResult(completion={self.completion}, latency={self.latency}, "
            f"l2_event={self.l2_event}, line_addr={self.line_addr:#x})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return (
            self.completion == other.completion
            and self.latency == other.latency
            and self.l2_event == other.l2_event
            and self.line_addr == other.line_addr
        )


# Hoisted enum members: L2Event.X in a hot function body is two dict
# lookups per reference; these module-level bindings are one.
_EVENT_NONE = L2Event.NONE
_EVENT_HIT = L2Event.HIT
_EVENT_PREFETCH_HIT = L2Event.PREFETCH_HIT
_EVENT_MISS = L2Event.MISS
_KIND_PREFETCH = RequestKind.PREFETCH


# Classifier for prefetched lines evicted before use: (line_addr, pf_window)
UnusedPrefetchClassifier = Callable[[int, int], None]


class CacheHierarchy:
    """One core's private L1/L2 plus a (possibly shared) LLC and memory."""

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        stats: SimStats,
        llc: Optional[Cache] = None,
        prefetch_fill_level: str = "l2",
    ):
        if prefetch_fill_level not in ("l2", "llc"):
            raise ValueError(
                f"prefetch_fill_level must be 'l2' or 'llc', got {prefetch_fill_level!r}"
            )
        self.config = config
        self.controller = controller
        self.stats = stats
        self.l1 = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.llc = llc if llc is not None else Cache(config.llc)
        self.unused_prefetch_classifier: Optional[UnusedPrefetchClassifier] = None
        self.prefetch_fill_level = prefetch_fill_level
        # Optional telemetry receiver (repro.telemetry LifecycleTracer).
        # None unless a run's collector is enabled; every hook call below
        # sits off the L1-hit fast path, so disabled runs pay nothing.
        self.tracer = None
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._llc_latency = config.llc.latency
        # Demand hot-path state: one reusable result object, rewritten per
        # access — callers must consume it before the next demand access.
        self._result = AccessResult(0, 0, _EVENT_NONE, 0)
        # MSHR admission is inlined in _demand_miss and prefetch_l2 (same
        # arithmetic as MSHRFile.acquire/register).  The heap lists are
        # mutated in place for the file's whole lifetime (reset() clears,
        # never rebinds), so hoisting them here is safe; stall accounting
        # and the telemetry hook stay on the MSHRFile and are only touched
        # on the (bounded-occupancy) stall branch.
        self._l1_mshr = self.l1.mshr
        self._l2_mshr = self.l2.mshr
        self._llc_mshr = self.llc.mshr
        self._l1_mshr_heap = self._l1_mshr._completions
        self._l2_mshr_heap = self._l2_mshr._completions
        self._llc_mshr_heap = self._llc_mshr._completions
        self._l1_mshr_entries = self._l1_mshr.entries
        self._l2_mshr_entries = self._l2_mshr.entries
        self._llc_mshr_entries = self._llc_mshr.entries
        # Set-dict state for the inlined probes and fills (see
        # Cache.demand_probe_state for the promotion contract).
        self._l1_sets, self._l1_nsets = self.l1.demand_probe_state()
        self._l2_sets, self._l2_nsets = self.l2.demand_probe_state()
        self._llc_sets, self._llc_nsets = self.llc.demand_probe_state()
        self._l1_ways = self.l1.config.ways
        self._l2_ways = self.l2.config.ways
        self._llc_ways = self.llc.config.ways

    # ------------------------------------------------------------------
    # Eviction handlers (dirty propagation + prefetch-bit accounting)
    # ------------------------------------------------------------------
    def _evict_from_l1(self, line_addr: int, victim: CacheLine) -> None:
        if not victim.dirty:
            return
        resident = self.l2.probe(line_addr)
        if resident is not None:
            resident.dirty = True
        else:
            self.l2.fill(line_addr, arrive=0, dirty=True, on_evict=self._evict_from_l2)

    def _evict_from_l2(self, line_addr: int, victim: CacheLine) -> None:
        if victim.prefetched:
            self.stats.l2.prefetch_evicted_unused += 1
            if self.tracer is not None:
                self.tracer.on_prefetch_evicted(line_addr, victim.pf_window)
            if self.unused_prefetch_classifier is not None:
                self.unused_prefetch_classifier(line_addr, victim.pf_window)
        if not victim.dirty:
            return
        resident = self.llc.probe(line_addr)
        if resident is not None:
            resident.dirty = True
        else:
            self.llc.fill(line_addr, arrive=0, dirty=True, on_evict=self._evict_from_llc)

    def _evict_from_llc(self, line_addr: int, victim: CacheLine) -> None:
        if victim.prefetched:
            self.stats.l2.prefetch_evicted_unused += 1
            if self.tracer is not None:
                self.tracer.on_prefetch_evicted(line_addr, victim.pf_window)
            if self.unused_prefetch_classifier is not None:
                self.unused_prefetch_classifier(line_addr, victim.pf_window)
        if victim.dirty:
            self.stats.llc.writebacks += 1
            self.stats.traffic.writeback_lines += 1
            self.controller.write(line_addr * LINE_SIZE, 0, RequestKind.WRITEBACK)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def load(self, address: int, cycle: int) -> AccessResult:
        """Emit one load record.

        Returns a fresh :class:`AccessResult` the caller may keep.  The
        engine's fast loops probe the L1 themselves and call
        :meth:`_demand_miss` directly, which reuses one result object.
        """
        r = self._demand(address, cycle, False)
        return AccessResult(r.completion, r.latency, r.l2_event, r.line_addr)

    def store(self, address: int, cycle: int) -> AccessResult:
        """Emit one store record (fresh result object, see :meth:`load`)."""
        r = self._demand(address, cycle, True)
        return AccessResult(r.completion, r.latency, r.l2_event, r.line_addr)

    def _demand(self, address: int, cycle: int, is_store: bool) -> AccessResult:
        """One demand access; returns the hierarchy's *reusable* result.

        The returned object is overwritten by the next demand access on
        this hierarchy — consume it before then (the engine loops do).
        """
        line_addr = address // LINE_SIZE

        # L1 --------------------------------------------------------------
        l1_stats = self.stats.l1d
        l1_stats.demand_accesses += 1
        l1_line = self.l1.lookup(line_addr)
        at_l1 = cycle + self._l1_latency
        if l1_line is not None:
            l1_stats.demand_hits += 1
            arrive = l1_line.arrive
            completion = arrive if arrive > at_l1 else at_l1
            if is_store:
                l1_line.dirty = True
            result = self._result
            result.completion = completion
            result.latency = completion - cycle
            result.l2_event = _EVENT_NONE
            result.line_addr = line_addr
            return result
        l1_stats.demand_misses += 1
        return self._demand_miss(line_addr, cycle, at_l1, is_store)

    def _demand_miss(
        self, line_addr: int, cycle: int, at_l1: int, is_store: bool
    ) -> AccessResult:
        # Hot path: every self.x.y chain that runs per access is hoisted
        # into a local up front, and the per-level MSHR admission, the
        # L2/LLC set-dict probes and the three fills are inlined (identical
        # arithmetic to MSHRFile.acquire/register, Cache.lookup and
        # Cache.fill); each exit pays only for what it uses.
        #
        # Fill precondition: each fill targets a line known to be absent at
        # its level.  The caller's L1 probe missed, the L2/LLC probes below
        # missed, and nothing between a probe and its fill inserts the line
        # (the eviction handlers only push dirty victims one level down and
        # report unused prefetches).  So the fills are Cache.fill's insert
        # branch alone, and must stay in lockstep with it: the set's first
        # key is the victim, the victim object is recycled with every field
        # reset, and the eviction handler runs between the pop and the
        # insert -- here only when it has work: a dirty L1 victim, or a
        # dirty or prefetched L2/LLC victim.
        stats = self.stats
        l1_heap = self._l1_mshr_heap
        while l1_heap and l1_heap[0] <= at_l1:
            heappop(l1_heap)
        if len(l1_heap) >= self._l1_mshr_entries:
            mshr = self._l1_mshr
            delayed = heappop(l1_heap)
            mshr.stalls += 1
            if mshr.on_stall is not None:
                mshr.on_stall(at_l1, delayed)
            l1_issue = at_l1 if at_l1 > delayed else delayed
        else:
            l1_issue = at_l1

        # L2 --------------------------------------------------------------
        l2_stats = stats.l2
        l2_stats.demand_accesses += 1
        l2_nsets = self._l2_nsets
        l2_set = line_addr % l2_nsets
        l2_lines = self._l2_sets[l2_set]
        l2_tag = line_addr // l2_nsets
        l2_line = l2_lines.get(l2_tag)
        at_l2 = l1_issue + self._l2_latency
        if l2_line is not None:
            del l2_lines[l2_tag]
            l2_lines[l2_tag] = l2_line
            event = _EVENT_HIT
            arrive = l2_line.arrive
            completion = arrive if arrive > at_l2 else at_l2
            if l2_line.prefetched:
                # First demand touch of a prefetched line.  If the fill is
                # still in flight the demand merges with it (partial latency
                # hiding); the prefetch was still issued before the demand,
                # so it counts as useful/on-time per the paper's definition.
                stats.prefetch.useful += 1
                l2_stats.prefetch_hits += 1
                event = _EVENT_PREFETCH_HIT
                if arrive > at_l2:
                    l2_stats.late_prefetch_hits += 1
                if self.tracer is not None:
                    self.tracer.on_prefetch_hit(
                        line_addr, at_l2, arrive, l2_line.pf_window
                    )
                l2_line.prefetched = False
                l2_line.pf_window = -1
            l2_stats.demand_hits += 1
            heappush(l1_heap, completion)
        else:
            l2_stats.demand_misses += 1

            # LLC -----------------------------------------------------------
            llc_stats = stats.llc
            l2_heap = self._l2_mshr_heap
            while l2_heap and l2_heap[0] <= at_l2:
                heappop(l2_heap)
            if len(l2_heap) >= self._l2_mshr_entries:
                mshr = self._l2_mshr
                delayed = heappop(l2_heap)
                mshr.stalls += 1
                if mshr.on_stall is not None:
                    mshr.on_stall(at_l2, delayed)
                issue = at_l2 if at_l2 > delayed else delayed
            else:
                issue = at_l2
            llc_stats.demand_accesses += 1
            llc_nsets = self._llc_nsets
            llc_set = line_addr % llc_nsets
            llc_lines = self._llc_sets[llc_set]
            llc_tag = line_addr // llc_nsets
            llc_line = llc_lines.get(llc_tag)
            at_llc = issue + self._llc_latency
            if llc_line is not None:
                del llc_lines[llc_tag]
                llc_lines[llc_tag] = llc_line
                llc_stats.demand_hits += 1
                arrive = llc_line.arrive
                completion = arrive if arrive > at_llc else at_llc
                if llc_line.prefetched:
                    # LLC-destination prefetching (the Section III ablation):
                    # first demand touch of an LLC-resident prefetched line.
                    stats.prefetch.useful += 1
                    if self.tracer is not None:
                        self.tracer.on_prefetch_hit(
                            line_addr, at_llc, arrive, llc_line.pf_window
                        )
                    llc_line.prefetched = False
                    llc_line.pf_window = -1
            else:
                llc_stats.demand_misses += 1
                llc_heap = self._llc_mshr_heap
                while llc_heap and llc_heap[0] <= at_llc:
                    heappop(llc_heap)
                if len(llc_heap) >= self._llc_mshr_entries:
                    mshr = self._llc_mshr
                    delayed = heappop(llc_heap)
                    mshr.stalls += 1
                    if mshr.on_stall is not None:
                        mshr.on_stall(at_llc, delayed)
                    mem_issue = at_llc if at_llc > delayed else delayed
                else:
                    mem_issue = at_llc
                completion = self.controller.read_demand(
                    line_addr * LINE_SIZE, mem_issue
                )
                stats.traffic.demand_lines += 1
                heappush(llc_heap, completion)
                # LLC fill (line absent: the lookup above missed).
                if len(llc_lines) >= self._llc_ways:
                    victim_tag = next(iter(llc_lines))
                    victim = llc_lines.pop(victim_tag)
                    if victim.dirty or victim.prefetched:
                        self._evict_from_llc(victim_tag * llc_nsets + llc_set, victim)
                    victim.tag = llc_tag
                    victim.dirty = False
                    victim.prefetched = False
                    victim.pf_window = -1
                    victim.arrive = completion
                    llc_lines[llc_tag] = victim
                else:
                    llc_lines[llc_tag] = CacheLine(llc_tag, completion)
            heappush(l1_heap, completion)
            heappush(l2_heap, completion)
            # L2 fill (line absent: the probe above missed).
            if len(l2_lines) >= self._l2_ways:
                victim_tag = next(iter(l2_lines))
                victim = l2_lines.pop(victim_tag)
                if victim.dirty or victim.prefetched:
                    self._evict_from_l2(victim_tag * l2_nsets + l2_set, victim)
                victim.tag = l2_tag
                victim.dirty = False
                victim.prefetched = False
                victim.pf_window = -1
                victim.arrive = completion
                l2_lines[l2_tag] = victim
            else:
                l2_lines[l2_tag] = CacheLine(l2_tag, completion)
            event = _EVENT_MISS

        # L1 fill (line absent: the caller's probe missed) ----------------
        l1_nsets = self._l1_nsets
        l1_set = line_addr % l1_nsets
        l1_lines = self._l1_sets[l1_set]
        l1_tag = line_addr // l1_nsets
        if len(l1_lines) >= self._l1_ways:
            victim_tag = next(iter(l1_lines))
            victim = l1_lines.pop(victim_tag)
            if victim.dirty:
                self._evict_from_l1(victim_tag * l1_nsets + l1_set, victim)
            victim.tag = l1_tag
            victim.dirty = is_store
            victim.prefetched = False
            victim.pf_window = -1
            victim.arrive = completion
            l1_lines[l1_tag] = victim
        else:
            line = CacheLine(l1_tag, completion)
            line.dirty = is_store
            l1_lines[l1_tag] = line
        result = self._result
        result.completion = completion
        result.latency = completion - cycle
        result.l2_event = event
        result.line_addr = line_addr
        return result

    # ------------------------------------------------------------------
    # Prefetch path (fills into private L2, paper Section III)
    # ------------------------------------------------------------------
    def prefetch_l2(self, line_addr: int, cycle: int, pf_window: int = -1) -> bool:
        """Issue one prefetch for ``line_addr`` into the configured fill
        level (private L2 by default, Section III; LLC for the ablation).

        Returns True if the prefetch went out (i.e. the line was not already
        resident in or in flight to the destination).
        """
        if self.prefetch_fill_level == "llc":
            return self._prefetch_llc(line_addr, cycle, pf_window)
        # Hot path (one call per RnR replayed line): the L2 probe, the LLC
        # lookup and promotion, the LLC MSHR admission and both fills are
        # inlined as in _demand_miss, under the same fill precondition --
        # the probe and the lookup below prove the line absent at each
        # level before it is filled there.
        stats = self.stats
        tracer = self.tracer
        l2_nsets = self._l2_nsets
        l2_set = line_addr % l2_nsets
        l2_lines = self._l2_sets[l2_set]
        l2_tag = line_addr // l2_nsets
        resident = l2_lines.get(l2_tag)
        if resident is not None:
            if resident.arrive > cycle and not resident.prefetched:
                # A demand miss to this line is already outstanding: the
                # prefetch was issued *later than the access arrived at
                # the L2* — the paper's "late prefetch" category.
                stats.prefetch.issued += 1
                stats.prefetch.late += 1
                if tracer is not None:
                    tracer.on_prefetch_issued(
                        line_addr, cycle, resident.arrive, pf_window, sent=False
                    )
            else:
                stats.prefetch.dropped += 1
                if tracer is not None:
                    tracer.on_prefetch_dropped(line_addr, cycle, pf_window)
            return False
        stats.prefetch.issued += 1
        llc_nsets = self._llc_nsets
        llc_set = line_addr % llc_nsets
        llc_lines = self._llc_sets[llc_set]
        llc_tag = line_addr // llc_nsets
        llc_line = llc_lines.get(llc_tag)
        at_llc = cycle + self._llc_latency
        if llc_line is not None:
            del llc_lines[llc_tag]
            llc_lines[llc_tag] = llc_line
            arrive = llc_line.arrive
            completion = arrive if arrive > at_llc else at_llc
        else:
            llc_heap = self._llc_mshr_heap
            while llc_heap and llc_heap[0] <= at_llc:
                heappop(llc_heap)
            if len(llc_heap) >= self._llc_mshr_entries:
                mshr = self._llc_mshr
                delayed = heappop(llc_heap)
                mshr.stalls += 1
                if mshr.on_stall is not None:
                    mshr.on_stall(at_llc, delayed)
                mem_issue = at_llc if at_llc > delayed else delayed
            else:
                mem_issue = at_llc
            completion = self.controller.read(
                line_addr * LINE_SIZE, mem_issue, _KIND_PREFETCH
            )
            stats.traffic.prefetch_lines += 1
            heappush(llc_heap, completion)
            # LLC fill (line absent: the lookup above missed).
            if len(llc_lines) >= self._llc_ways:
                victim_tag = next(iter(llc_lines))
                victim = llc_lines.pop(victim_tag)
                if victim.dirty or victim.prefetched:
                    self._evict_from_llc(victim_tag * llc_nsets + llc_set, victim)
                victim.tag = llc_tag
                victim.dirty = False
                victim.prefetched = False
                victim.pf_window = -1
                victim.arrive = completion
                llc_lines[llc_tag] = victim
            else:
                llc_lines[llc_tag] = CacheLine(llc_tag, completion)
        if tracer is not None:
            tracer.on_prefetch_issued(line_addr, cycle, completion, pf_window, sent=True)
        # L2 fill (line absent: the probe above missed).
        if len(l2_lines) >= self._l2_ways:
            victim_tag = next(iter(l2_lines))
            victim = l2_lines.pop(victim_tag)
            if victim.dirty or victim.prefetched:
                self._evict_from_l2(victim_tag * l2_nsets + l2_set, victim)
            line = victim
            line.tag = l2_tag
            line.dirty = False
            line.arrive = completion
        else:
            line = CacheLine(l2_tag, completion)
        line.prefetched = True
        line.pf_window = pf_window
        l2_lines[l2_tag] = line
        stats.l2.prefetch_fills += 1
        return True

    def _prefetch_llc(self, line_addr: int, cycle: int, pf_window: int) -> bool:
        """Ablation fill destination: prefetch into the shared LLC only.

        Demand still misses the L2 but hits the (warmed) LLC — the paper's
        Section III alternative, rejected there because the extra 42-cycle
        hop squanders most of the latency hiding.  The tracer sees the
        same issue, late-issue and drop events as :meth:`prefetch_l2`."""
        stats = self.stats
        tracer = self.tracer
        if self.l2.probe(line_addr) is not None:
            stats.prefetch.dropped += 1
            if tracer is not None:
                tracer.on_prefetch_dropped(line_addr, cycle, pf_window)
            return False
        resident = self.llc.probe(line_addr)
        if resident is not None:
            if resident.arrive > cycle and not resident.prefetched:
                stats.prefetch.issued += 1
                stats.prefetch.late += 1
                if tracer is not None:
                    tracer.on_prefetch_issued(
                        line_addr, cycle, resident.arrive, pf_window, sent=False
                    )
            else:
                stats.prefetch.dropped += 1
                if tracer is not None:
                    tracer.on_prefetch_dropped(line_addr, cycle, pf_window)
            return False
        stats.prefetch.issued += 1
        at_llc = cycle + self._llc_latency
        mem_issue = self.llc.mshr.acquire(at_llc)
        completion = self.controller.read(line_addr * LINE_SIZE, mem_issue, _KIND_PREFETCH)
        stats.traffic.prefetch_lines += 1
        self.llc.mshr.register(completion)
        if tracer is not None:
            tracer.on_prefetch_issued(line_addr, cycle, completion, pf_window, sent=True)
        self.llc.fill(
            line_addr,
            arrive=completion,
            prefetched=True,
            pf_window=pf_window,
            on_evict=self._evict_from_llc,
        )
        return True

    # ------------------------------------------------------------------
    def metadata_read(self, address: int, cycle: int) -> int:
        """Stream in one line of prefetcher metadata (bypasses the caches,
        Section VII-A.7: 'the metadata are not stored in cache')."""
        completion = self.controller.read(address, cycle, RequestKind.METADATA_READ)
        self.stats.traffic.metadata_read_lines += 1
        return completion

    def metadata_write(self, address: int, cycle: int) -> None:
        """Stream out one line of prefetcher metadata (posted write)."""
        self.controller.write(address, cycle, RequestKind.METADATA_WRITE)
        self.stats.traffic.metadata_write_lines += 1

    def drain(self, cycle: int) -> None:
        """End-of-run cleanup: flush posted writes, count resident unused
        prefetches as never-used."""
        self.controller.flush_writes(cycle)
        for cache in (self.l2, self.llc):
            for line_addr, line in cache.resident_lines():
                if line.prefetched:
                    self.stats.l2.prefetch_evicted_unused += 1
                    if self.tracer is not None:
                        self.tracer.on_prefetch_evicted(line_addr, line.pf_window)
                    if self.unused_prefetch_classifier is not None:
                        self.unused_prefetch_classifier(line_addr, line.pf_window)
