"""Simulation statistics containers.

Every counter that any figure in the paper needs lives here, so the
experiment modules can compute the paper's metrics (speedup, MPKI,
coverage, accuracy, timeliness breakdown, off-chip traffic, storage
overhead) from a single :class:`SimStats` object per run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterator, Tuple


@dataclass
class CacheStats:
    """Per-cache-level demand/prefetch counters."""

    name: str = ""
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0  # demand hits on a prefetched, not-yet-used line
    prefetch_evicted_unused: int = 0
    late_prefetch_hits: int = 0  # demand arrived while prefetch in flight
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        """Demand misses / demand accesses."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses


@dataclass
class PrefetchStats:
    """Prefetcher effectiveness counters (paper Section VII-A)."""

    issued: int = 0
    dropped: int = 0  # already resident and arrived; never sent off-chip
    useful: int = 0  # prefetched line demanded before eviction
    late: int = 0  # issued after the demand access already reached the L2
    early: int = 0  # demanded in its window but evicted before use
    out_of_window: int = 0  # never demanded in the corresponding window

    @property
    def on_time(self) -> int:
        """Useful prefetches issued ahead of their demand access."""
        return self.useful

    @property
    def accuracy(self) -> float:
        """Useful / total issued (paper Section VII-A.3)."""
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued

    def coverage(self, baseline_misses: int) -> float:
        """Useful / total baseline misses (paper Section VII-A.2)."""
        if baseline_misses == 0:
            return 0.0
        return min(1.0, self.useful / baseline_misses)


@dataclass
class TrafficStats:
    """Off-chip traffic decomposition in cache lines (Fig 12)."""

    demand_lines: int = 0
    prefetch_lines: int = 0
    writeback_lines: int = 0
    metadata_read_lines: int = 0
    metadata_write_lines: int = 0

    @property
    def total(self) -> int:
        """Sum of all components."""
        return (
            self.demand_lines
            + self.prefetch_lines
            + self.writeback_lines
            + self.metadata_read_lines
            + self.metadata_write_lines
        )

    @property
    def extra(self) -> int:
        """Traffic beyond demand fetches + writebacks."""
        return self.prefetch_lines + self.metadata_read_lines + self.metadata_write_lines


@dataclass
class RnRStats:
    """RnR-specific bookkeeping (metadata tables, Fig 13)."""

    sequence_entries: int = 0
    division_entries: int = 0
    windows_recorded: int = 0
    struct_reads: int = 0
    tlb_lookups: int = 0
    pauses: int = 0
    resumes: int = 0
    corrupt_entries: int = 0  # malformed metadata entries detected at replay
    windows_skipped: int = 0  # replay windows degraded to no-prefetch

    def storage_bytes(self, seq_entry_bytes: int = 4, div_entry_bytes: int = 8) -> int:
        """Metadata footprint in bytes (Fig 13 numerator)."""
        return (
            self.sequence_entries * seq_entry_bytes
            + self.division_entries * div_entry_bytes
        )


@dataclass
class PhaseStats:
    """Instruction/cycle window for one marked phase (e.g. one iteration)."""

    name: str
    instructions: int = 0
    cycles: int = 0
    l2_demand_misses: int = 0
    demand_lines: int = 0
    prefetch_lines: int = 0
    metadata_lines: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def offchip_lines(self) -> int:
        """All off-chip line transfers attributed to this phase."""
        return self.demand_lines + self.prefetch_lines + self.metadata_lines


@dataclass
class SimStats:
    """All counters for one simulated run (one core or aggregated)."""

    instructions: int = 0
    cycles: int = 0
    phases: list = field(default_factory=list)
    l1d: CacheStats = field(default_factory=lambda: CacheStats("L1D"))
    l2: CacheStats = field(default_factory=lambda: CacheStats("L2"))
    llc: CacheStats = field(default_factory=lambda: CacheStats("LLC"))
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    traffic: TrafficStats = field(default_factory=TrafficStats)
    rnr: RnRStats = field(default_factory=RnRStats)

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def l2_mpki(self) -> float:
        """Demand L2 misses per kilo-instruction (Fig 7)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l2.demand_misses / self.instructions

    def as_dict(self) -> dict:
        """Nested plain-dict form of every counter (JSON-ready).

        This is the one serialization path shared by the telemetry
        interval snapshots and anything else that needs ``SimStats``
        outside the process; :meth:`from_dict` is its
        exact inverse (``SimStats.from_dict(s.as_dict()) == s``).
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SimStats":
        """Rebuild a :class:`SimStats` from :meth:`as_dict` output."""
        stats = cls(
            instructions=payload.get("instructions", 0),
            cycles=payload.get("cycles", 0),
        )
        stats.phases = [PhaseStats(**phase) for phase in payload.get("phases", [])]
        for name, klass in (
            ("l1d", CacheStats),
            ("l2", CacheStats),
            ("llc", CacheStats),
            ("prefetch", PrefetchStats),
            ("traffic", TrafficStats),
            ("rnr", RnRStats),
        ):
            if name in payload:
                setattr(stats, name, klass(**payload[name]))
        return stats

    def iter_counters(self) -> Iterator[Tuple[str, int]]:
        """Flat ``(dotted_name, value)`` pairs for every numeric counter.

        Phase lists and label strings are skipped; the order is stable
        (dataclass field order), so telemetry time-series columns line up
        across snapshots.
        """
        for top in fields(self):
            value = getattr(self, top.name)
            if isinstance(value, (int, float)):
                yield top.name, value
            elif top.name != "phases":
                for sub in fields(value):
                    item = getattr(value, sub.name)
                    if isinstance(item, (int, float)):
                        yield f"{top.name}.{sub.name}", item

    def flat_counters(self) -> Dict[str, int]:
        """:meth:`iter_counters` as a dict (telemetry snapshot form)."""
        return dict(self.iter_counters())

    def merge(self, other: "SimStats") -> None:
        """Accumulate another core's / phase's counters into this one."""
        self.instructions += other.instructions
        self.cycles = max(self.cycles, other.cycles)
        for mine, theirs in (
            (self.l1d, other.l1d),
            (self.l2, other.l2),
            (self.llc, other.llc),
        ):
            mine.demand_accesses += theirs.demand_accesses
            mine.demand_hits += theirs.demand_hits
            mine.demand_misses += theirs.demand_misses
            mine.prefetch_fills += theirs.prefetch_fills
            mine.prefetch_hits += theirs.prefetch_hits
            mine.prefetch_evicted_unused += theirs.prefetch_evicted_unused
            mine.late_prefetch_hits += theirs.late_prefetch_hits
            mine.writebacks += theirs.writebacks
        p, q = self.prefetch, other.prefetch
        p.issued += q.issued
        p.dropped += q.dropped
        p.useful += q.useful
        p.late += q.late
        p.early += q.early
        p.out_of_window += q.out_of_window
        t, u = self.traffic, other.traffic
        t.demand_lines += u.demand_lines
        t.prefetch_lines += u.prefetch_lines
        t.writeback_lines += u.writeback_lines
        t.metadata_read_lines += u.metadata_read_lines
        t.metadata_write_lines += u.metadata_write_lines
        r, s = self.rnr, other.rnr
        r.sequence_entries += s.sequence_entries
        r.division_entries += s.division_entries
        r.windows_recorded += s.windows_recorded
        r.struct_reads += s.struct_reads
        r.tlb_lookups += s.tlb_lookups
        r.pauses += s.pauses
        r.resumes += s.resumes
        r.corrupt_entries += s.corrupt_entries
        r.windows_skipped += s.windows_skipped
