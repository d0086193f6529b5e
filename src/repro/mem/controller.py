"""FCFS memory controller (paper Table II).

Behavioural model of ChampSim's controller as the paper configures it:

* a 64-entry read queue and a 32-entry write queue;
* FCFS service order with **demand reads prioritized over prefetch and
  metadata reads** (prefetches see queueing delay proportional to pending
  demand work);
* posted writes with watermark draining — writes buffer silently until the
  queue reaches the high watermark (75 %), then drain down to the low
  watermark (25 %), stealing DRAM bank/bus time from reads (this is how the
  record-iteration metadata write traffic costs ~1 % IPC, Section VII-A.6);
* bank and bus contention from :class:`repro.mem.dram.DramBankModel`.

External timestamps are in core cycles; DRAM internals run in memory-bus
cycles.
"""

from __future__ import annotations

import heapq
from enum import Enum

from repro.config import CoreConfig, MemoryConfig
from repro.mem.dram import DramBankModel


class RequestKind(Enum):
    """Who is asking for the line (drives priority and traffic accounting)."""

    DEMAND = "demand"
    PREFETCH = "prefetch"
    METADATA_READ = "metadata_read"
    METADATA_WRITE = "metadata_write"
    WRITEBACK = "writeback"


_READ_KINDS = (RequestKind.DEMAND, RequestKind.PREFETCH, RequestKind.METADATA_READ)


class MemoryController:
    """Single-channel FCFS controller over a :class:`DramBankModel`."""

    def __init__(self, config: MemoryConfig, core: CoreConfig):
        self._config = config
        self._dram = DramBankModel(config)
        self._ratio = (core.freq_ghz * 1000.0) / config.timing.freq_mhz
        # Outstanding read completions (memory cycles), a bounded queue.
        self._outstanding_reads: list[float] = []
        self._outstanding_demand: list[float] = []
        # Pending (not yet drained) write addresses.
        self._write_queue: list[int] = []
        self._read_queue = config.read_queue
        self._drain_high = max(1, int(config.write_queue * config.drain_high))
        self._drain_low = max(0, int(config.write_queue * config.drain_low))
        self.reads_serviced = 0
        self.writes_serviced = 0

    def reset(self) -> None:
        """Clear all state."""
        self._dram.reset()
        self._outstanding_reads.clear()
        self._outstanding_demand.clear()
        self._write_queue.clear()
        self.reads_serviced = 0
        self.writes_serviced = 0

    # ------------------------------------------------------------------
    # Clock conversion
    # ------------------------------------------------------------------
    def _to_mem(self, core_cycle: int) -> float:
        return core_cycle / self._ratio

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def read(self, address: int, core_cycle: int, kind: RequestKind = RequestKind.DEMAND) -> int:
        """Service a line read; returns the completion time in core cycles."""
        if kind not in _READ_KINDS:
            raise ValueError(f"read() called with non-read kind {kind}")
        # Hot path (one call per LLC miss); times below are in memory
        # cycles until the final conversion.
        ratio = self._ratio
        now = core_cycle / ratio
        reads = self._outstanding_reads
        demand = self._outstanding_demand
        while reads and reads[0] <= now:
            heapq.heappop(reads)
        while demand and demand[0] <= now:
            heapq.heappop(demand)
        if len(reads) < self._read_queue:
            arrival = now
        else:
            arrival = max(now, reads[0])
        if kind is RequestKind.PREFETCH:
            arrival += len(demand) * self._config.timing.tBURST
        completion = self._dram.service(address, int(arrival), is_write=False)
        heapq.heappush(reads, float(completion))
        if kind is RequestKind.DEMAND:
            heapq.heappush(demand, float(completion))
        self.reads_serviced += 1
        return int(completion * ratio) + 1

    def read_demand(self, address: int, core_cycle: int) -> int:
        """Demand-read fast path: :meth:`read` with the kind checks and
        prefetch-priority branches resolved at the call site (identical
        timing for ``kind=DEMAND``).  One call per LLC demand miss."""
        ratio = self._ratio
        now = core_cycle / ratio
        reads = self._outstanding_reads
        demand = self._outstanding_demand
        while reads and reads[0] <= now:
            heapq.heappop(reads)
        while demand and demand[0] <= now:
            heapq.heappop(demand)
        if len(reads) < self._read_queue:
            arrival = now
        else:
            arrival = max(now, reads[0])
        completion = self._dram.service(address, int(arrival), is_write=False)
        completion_f = float(completion)
        heapq.heappush(reads, completion_f)
        heapq.heappush(demand, completion_f)
        self.reads_serviced += 1
        return int(completion * ratio) + 1

    def write(self, address: int, core_cycle: int, kind: RequestKind = RequestKind.WRITEBACK) -> None:
        """Post a line write; drains synchronously past the high watermark."""
        if kind not in (RequestKind.WRITEBACK, RequestKind.METADATA_WRITE):
            raise ValueError(f"write() called with non-write kind {kind}")
        self._write_queue.append(address)
        if len(self._write_queue) >= self._drain_high:
            self._drain(core_cycle)

    def _drain(self, core_cycle: int) -> None:
        """Drain the write queue down to the low watermark.

        Writes are handed to the banks at the drain instant (they overlap
        across banks and only serialize on the data bus), modelling the
        paper's observation that non-temporal metadata stores stay off the
        demand critical path (Section VII-A.6)."""
        now = int(self._to_mem(core_cycle))
        while len(self._write_queue) > self._drain_low:
            address = self._write_queue.pop(0)
            self._dram.service(address, now, is_write=True)
            self.writes_serviced += 1

    def flush_writes(self, core_cycle: int) -> None:
        """Force out all pending writes (end of simulation)."""
        now = int(self._to_mem(core_cycle))
        while self._write_queue:
            address = self._write_queue.pop(0)
            self._dram.service(address, now, is_write=True)
            self.writes_serviced += 1

    @property
    def write_queue_occupancy(self) -> int:
        """Writes buffered and not yet drained."""
        return len(self._write_queue)
