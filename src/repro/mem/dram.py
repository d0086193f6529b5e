"""DRAM bank and data-bus timing model.

Models, per the paper's ChampSim methodology:

* open-row policy per bank — a row-buffer hit costs ``tCL``; a conflict
  costs ``tRP + tRCD + tCL`` (precharge, activate, then CAS);
* data-bus occupancy of ``tBURST`` per transfer with read/write turnaround
  penalties (``tRTW`` / ``tWTR``);
* per-bank busy windows so concurrent requests to different banks overlap
  while same-bank requests serialize (bank contention).

All internal times are in memory-bus cycles; the controller converts to
core cycles at the boundary.
"""

from __future__ import annotations

from repro.config import LINE_SIZE, MemoryConfig
from repro.mem.address import AddressMapping


class _BankState:
    __slots__ = ("open_row", "ready_at")

    def __init__(self) -> None:
        self.open_row = -1
        self.ready_at = 0


class DramBankModel:
    """Timing for the DRAM channels (banks + one data bus per channel).

    Table II configures a single channel; multi-channel configurations
    give each channel its own data bus and bank set, which the bandwidth
    ablation uses to test how much of the reproduction's speedup
    compression is bus-bandwidth-bound (see EXPERIMENTS.md).
    """

    def __init__(self, config: MemoryConfig):
        self._timing = config.timing
        self._banks_per_channel = config.banks * config.ranks
        self._banks = [
            _BankState()
            for _ in range(self._banks_per_channel * config.channels)
        ]
        self._bus_free_at = [0] * config.channels
        self._last_was_write = [False] * config.channels
        self.row_hits = 0
        self.row_conflicts = 0
        # service() scalars, precomputed (one service call per DRAM
        # transfer; each config attribute chase adds up).
        timing = self._timing
        self._tCL = timing.tCL
        self._tRCD_tCL = timing.tRCD + timing.tCL
        self._tRP_tRCD_tCL = timing.tRP + timing.tRCD + timing.tCL
        self._tBURST = timing.tBURST
        self._tWTR = timing.tWTR
        self._tRTW = timing.tRTW
        mapping = AddressMapping(config)
        self._row_bytes = LINE_SIZE * mapping.lines_per_row
        self._map_banks = mapping._banks
        self._map_ranks = mapping._ranks
        self._map_channels = mapping._channels
        self._num_banks = len(self._banks)

    def reset(self) -> None:
        """Clear all state."""
        for bank in self._banks:
            bank.open_row = -1
            bank.ready_at = 0
        self._bus_free_at = [0] * len(self._bus_free_at)
        self._last_was_write = [False] * len(self._last_was_write)
        self.row_hits = 0
        self.row_conflicts = 0

    def service(self, address: int, arrival: int, is_write: bool) -> int:
        """Service one line transfer; returns the completion time.

        ``arrival`` and the result are in memory-bus cycles.
        """
        # Hot path (one call per DRAM transfer): address decode and bank
        # index inlined — same arithmetic as AddressMapping.locate — and
        # every timing/mapping scalar read from the precomputed attrs.
        frame = address // self._row_bytes
        bank_no = frame % self._map_banks
        frame //= self._map_banks
        frame //= self._map_ranks
        channels = self._map_channels
        channel = frame % channels
        row = frame // channels
        bank = self._banks[
            (channel * self._banks_per_channel + bank_no) % self._num_banks
        ]

        ready = bank.ready_at
        start = arrival if arrival > ready else ready
        if bank.open_row == row:
            access_latency = self._tCL
            self.row_hits += 1
        else:
            access_latency = (
                self._tRCD_tCL if bank.open_row < 0 else self._tRP_tRCD_tCL
            )
            self.row_conflicts += 1
            bank.open_row = row

        bus_free_at = self._bus_free_at
        bus_free = bus_free_at[channel]
        data_ready = start + access_latency
        bus_start = data_ready if data_ready > bus_free else bus_free
        last_was_write = self._last_was_write
        if last_was_write[channel] != is_write and bus_free > 0:
            bus_start += self._tWTR if last_was_write[channel] else self._tRTW
        completion = bus_start + self._tBURST

        # The bank is free to activate again once its CAS completes; the
        # queued data waits in the bank's output path for its bus slot.
        bank.ready_at = data_ready
        bus_free_at[channel] = completion
        last_was_write[channel] = is_write
        return completion
