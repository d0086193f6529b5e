"""The RnR programming interface (paper Table I).

========================  ====================================================
Function                  Explanation
========================  ====================================================
RnR.init()                Set ASID, allocate memory for SequenceTable and
                          DivisionTable, set the default window size
AddrBase.set(addr, size)  Add a base address with its corresponding size
AddrBase.enable(addr)     Enable the address boundary check for addr
AddrBase.disable(addr)    Disable the address boundary check for addr
WindowSize.set(size)      Set a window size different from the default
PrefetchState.start()     Enable RnR, start recording
PrefetchState.replay()    Start replay from the beginning
PrefetchState.end()       Disable RnR
PrefetchState.pause()     Pause recording/replaying
PrefetchState.resume()    Resume from the pause state
RnR.end()                 Free the memory space for metadata
========================  ====================================================

The interface is bound to a :class:`~repro.trace.builder.TraceBuilder` and
an :class:`~repro.trace.address_space.AddressSpace`: each call allocates
real (simulated) memory where needed and emits a directive into the trace,
which the hardware model interprets during simulation — the "light
hardware-software interface" of the paper.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.trace.address_space import AddressSpace, Region
from repro.trace.builder import TraceBuilder


class _AddrBase:
    """The ``AddrBase`` sub-interface."""

    def __init__(self, emit: Callable[..., None]):
        self._emit = emit

    def set(self, region: Region, count: Optional[int] = None) -> None:
        """Register a data structure: ``RnR.AddrBase.set(p, N)``.

        ``count`` (the paper's ``N``) limits the range to the first ``N``
        elements; by default the whole region is covered.
        """
        size = region.size if count is None else count * region.element_size
        if size <= 0 or size > region.size:
            raise ValueError(
                f"AddrBase.set: bad element count {count} for region {region.name}"
            )
        self._emit("rnr.addr_base.set", region.base, size)

    def enable(self, region: Region) -> None:
        self._emit("rnr.addr_base.enable", region.base)

    def disable(self, region: Region) -> None:
        self._emit("rnr.addr_base.disable", region.base)


class _PrefetchState:
    """The ``PrefetchState`` sub-interface."""

    def __init__(self, emit: Callable[..., None]):
        self._emit = emit

    def start(self) -> None:
        self._emit("rnr.state.start")

    def replay(self) -> None:
        self._emit("rnr.state.replay")

    def pause(self) -> None:
        self._emit("rnr.state.pause")

    def resume(self) -> None:
        self._emit("rnr.state.resume")

    def end(self) -> None:
        """Emit ``rnr.state.end``: the prefetcher stops recording or
        replaying and returns to IDLE."""
        self._emit("rnr.state.end")


def _check_window(size: int) -> None:
    if size < 1:
        raise ValueError(f"window size must be >= 1, got {size}")


class _WindowSize:
    def __init__(self, emit: Callable[..., None]):
        self._emit = emit

    def set(self, size: int) -> None:
        _check_window(size)
        self._emit("rnr.window_size.set", size)


class RnRInterface:
    """Programmer-facing handle, one per process."""

    #: Default metadata budget: bytes of sequence table per RnR.init().
    DEFAULT_SEQ_CAPACITY = 8 << 20
    DEFAULT_DIV_CAPACITY = 256 << 10

    def __init__(
        self,
        builder: TraceBuilder,
        space: AddressSpace,
        default_window: int = 16,
        seq_capacity: int = DEFAULT_SEQ_CAPACITY,
        div_capacity: int = DEFAULT_DIV_CAPACITY,
        asid: int = 1,
    ):
        _check_window(default_window)
        self._builder = builder
        self._space = space
        self._default_window = default_window
        self._seq_capacity = seq_capacity
        self._div_capacity = div_capacity
        self._asid = asid
        self._initialized = False
        self._alloc_index = 0
        self.addr_base = _AddrBase(builder.directive)
        self.prefetch_state = _PrefetchState(builder.directive)
        self.window_size = _WindowSize(builder.directive)

    def _emit(self, op: str, *args) -> None:
        self._builder.directive(op, *args)

    # ------------------------------------------------------------------
    def init(self) -> None:
        """``RnR.init()``: allocate metadata memory, set ASID and the
        default window size."""
        if self._initialized:
            raise RuntimeError("RnR.init() called twice without RnR.end()")
        suffix = f"_{self._alloc_index}" if self._alloc_index else ""
        self._seq_region = self._space.alloc(
            f"rnr_seq{suffix}", self._seq_capacity, 1
        )
        self._div_region = self._space.alloc(
            f"rnr_div{suffix}", self._div_capacity, 1
        )
        self._alloc_index += 1
        self._initialized = True
        self._emit(
            "rnr.init",
            self._seq_region.base,
            self._seq_capacity,
            self._div_region.base,
            self._div_capacity,
            self._default_window,
            self._asid,
        )

    def end(self) -> None:
        """``RnR.end()``: free the metadata memory."""
        if not self._initialized:
            raise RuntimeError("RnR.end() without RnR.init()")
        self._space.free(self._seq_region.name)
        self._space.free(self._div_region.name)
        self._initialized = False
        self._emit("rnr.end")

    @property
    def sequence_region(self) -> Region:
        """The allocated SequenceTable memory."""
        return self._seq_region

    @property
    def division_region(self) -> Region:
        """The allocated DivisionTable memory."""
        return self._div_region

    @staticmethod
    def estimate_capacity(
        structure_bytes: int,
        expected_accesses: Optional[int] = None,
        miss_ratio: float = 1.0,
        window_size: int = 16,
        safety_factor: float = 1.5,
        seq_entry_bytes: int = 4,
        div_entry_bytes: int = 8,
    ) -> tuple:
        """Size the metadata allocation for one record iteration.

        Returns ``(sequence_bytes, division_bytes)``.  The sequence table
        needs one entry per recorded L2 miss; an upper bound is one miss
        per structure access (``expected_accesses``, defaulting to one
        access per cache line of the structure) scaled by the expected
        ``miss_ratio``.  The division table needs one word per
        ``window_size`` misses.  ``safety_factor`` covers re-misses from
        cache pressure (Fig 13 shows metadata up to ~22 % of the input
        size for the worst-locality input, well within this bound).
        """
        if structure_bytes <= 0:
            raise ValueError(f"structure_bytes must be positive, got {structure_bytes}")
        if not 0.0 < miss_ratio <= 1.0:
            raise ValueError(f"miss_ratio must be in (0, 1], got {miss_ratio}")
        if expected_accesses is None:
            expected_accesses = max(1, structure_bytes // 64)
        expected_misses = int(expected_accesses * miss_ratio * safety_factor) + 1
        sequence_bytes = expected_misses * seq_entry_bytes
        windows = expected_misses // max(1, window_size) + 2
        division_bytes = windows * div_entry_bytes
        return sequence_bytes, division_bytes
