"""Workload base class: address-space layout, trace-emission helpers, and
the record/replay iteration protocol shared by all three applications.

Trace compression
-----------------
Pure streaming accesses (reading the edge array, the CSR value array, a
dense vector in order) touch every element, but only the first touch of
each cache line reaches the L2 — the rest are L1 hits that carry no
information for any L2-trained prefetcher.  A :class:`StreamCursor`
therefore emits a reference only when a touch enters a different line
from that cursor's previous touch, and charges every other touch as gap
instructions, which keeps instruction counts (and thus IPC/MPKI
denominators) faithful while cutting trace length ~8-16x.  Irregular
gathers — the access patterns this paper is about — are :class:`Gather`
columns, emitted per element.

Block emission
--------------
No kernel loop runs element by element.  Each loop shape has one helper
that lays out, in numpy, the touches the loop makes in program order —
:func:`emit_rows` for CSR row loops, :func:`emit_interleaved` for flat
loops, :func:`emit_stream` for whole-array sweeps — and appends the
emitted references to the builder one bounded block at a time
(:meth:`TraceBuilder.extend`).  A cursor touch charges ``work``
instructions and emits when its line differs from the cursor's previous
touch, and otherwise charges ``work + 1``; a gather charges ``work`` and
always emits; each reference's gap is the sum of the charges since the
previous reference.  The traces are byte-identical to the per-element
loops, which the tests keep as the oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import LINE_SIZE
from repro.rnr.api import RnRInterface
from repro.trace.address_space import AddressSpace, Region
from repro.trace.builder import TraceBuilder
from repro.trace.record import KIND_LOAD, KIND_STORE
from repro.trace.trace import Trace

#: Touches laid out per block.  Bounding blocks by touch count, not rows,
#: keeps the scratch arrays small on skewed inputs too.  The size moves
#: peak RSS by a few percent through the heap malloc keeps afterwards
#: (docs/PERFORMANCE.md, "Block trace emission").
BLOCK_TOUCHES = 1 << 13


def _element_addrs(region: Region, indices) -> np.ndarray:
    """Byte addresses of elements ``indices`` of ``region`` (int64).

    Raises ``IndexError`` on an out-of-range index, as ``Region.addr``
    does.
    """
    indices = np.asarray(indices, dtype=np.int64)
    offsets = indices * region.element_size
    if offsets.size and (offsets.min() < 0 or offsets.max() >= region.size):
        bad = (offsets < 0) | (offsets >= region.size)
        region.addr(int(indices[bad.argmax()]))
    offsets += region.base
    return offsets


class StreamCursor:
    """Line-compressed touches of one array, interleaved with other
    accesses (e.g. the CSR targets array walked while gathers happen).

    A touch emits a reference when it enters a different cache line from
    this cursor's previous touch, and otherwise only charges its work.
    """

    def __init__(
        self,
        region: Region,
        pc: int,
        work_per_elem: int = 1,
        is_store: bool = False,
    ):
        self.region = region
        self.pc = pc
        self.work = work_per_elem
        self.kind = KIND_STORE if is_store else KIND_LOAD
        self._last_line = -1

    def touches(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        """Touch elements ``indices`` in order: their addresses and which
        of them emit.  The last line carries over to the next call."""
        addrs = _element_addrs(self.region, indices)
        lines = addrs // LINE_SIZE
        emitted = np.empty(lines.size, dtype=bool)
        if lines.size:
            emitted[0] = lines[0] != self._last_line
            np.not_equal(lines[1:], lines[:-1], out=emitted[1:])
            self._last_line = int(lines[-1])
        return addrs, emitted


class Gather:
    """Per-element loads: every touch emits, after ``work`` instructions."""

    kind = KIND_LOAD

    def __init__(self, region: Region, pc: int, work: int = 0):
        self.region = region
        self.pc = pc
        self.work = work

    def touches(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        """Addresses of elements ``indices``; all of them emit."""
        addrs = _element_addrs(self.region, indices)
        return addrs, np.ones(addrs.size, dtype=bool)


#: What a loop touches: a line-compressed cursor or a per-element gather.
Stream = Union[StreamCursor, Gather]


def _emit_block(builder: TraceBuilder, size: int, columns) -> None:
    """Emit ``size`` touches laid out by ``columns``.

    Each column is ``(stream, indices, slots)``: ``stream`` touches
    ``indices`` in order, at positions ``slots`` (an index array or a
    slice) of the block's program order.
    """
    kinds = np.empty(size, dtype=np.uint8)
    addrs = np.empty(size, dtype=np.int64)
    pcs = np.empty(size, dtype=np.uint64)
    charges = np.empty(size, dtype=np.int64)
    emitted = np.empty(size, dtype=bool)
    for stream, indices, slots in columns:
        column_addrs, column_emitted = stream.touches(indices)
        addrs[slots] = column_addrs
        emitted[slots] = column_emitted
        charges[slots] = stream.work + ~column_emitted
        kinds[slots] = stream.kind
        pcs[slots] = stream.pc
    picked = np.flatnonzero(emitted)
    np.cumsum(charges, out=charges)
    ends = charges[picked]
    gaps = np.diff(ends, prepend=0)
    trailing = int(charges[-1]) - (int(ends[-1]) if picked.size else 0)
    builder.extend(kinds[picked], addrs[picked], pcs[picked], gaps, trailing)


def _blocks(sizes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Split consecutive items into ``[lo, hi)`` runs of at most
    ``BLOCK_TOUCHES`` touches; an item larger than that is a run alone."""
    ends = np.cumsum(sizes)
    lo, done = 0, 0
    while lo < len(sizes):
        hi = int(np.searchsorted(ends, done + BLOCK_TOUCHES, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo, done = hi, int(ends[hi - 1])


def emit_rows(
    builder: TraceBuilder,
    rows,
    indptr: np.ndarray,
    row_cursor: StreamCursor,
    per_element: Sequence[Tuple[Stream, Optional[np.ndarray]]],
    end_cursor: StreamCursor,
) -> None:
    """Emit the CSR row loop::

        for r in rows:
            touch row_cursor at r
            for e in range(indptr[r], indptr[r + 1]):
                for stream, lookup in per_element:
                    touch stream at (e if lookup is None else lookup[e])
            touch end_cursor at r

    ``rows`` need not be contiguous (an SPMD partition's vertex list).
    Each stream may appear only once.
    """
    rows = np.asarray(rows, dtype=np.int64)
    width = len(per_element)
    firsts = indptr[rows]
    degrees = indptr[rows + 1] - firsts
    sizes = degrees * width + 2
    for lo, hi in _blocks(sizes):
        deg = degrees[lo:hi]
        row_sizes = sizes[lo:hi]
        starts = np.cumsum(row_sizes) - row_sizes
        # Position of each element within its row, and its global index.
        within = np.arange(int(deg.sum())) - np.repeat(np.cumsum(deg) - deg, deg)
        elements = np.repeat(firsts[lo:hi], deg) + within
        slots = np.repeat(starts + 1, deg) + width * within
        columns = [(row_cursor, rows[lo:hi], starts)]
        for offset, (stream, lookup) in enumerate(per_element):
            indices = elements if lookup is None else lookup[elements]
            columns.append((stream, indices, slots + offset))
        columns.append((end_cursor, rows[lo:hi], starts + row_sizes - 1))
        _emit_block(builder, int(starts[-1] + row_sizes[-1]), columns)


def emit_interleaved(
    builder: TraceBuilder, columns: Sequence[Tuple[Stream, np.ndarray]]
) -> None:
    """Emit the flat loop::

        for i in range(count):
            for stream, indices in columns:
                touch stream at indices[i]

    Every column's ``indices`` must have the same length, and each stream
    may appear only once.
    """
    width = len(columns)
    count = len(columns[0][1])
    step = max(1, BLOCK_TOUCHES // width)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        _emit_block(
            builder,
            (hi - lo) * width,
            [
                (stream, indices[lo:hi], slice(offset, None, width))
                for offset, (stream, indices) in enumerate(columns)
            ],
        )


def emit_stream(
    builder: TraceBuilder,
    region: Region,
    count: int,
    pc: int,
    work_per_elem: int,
    is_store: bool,
) -> None:
    """Sweep elements ``0 .. count - 1`` of ``region`` in order, one
    reference per cache line at the line's address.  Each reference
    carries its line's whole charge: ``covered * work_per_elem +
    covered - 1`` for the ``covered`` elements in the line.  Regions are
    page-aligned and the element size divides the line, so every line but
    the last is full."""
    if count <= 0:
        return
    per_line = LINE_SIZE // region.element_size
    first_line = region.addr(0) // LINE_SIZE
    last_line = region.addr(count - 1) // LINE_SIZE
    lines = np.arange(first_line, last_line + 1, dtype=np.int64)
    covered = np.full(lines.size, per_line, dtype=np.int64)
    covered[-1] = count - per_line * (lines.size - 1)
    builder.extend(
        np.full(lines.size, KIND_STORE if is_store else KIND_LOAD, dtype=np.uint8),
        lines * LINE_SIZE,
        np.full(lines.size, pc, dtype=np.uint64),
        covered * (work_per_elem + 1) - 1,
    )


class Workload(abc.ABC):
    """One traced application."""

    name = "workload"

    def __init__(self, iterations: int = 3, window_size: int = 16):
        if iterations < 2:
            raise ValueError(
                f"need >= 2 iterations (1 record + >=1 replay), got {iterations}"
            )
        if window_size < 1:
            raise ValueError(f"window size must be >= 1, got {window_size}")
        self.iterations = iterations
        self.window_size = window_size
        self.space: Optional[AddressSpace] = None
        self.builder: Optional[TraceBuilder] = None
        self.rnr: Optional[RnRInterface] = None
        self._arrays: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _allocate(self) -> None:
        """Allocate regions in ``self.space`` and initialise numpy state."""

    @abc.abstractmethod
    def _setup_rnr(self) -> None:
        """Issue AddrBase.set/enable calls for the irregular structures."""

    @abc.abstractmethod
    def _run_iteration(self, iteration: int) -> None:
        """Run one algorithm iteration, emitting its trace."""

    def _after_iteration(self, iteration: int, rnr_enabled: bool) -> None:
        """Hook for per-iteration RnR base swaps (default: nothing)."""

    @property
    @abc.abstractmethod
    def input_bytes(self) -> int:
        """Size of the input data (Fig 13 storage-overhead denominator)."""

    # ------------------------------------------------------------------
    # Trace construction protocol
    # ------------------------------------------------------------------
    def build_trace(self, rnr: bool = True) -> Trace:
        """Build the full multi-iteration trace.

        Iteration 0 is the RnR record iteration; iterations 1+ are
        replays.  With ``rnr=False`` the same reference stream is emitted
        without any RnR directives (for baselines and other prefetchers).
        """
        self.space = AddressSpace()
        self.builder = TraceBuilder()
        self._arrays.clear()
        self._allocate()
        self.emit_droplet_descriptors()
        if rnr:
            self.rnr = RnRInterface(
                self.builder, self.space, default_window=self.window_size
            )
            self.rnr.init()
            self._setup_rnr()
        else:
            self.rnr = None
        self._emit_init_phase()
        for iteration in range(self.iterations):
            if rnr:
                if iteration == 0:
                    self.rnr.prefetch_state.start()
                else:
                    self.rnr.prefetch_state.replay()
            self.builder.iter_begin(iteration)
            self._run_iteration(iteration)
            self.builder.iter_end(iteration)
            self._after_iteration(iteration, rnr)
        if rnr:
            self.rnr.prefetch_state.end()
            self.rnr.end()
        return self.builder.build()

    def _emit_init_phase(self) -> None:
        """Default warm-up: stream-write every allocated region once (the
        program initialising its arrays)."""
        self.builder.directive("phase.init")

    def ensure_layout(self) -> None:
        """Make the address-space layout and numpy state available without
        emitting a trace.

        When the trace store serves a recorded stream, :meth:`build_trace`
        never runs, but DROPLET's data callback (:meth:`edge_line_values`)
        still needs the region layout.  ``_allocate`` is deterministic — the
        same calls in the same order as during recording — so the layout
        matches the stored trace's addresses exactly.
        """
        if self.space is None:
            self.space = AddressSpace()
            self._arrays.clear()
            self._allocate()

    # ------------------------------------------------------------------
    # Prefetcher software descriptors / data callbacks
    # ------------------------------------------------------------------
    def emit_droplet_descriptors(self) -> None:
        """Subclasses with an edge/vertex structure override this to emit
        ``droplet.edges`` / ``droplet.values`` directives."""

    # ------------------------------------------------------------------
    def region(self, name: str) -> Region:
        """Look up an allocated region by name."""
        assert self.space is not None, "build_trace() not started"
        return self.space[name]

    def array(self, name: str) -> np.ndarray:
        """Look up a numpy state array by name."""
        return self._arrays[name]
