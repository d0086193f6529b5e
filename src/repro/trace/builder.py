"""Incremental trace construction used by the workload implementations."""

from __future__ import annotations

from repro.trace.record import KIND_LOAD, KIND_STORE
from repro.trace.trace import Trace


class TraceBuilder:
    """Accumulates a trace while a workload algorithm runs.

    ``work(n)`` charges ``n`` non-memory instructions (arithmetic, control
    flow); the next emitted reference carries them as its gap, exactly the
    way a PIN trace encodes inter-memory-op distance.
    """

    def __init__(self) -> None:
        self.trace = Trace()
        self._pending_gap = 0

    def work(self, instructions: int = 1) -> None:
        """Charge non-memory instructions since the last reference."""
        if instructions < 0:
            raise ValueError(f"negative work: {instructions}")
        self._pending_gap += instructions

    def load(self, address: int, pc: int = 0) -> None:
        """Emit one load record."""
        self.trace.append_ref(KIND_LOAD, address, pc, self._pending_gap)
        self._pending_gap = 0

    def store(self, address: int, pc: int = 0) -> None:
        """Emit one store record."""
        self.trace.append_ref(KIND_STORE, address, pc, self._pending_gap)
        self._pending_gap = 0

    def extend(self, kinds, addrs, pcs, gaps, trailing_gap: int = 0) -> None:
        """Emit a block of references from four buffers.

        ``kinds`` holds one byte per reference; ``addrs``, ``pcs`` and
        ``gaps`` hold 8-byte integers (``array("Q")``, a numpy ``uint64``
        or ``int64`` array, ...).  The pending gap is added to the first
        reference's gap, and ``trailing_gap`` -- work charged after the
        block's last reference -- becomes the pending gap, so the block
        emits exactly what the same ``work``/``load``/``store`` calls
        would.  The columns are extended straight from the buffers,
        without an intermediate copy.
        """
        views = [memoryview(column) for column in (kinds, addrs, pcs, gaps)]
        if [view.itemsize for view in views] != [1, 8, 8, 8]:
            raise ValueError(
                "block item sizes must be 1/8/8/8 bytes, got "
                + "/".join(str(view.itemsize) for view in views)
            )
        count = views[0].nbytes
        if any(view.nbytes != 8 * count for view in views[1:]):
            raise ValueError(
                "block columns differ in length: "
                + "/".join(str(view.nbytes // view.itemsize) for view in views)
            )
        if trailing_gap < 0:
            raise ValueError(f"negative work: {trailing_gap}")
        # Cast every buffer before growing any column: a non-contiguous
        # one raises here, not after the first columns were extended.
        raw = [view.cast("B") for view in views]
        columns = self.trace.packed_columns()
        first = len(columns[0])
        for column, data in zip(columns, raw):
            column.frombytes(data)
        if count:
            columns[3][first] += self._pending_gap
            self._pending_gap = trailing_gap
        else:
            self._pending_gap += trailing_gap

    def directive(self, op: str, *args) -> None:
        """Emit one directive."""
        self.trace.append_directive(op, args, self._pending_gap)
        self._pending_gap = 0

    # Convenience markers --------------------------------------------------
    def iter_begin(self, index: int) -> None:
        """Mark the start of iteration ``index``."""
        self.directive("iter.begin", index)

    def iter_end(self, index: int) -> None:
        """Mark the end of iteration ``index``."""
        self.directive("iter.end", index)

    def build(self) -> Trace:
        """Finish and return the trace."""
        if self._pending_gap:
            # Preserve trailing non-memory work in the instruction count.
            self.directive("trace.end")
        return self.trace
