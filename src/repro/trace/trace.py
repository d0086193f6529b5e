"""Trace container with summary statistics.

Storage is structure-of-arrays: four parallel ``array`` columns hold the
kind/addr/pc/gap of every entry, and directive payloads (op + args) live in
a side table indexed through the ``addr`` column.  Entries are materialised
as :class:`TraceRecord` / :class:`Directive` objects only on demand, so the
simulation hot loop can stream the packed columns directly via
:meth:`Trace.iter_packed` without paying per-entry object construction or
attribute lookups (the engine's single biggest fixed cost before this
layout).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Tuple, Union

from repro.trace.record import (
    KIND_DIRECTIVE,
    KIND_LOAD,
    KIND_STORE,
    Directive,
    TraceRecord,
)

Entry = Union[TraceRecord, Directive]

#: One packed entry: (kind, addr, pc, gap).  For directives ``addr`` is an
#: index into the trace's directive table (see :meth:`Trace.directive_at`)
#: and ``pc`` is 0.
PackedEntry = Tuple[int, int, int, int]


class Trace:
    """An ordered sequence of memory references and directives."""

    __slots__ = ("_kinds", "_addrs", "_pcs", "_gaps", "_dirs")

    def __init__(self, entries: Iterable[Entry] = ()):
        self._kinds = array("B")
        self._addrs = array("Q")
        self._pcs = array("Q")
        self._gaps = array("Q")
        self._dirs: List[Tuple[str, tuple]] = []
        self.extend(entries)

    # -- column-level construction (fast path for builders) ----------------
    def append_ref(self, kind: int, addr: int, pc: int, gap: int = 0) -> None:
        """Append one load/store without building a TraceRecord."""
        self._kinds.append(kind)
        self._addrs.append(addr)
        self._pcs.append(pc)
        self._gaps.append(gap)

    def append_directive(self, op: str, args: Tuple = (), gap: int = 0) -> None:
        """Append one directive without building a Directive object."""
        self._kinds.append(KIND_DIRECTIVE)
        self._addrs.append(len(self._dirs))
        self._pcs.append(0)
        self._gaps.append(gap)
        self._dirs.append((op, tuple(args)))

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[Entry]:
        dirs = self._dirs
        for kind, addr, pc, gap in zip(self._kinds, self._addrs, self._pcs, self._gaps):
            if kind == KIND_DIRECTIVE:
                op, args = dirs[addr]
                yield Directive(op, args, gap)
            else:
                yield TraceRecord(kind, addr, pc, gap)

    def _entry_at(self, idx: int) -> Entry:
        kind = self._kinds[idx]
        if kind == KIND_DIRECTIVE:
            op, args = self._dirs[self._addrs[idx]]
            return Directive(op, args, self._gaps[idx])
        return TraceRecord(kind, self._addrs[idx], self._pcs[idx], self._gaps[idx])

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self._entry_at(i) for i in range(*idx.indices(len(self._kinds)))]
        if idx < 0:
            idx += len(self._kinds)
        return self._entry_at(idx)

    def append(self, entry: Entry) -> None:
        """Append one entry."""
        if entry.kind == KIND_DIRECTIVE:
            self.append_directive(entry.op, entry.args, entry.gap)
        else:
            self.append_ref(entry.kind, entry.addr, entry.pc, entry.gap)

    def extend(self, entries: Iterable[Entry]) -> None:
        """Append many entries."""
        for entry in entries:
            self.append(entry)

    # -- packed fast path ---------------------------------------------------
    def iter_packed(self) -> Iterator[PackedEntry]:
        """Stream ``(kind, addr, pc, gap)`` tuples straight off the columns.

        Directive entries carry their table index in the ``addr`` slot;
        resolve the payload with :meth:`directive_at`.
        """
        return zip(self._kinds, self._addrs, self._pcs, self._gaps)

    def directive_at(self, index: int) -> Tuple[str, tuple]:
        """The (op, args) payload for a packed directive entry."""
        return self._dirs[index]

    def packed_columns(self):
        """The four raw columns ``(kinds, addrs, pcs, gaps)``.

        ``array`` objects for in-memory traces, ``memoryview`` windows for
        mmap-backed ones (:class:`repro.trace.binfmt.MappedTrace`); either
        way the binary writer can serialize them without materialising
        entries.
        """
        return self._kinds, self._addrs, self._pcs, self._gaps

    def directive_table(self) -> List[Tuple[str, tuple]]:
        """The directive side table indexed by packed directive entries."""
        return self._dirs

    # -- summaries ----------------------------------------------------------
    @property
    def num_loads(self) -> int:
        """Number of load records."""
        return self._kinds.count(KIND_LOAD)

    @property
    def num_stores(self) -> int:
        """Number of store records."""
        return self._kinds.count(KIND_STORE)

    @property
    def num_directives(self) -> int:
        """Number of embedded directives."""
        return len(self._dirs)

    @property
    def instructions(self) -> int:
        """Total instruction count: every record is one instruction plus its
        preceding gap of non-memory instructions (directives are free)."""
        return sum(self._gaps) + len(self._kinds) - len(self._dirs)

    def memory_references(self) -> Iterator[TraceRecord]:
        """Iterate loads and stores only."""
        for kind, addr, pc, gap in zip(self._kinds, self._addrs, self._pcs, self._gaps):
            if kind != KIND_DIRECTIVE:
                yield TraceRecord(kind, addr, pc, gap)

    def directives(self) -> Iterator[Directive]:
        """Iterate directives only."""
        dirs = self._dirs
        for kind, addr, gap in zip(self._kinds, self._addrs, self._gaps):
            if kind == KIND_DIRECTIVE:
                op, args = dirs[addr]
                yield Directive(op, args, gap)
