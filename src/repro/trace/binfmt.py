"""Packed binary trace format with zero-copy mmap loading.

The sweep's trace-driven methodology replays the same reference stream
in every (app x input x prefetcher) cell, so traces are kept on disk in
this one format.  It dumps the trace's four packed ``array`` columns raw,
framed the same way as the disk cell cache (magic + version + CRC32 +
promised lengths, verified before use), plus a JSON side table for the
directive payloads:

===========  ========================================================
offset 0     28-byte header: magic ``RNRT``, format version, flags,
             entry count, directive-table byte length, payload CRC32
offset 32    ``addr`` column  — ``n`` x u64, little-endian
             ``pc``   column  — ``n`` x u64
             ``gap``  column  — ``n`` x u64
             ``kind`` column  — ``n`` x u8
             directive table  — JSON ``[[op, [args...]], ...]``
===========  ========================================================

The u64 columns come first so every one is 8-byte aligned (the header is
padded to 32 bytes), which lets :func:`read_trace` hand the simulation
engine ``memoryview.cast`` windows straight into an ``mmap`` of the file:
no parse, no copy, and N parallel sweep workers mapping the same trace
share one physical copy in the OS page cache instead of N Python
rebuilds.  The CRC is verified over the mapped view on every load, so a
truncated or bit-flipped file raises :class:`TraceFormatError`
deterministically instead of corrupting a simulation.

:func:`dump_trace` writes the format to an open file, which the trace
store stages and publishes itself (:mod:`repro.trace.store`).
:func:`write_trace` writes a standalone file atomically (temp file +
``os.replace``), so a killed writer never leaves a half-written trace
behind.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Union

from repro.trace.record import KIND_LOAD, KIND_STORE
from repro.trace.trace import Trace

#: File magic for the packed binary trace format.
MAGIC = b"RNRT"

#: Bumped when the on-disk layout changes; readers reject other versions.
FORMAT_VERSION = 1

#: Header: magic, version, flags, entry count, directive-table bytes, CRC32.
_HEADER = struct.Struct("<4sHHQQI")

#: Columns start here; the gap after the 28-byte header keeps every u64
#: column 8-byte aligned for ``memoryview.cast``.
_PAYLOAD_OFFSET = 32

#: Flag bit 0: payload is little-endian (always set by this writer).
_FLAG_LITTLE_ENDIAN = 1

#: Bytes per entry across the four columns (3 x u64 + 1 x u8).
_BYTES_PER_ENTRY = 25


class TraceFormatError(RuntimeError):
    """A binary trace file failed its framing/checksum verification."""


def _expected_size(n_entries: int, dir_len: int) -> int:
    return _PAYLOAD_OFFSET + n_entries * _BYTES_PER_ENTRY + dir_len


class MappedTrace(Trace):
    """A read-only :class:`Trace` whose columns are ``memoryview`` windows
    into an ``mmap`` of a binary trace file.

    ``iter_packed`` streams straight from the OS page cache; mutation
    raises.  Hold a reference for as long as the trace is in use and
    call :meth:`close` (or let the GC do it) when done.
    """

    __slots__ = ("_mmap", "_file", "_path")

    def __init__(self, kinds, addrs, pcs, gaps, dirs, mm, fh, path):
        # Deliberately not calling Trace.__init__: the columns are views,
        # not fresh arrays.
        self._kinds = kinds
        self._addrs = addrs
        self._pcs = pcs
        self._gaps = gaps
        self._dirs = dirs
        self._mmap = mm
        self._file = fh
        self._path = path

    # -- read-only ----------------------------------------------------------
    def append_ref(self, kind, addr, pc, gap=0):
        raise TypeError(f"mapped trace {self._path} is read-only")

    def append_directive(self, op, args=(), gap=0):
        raise TypeError(f"mapped trace {self._path} is read-only")

    # ``memoryview`` has no ``count``; these summaries are cold paths, so
    # one bytes copy of the 1-byte-per-entry kind column is fine.
    @property
    def num_loads(self) -> int:
        return bytes(self._kinds).count(KIND_LOAD)

    @property
    def num_stores(self) -> int:
        return bytes(self._kinds).count(KIND_STORE)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the column views and unmap the file."""
        for name in ("_kinds", "_addrs", "_pcs", "_gaps"):
            view = getattr(self, name, None)
            if view is not None:
                view.release()
                setattr(self, name, None)
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __del__(self):  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:
            pass


def _column_bytes(column):
    """One column (array or memoryview) as a little-endian buffer: the
    column itself on a little-endian host, so writing a trace copies none
    of it, else a byteswapped copy."""
    if sys.byteorder == "little" or getattr(column, "itemsize", 1) == 1:
        return column
    swapped = column[:]  # big-endian host: copy, then swap to LE on disk
    swapped.byteswap()
    return swapped


def dump_trace(trace: Trace, fh) -> None:
    """Write ``trace`` in the packed binary format to the open binary file
    ``fh``.

    Directive args must be JSON-serializable: the directive table is
    stored as JSON.
    """
    kinds, addrs, pcs, gaps = trace.packed_columns()
    dirs_blob = json.dumps(
        [[op, list(args)] for op, args in trace.directive_table()],
        separators=(",", ":"),
    ).encode()
    parts = (
        _column_bytes(addrs),
        _column_bytes(pcs),
        _column_bytes(gaps),
        _column_bytes(kinds),
        dirs_blob,
    )
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, _FLAG_LITTLE_ENDIAN, len(trace), len(dirs_blob),
        crc & 0xFFFFFFFF,
    )
    fh.write(header)
    fh.write(b"\x00" * (_PAYLOAD_OFFSET - _HEADER.size))
    for part in parts:
        fh.write(part)


def write_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` in the packed binary format, atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-", suffix=".rnrt")
    try:
        with os.fdopen(fd, "wb") as fh:
            dump_trace(trace, fh)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _parse_directives(blob: bytes):
    try:
        table = json.loads(blob)
        return [(op, tuple(args)) for op, args in table]
    except (ValueError, TypeError) as exc:
        raise TraceFormatError(f"directive table is not valid JSON: {exc}") from None


def read_trace(path: Union[str, Path], map: bool = True) -> Trace:
    """Load a binary trace, zero-copy via ``mmap`` when possible.

    With ``map=True`` (and a little-endian host) the returned trace is a
    :class:`MappedTrace` whose columns alias the OS page cache; otherwise
    the columns are copied into fresh in-memory arrays.  Raises
    :class:`TraceFormatError` for anything that fails the framing checks:
    bad magic, unknown version, wrong length (truncation), or a CRC
    mismatch (bit flips).
    """
    path = Path(path)
    fh = open(path, "rb")
    try:
        head = fh.read(_PAYLOAD_OFFSET)
        if len(head) < _PAYLOAD_OFFSET:
            raise TraceFormatError(
                f"{path}: shorter than the {_PAYLOAD_OFFSET}-byte header"
            )
        magic, version, flags, n_entries, dir_len, crc = _HEADER.unpack_from(head)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: format version {version} (reader supports {FORMAT_VERSION})"
            )
        if not flags & _FLAG_LITTLE_ENDIAN:
            raise TraceFormatError(f"{path}: unknown byte order (flags={flags:#x})")
        size = os.fstat(fh.fileno()).st_size
        expected = _expected_size(n_entries, dir_len)
        if size != expected:
            raise TraceFormatError(
                f"{path}: truncated/overlong: header promises {expected} bytes, "
                f"file has {size}"
            )
        if map and sys.byteorder == "little":
            return _read_mapped(path, fh, n_entries, dir_len, crc)
        return _read_eager(path, fh, n_entries, dir_len, crc)
    except BaseException:
        fh.close()
        raise


def _read_mapped(path, fh, n_entries, dir_len, crc) -> MappedTrace:
    mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    off = _PAYLOAD_OFFSET
    col = n_entries * 8
    koff = off + 3 * col
    try:
        # Every check runs before a column view exists: closing the map
        # raises BufferError while any view into it is still exported.
        with memoryview(mm) as view, view[off:] as payload:
            crc_ok = zlib.crc32(payload) & 0xFFFFFFFF == crc
        if not crc_ok:
            raise TraceFormatError(f"{path}: payload checksum mismatch")
        dirs = _parse_directives(mm[koff + n_entries : koff + n_entries + dir_len])
    except BaseException:
        mm.close()
        raise
    with memoryview(mm) as view:
        addrs = view[off : off + col].cast("Q")
        pcs = view[off + col : off + 2 * col].cast("Q")
        gaps = view[off + 2 * col : koff].cast("Q")
        kinds = view[koff : koff + n_entries]
    return MappedTrace(kinds, addrs, pcs, gaps, dirs, mm, fh, path)


def _read_eager(path, fh, n_entries, dir_len, crc) -> Trace:
    from array import array

    payload = fh.read()
    fh.close()
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TraceFormatError(f"{path}: payload checksum mismatch")
    col = n_entries * 8
    trace = Trace()
    for name, lo in (("_addrs", 0), ("_pcs", col), ("_gaps", 2 * col)):
        column = array("Q")
        column.frombytes(payload[lo : lo + col])
        if sys.byteorder != "little":
            column.byteswap()
        setattr(trace, name, column)
    kinds = array("B")
    kinds.frombytes(payload[3 * col : 3 * col + n_entries])
    trace._kinds = kinds
    trace._dirs = _parse_directives(payload[3 * col + n_entries : 3 * col + n_entries + dir_len])
    return trace
