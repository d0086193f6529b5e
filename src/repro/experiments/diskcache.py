"""Persistent on-disk cache for simulated experiment cells.

Every figure sweep draws from the same (app x input x prefetcher) cell
matrix, but an :class:`~repro.experiments.runner.ExperimentRunner`'s memo
dictionaries die with the process.  This module keeps finished
:class:`~repro.experiments.runner.CellResult` objects on disk, keyed by a
content hash of everything that can change a cell's statistics:

* the full :class:`~repro.config.SystemConfig` (all capacities/latencies),
* workload scale, seed, and iteration count,
* the RnR window size,
* the prefetcher name and control mode,
* the package version (so model changes invalidate stale results).

:class:`DiskCellCache` is a :class:`~repro.trace.store.ContentStore`, so
publication is first-winner and a corrupt entry is a counted, deleted
miss, exactly as for the trace store.  Its codec is a pickle behind a
framed header (magic, CRC32, payload length) that is verified before
unpickling, so a truncated or bit-flipped file, not just garbage bytes,
is detected deterministically.

Enable it by passing ``cache_dir=`` to ``ExperimentRunner`` (the CLI's
``--cache-dir`` flag does so).  Inspect it with
:meth:`DiskCellCache.describe`; empty it with ``rm -rf`` on the directory.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
import zlib
from pathlib import Path
from typing import Optional

import repro
from repro.trace.store import ContentStore, content_key

#: Bumped when the on-disk entry format (not the simulated model) changes.
#: v2: framed entries (magic + CRC32 + length before the pickle payload).
FORMAT_VERSION = 2

#: Entry framing: magic, CRC32 of the payload, payload length in bytes.
_MAGIC = b"RNRC"
_HEADER = struct.Struct("<4sIQ")


class CacheIntegrityError(RuntimeError):
    """A cache entry failed its length/checksum verification."""


def cell_key(
    *,
    config,
    scale: str,
    seed: int,
    iterations: int,
    window: int,
    app: str,
    input_name: str,
    prefetcher: str,
    mode=None,
    version: Optional[str] = None,
) -> str:
    """Content hash identifying one simulated cell.

    Any change to any component — system configuration, workload scale or
    seed, iteration count, window, prefetcher/mode, or package version —
    produces a different key, so stale entries are never returned.
    """
    return content_key({
        "format": FORMAT_VERSION,
        "version": version if version is not None else repro.__version__,
        "config": dataclasses.asdict(config),
        "scale": scale,
        "seed": seed,
        "iterations": iterations,
        "window": window,
        "app": app,
        "input": input_name,
        "prefetcher": prefetcher,
        "mode": getattr(mode, "value", mode),
    })


def _read_cell(path: Path):
    """Unpickle a framed entry, or raise :class:`CacheIntegrityError`
    naming the check it failed."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        payload = fh.read()
    if len(head) < _HEADER.size:
        raise CacheIntegrityError(f"entry shorter than its {_HEADER.size}-byte header")
    magic, crc, length = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise CacheIntegrityError(f"bad magic {magic!r}")
    if len(payload) != length:
        raise CacheIntegrityError(
            f"truncated entry: header promises {length} payload bytes, "
            f"found {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CacheIntegrityError("payload checksum mismatch")
    return pickle.loads(payload)


class DiskCellCache(ContentStore):
    """Pickled cell results (``ab/abcdef....pkl``)."""

    SUFFIX = ".pkl"
    LABEL = "cell cache"
    NOUN = "entries"

    def get(self, key: str):
        """The cached result for ``key``, or None."""
        return self._load(key, _read_cell)

    def put(self, key: str, result) -> Path:
        """Publish ``result`` under ``key``, framed for :meth:`get` to
        verify; returns the entry's path."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
        return self._publish(key, lambda fh: fh.writelines((header, payload)))
