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

Writes are atomic and first-winner: an entry is staged in a temp file
and hard-linked (``os.link``) to its final name, so of two racing writers
the first entry stands, and a killed sweep never leaves a half-written
entry.  A filesystem without hard links falls back to an atomic
``os.replace``, where the last rename wins.  Loads tolerate corruption:
every entry carries a framed header (magic, CRC32, payload length) that
is verified before unpickling, so a truncated or bit-flipped file — not
just garbage bytes — is detected deterministically, treated as a miss,
counted, and deleted.

Enable it by passing ``cache_dir=`` to ``ExperimentRunner`` or by setting
the ``RNR_CACHE_DIR`` environment variable (the CLI's ``--cache-dir`` flag
does the former).  Inspect with :meth:`DiskCellCache.describe`; clear with
:meth:`DiskCellCache.clear` or simply ``rm -rf`` the directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import repro

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "RNR_CACHE_DIR"

#: Counter names reported by :meth:`DiskCellCache.counters`.
COUNTER_NAMES = ("hits", "misses", "stores", "corrupt", "races")

#: Bumped when the on-disk entry format (not the simulated model) changes.
#: v2: framed entries (magic + CRC32 + length before the pickle payload).
FORMAT_VERSION = 2

#: Entry framing: magic, CRC32 of the payload, payload length in bytes.
_MAGIC = b"RNRC"
_HEADER = struct.Struct("<4sIQ")


class CacheIntegrityError(RuntimeError):
    """A cache entry failed its length/checksum verification."""


def default_cache_dir() -> Optional[Path]:
    """The cache directory named by ``RNR_CACHE_DIR``, or None."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


def ensure_writable(root: Union[str, Path]) -> Path:
    """Validate that ``root`` can be created and written.

    Returns the (created) directory.  Raises ``ValueError`` with a
    one-line actionable message otherwise — meant for CLI startup, so a
    bad ``--cache-dir`` fails immediately instead of as a deep traceback
    halfway through a multi-hour sweep.
    """
    root = Path(root).expanduser()
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, probe = tempfile.mkstemp(dir=str(root), prefix=".probe-")
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise ValueError(f"cache dir {root} is not creatable/writable: {detail}") from None
    return root


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
    payload = {
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
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class DiskCellCache:
    """Content-addressed store of pickled cell results.

    Entries live two directory levels deep (``ab/abcdef....pkl``) so large
    sweeps don't produce a single directory with thousands of files.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.races = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    @staticmethod
    def _verify(data: bytes) -> bytes:
        """Return the pickle payload of a framed entry, or raise
        :class:`CacheIntegrityError` naming what failed."""
        if len(data) < _HEADER.size:
            raise CacheIntegrityError(
                f"entry shorter than its {_HEADER.size}-byte header"
            )
        magic, crc, length = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CacheIntegrityError(f"bad magic {magic!r}")
        payload = data[_HEADER.size:]
        if len(payload) != length:
            raise CacheIntegrityError(
                f"truncated entry: header promises {length} payload bytes, "
                f"found {len(payload)}"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CacheIntegrityError("payload checksum mismatch")
        return payload

    def get(self, key: str):
        """The cached result for ``key``, or None.

        A missing entry is a plain miss.  An entry failing the explicit
        length/checksum verification — truncated, bit-flipped, or from an
        old format — counts as a miss, is counted in ``corrupt``, and is
        deleted so it doesn't fail again.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        try:
            result = pickle.loads(self._verify(data))
        except Exception:
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result) -> None:
        """Store ``result`` under ``key`` atomically, framed with a
        header (magic + CRC32 + length) that :meth:`get` verifies.

        Publication is **first-winner**: the complete entry is staged in
        a temp file, then hard-linked to its final name, so two workers
        racing on the same key leave exactly one valid framed entry (the
        loser counts a ``race`` and discards its copy) and a reader can
        never observe a torn file.
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".staged"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(payload)
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                # A concurrent writer published first; identical key means
                # identical content, so the first winner stands.
                self.races += 1
                return
            except OSError:
                # Filesystem without hard links: fall back to the atomic
                # (last-winner) rename — still never torn.
                os.replace(tmp_name, path)
                tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stores += 1

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Current counter values (hits/misses/stores/corrupt/races)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def merge_counters(self, delta: Dict[str, int]) -> None:
        """Fold another process's counter delta into this cache's totals
        (the sweep supervisor aggregates worker counters here)."""
        for name in COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + int(delta.get(name, 0)))

    def counters_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter delta accumulated since ``snapshot`` (from
        :meth:`counters`)."""
        return {
            name: getattr(self, name) - int(snapshot.get(name, 0))
            for name in COUNTER_NAMES
        }

    # ------------------------------------------------------------------
    def entries(self):
        """Yield the Path of every cached entry."""
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir():
                yield from sorted(sub.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> str:
        """One-line summary for logs / the CLI."""
        paths = list(self.entries())
        total = sum(p.stat().st_size for p in paths)
        return (
            f"cell cache at {self.root}: {len(paths)} entries, "
            f"{total / 1024:.0f} KiB "
            f"(session: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt, "
            f"{self.races} races)"
        )
