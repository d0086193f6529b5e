"""Test utilities shared across test modules."""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.config import SystemConfig
from repro.mem.controller import MemoryController
from repro.stats import SimStats
from repro.trace import binfmt


def make_hierarchy(
    config: Optional[SystemConfig] = None,
) -> Tuple[CacheHierarchy, SimStats]:
    """A fresh tiny hierarchy plus its stats object."""
    config = config if config is not None else SystemConfig.tiny()
    stats = SimStats()
    controller = MemoryController(config.memory, config.core)
    return CacheHierarchy(config, controller, stats), stats


class PrefetchProbe:
    """Wraps a hierarchy's prefetch_l2 to record issued line addresses."""

    def __init__(self, hierarchy: CacheHierarchy):
        self.issued: List[Tuple[int, int]] = []  # (line_addr, cycle)
        self._orig = hierarchy.prefetch_l2
        hierarchy.prefetch_l2 = self._wrapped  # type: ignore[method-assign]

    def _wrapped(self, line_addr, cycle, pf_window=-1):
        self.issued.append((line_addr, cycle))
        return self._orig(line_addr, cycle, pf_window=pf_window)

    @property
    def lines(self) -> List[int]:
        return [line for line, _ in self.issued]


def clobber_directive_table(path: Path) -> None:
    """Overwrite a binary trace's directive table with ``{`` bytes and
    recompute the header CRC, so only the JSON parse can reject it."""
    raw = bytearray(path.read_bytes())
    magic, version, flags, entries, dir_len, _ = binfmt._HEADER.unpack_from(raw)
    raw[len(raw) - dir_len:] = b"{" * dir_len
    crc = zlib.crc32(bytes(raw[binfmt._PAYLOAD_OFFSET:])) & 0xFFFFFFFF
    binfmt._HEADER.pack_into(raw, 0, magic, version, flags, entries, dir_len, crc)
    path.write_bytes(bytes(raw))
