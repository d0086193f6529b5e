"""Test utilities shared across test modules."""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.config import SystemConfig
from repro.mem.controller import MemoryController
from repro.stats import SimStats
from repro.trace import binfmt


def stats_digest(stats: SimStats) -> str:
    """sha256 of the canonical JSON of ``stats.as_dict()`` (the digest
    ``perfbench/golden.json`` holds)."""
    blob = json.dumps(stats.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


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


class StorePolicy:
    """The :class:`~repro.trace.store.ContentStore` policy, written once.

    Each store's test class inherits these tests and sets ``store_cls`` and
    ``entry()`` (a small value of its kind), so every store kind runs the
    same checks under its own test ids.
    """

    store_cls = None
    KEY = "ab" + "0" * 62

    def entry(self):
        raise NotImplementedError

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        store = self.store_cls(tmp_path)
        path = store.put(self.KEY, self.entry())
        path.write_bytes(b"\x80not an entry")
        assert store.get(self.KEY) is None
        assert store.corrupt == 1 and store.misses == 1
        assert not path.exists()

    def test_put_leaves_no_temp_files(self, tmp_path):
        store = self.store_cls(tmp_path)
        published = store.put(self.KEY, self.entry())
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [published]

    def test_killed_writer_staging_file_is_not_an_entry(self, tmp_path):
        # A writer killed before its link leaves its dot-named staging file
        # beside the published entries.
        store = self.store_cls(tmp_path)
        published = store.put(self.KEY, self.entry())
        for name in (".tmp-k1ll3d.staged", f".tmp-k1ll3d{store.SUFFIX}"):
            (published.parent / name).write_bytes(b"torn")
        assert list(store.entries()) == [published]
        assert f"1 {store.NOUN}" in store.describe()

    def test_merge_and_since(self, tmp_path):
        store = self.store_cls(tmp_path)
        snapshot = store.counters()
        store.get(self.KEY)  # miss
        store.put(self.KEY, self.entry())
        delta = store.counters_since(snapshot)
        assert delta["misses"] == 1 and delta["stores"] == 1
        other = self.store_cls(tmp_path)
        other.merge_counters(delta)
        assert other.counters() == store.counters()
