"""Content-addressed on-disk store of workload traces.

The sweep's methodology is trace-driven: every (app x input x prefetcher)
cell replays the same recorded reference stream, yet without this store
each worker process rebuilds each workload trace in pure Python — and
supervised retries, ``--resume`` passes, telemetry re-simulations, and
every fresh sweep pay the full rebuild again.  The store writes each
trace **once** in the packed binary format of :mod:`repro.trace.binfmt`
and lets every later consumer map it zero-copy, so N parallel workers
share one physical copy in the page cache.

Entries are keyed by a content hash of everything that can change the
recorded stream:

* the workload class (application) and input name,
* workload scale, seed, and iteration count,
* the RnR window size and whether RnR directives were recorded,
* the trace-generator version (the package version, so workload changes
  invalidate stale traces) and the binary format version.

Publication is first-winner: concurrent workers that race on a cold key
each build and stage a complete file, then hard-link it to the final name
(``os.link``), so the first link wins, the losers count a race and drop
their copies, and every published file is complete.  Only on a
filesystem without hard links does ``put`` fall back to an atomic
``os.replace``, where the last rename wins.  A corrupt entry —
truncated, bit-flipped, with an unparsable directive table, or from an
old format — is detected by the framing checks, counted, deleted, and
rebuilt, mirroring the disk cell cache's degradation discipline.

Enable the store with ``trace_store=`` on ``ExperimentRunner``, the
``--trace-store`` CLI flag, or the ``RNR_TRACE_STORE`` environment
variable.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import repro
from repro.trace import binfmt
from repro.trace.trace import Trace

#: Environment variable naming the default trace-store directory.
TRACE_STORE_ENV = "RNR_TRACE_STORE"

#: Counter names reported by :meth:`TraceStore.counters`.
COUNTER_NAMES = ("hits", "misses", "builds", "stores", "corrupt", "races")


def default_store_dir() -> Optional[Path]:
    """The store directory named by ``RNR_TRACE_STORE``, or None."""
    value = os.environ.get(TRACE_STORE_ENV, "").strip()
    return Path(value) if value else None


def trace_key(
    *,
    app: str,
    input_name: str,
    scale: str,
    iterations: int,
    seed: int,
    window: int,
    rnr: bool,
    version: Optional[str] = None,
) -> str:
    """Content hash identifying one recorded trace.

    Any change to any component — workload identity, scale/seed/iteration
    count, RnR window or flag, generator version, or the binary format
    itself — produces a different key, so stale traces are never mapped.
    """
    payload = {
        "format": binfmt.FORMAT_VERSION,
        "version": version if version is not None else repro.__version__,
        "app": app,
        "input": input_name,
        "scale": scale,
        "seed": seed,
        "iterations": iterations,
        "window": window,
        "rnr": bool(rnr),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TraceStore:
    """Content-addressed trace files, two directory levels deep
    (``ab/abcdef....rnrt``) like the disk cell cache."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.stores = 0
        self.corrupt = 0
        self.races = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.rnrt"

    # ------------------------------------------------------------------
    def get(self, key: str, map: bool = True) -> Optional[Trace]:
        """The stored trace for ``key`` (mmap-backed), or None.

        A missing entry is a plain miss.  An entry failing the framing
        verification counts as a miss, is counted in ``corrupt``, and is
        deleted so the rebuild can republish it.
        """
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            trace = binfmt.read_trace(path, map=map)
        except (binfmt.TraceFormatError, OSError):
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return trace

    def put(self, key: str, trace: Trace) -> Path:
        """Publish ``trace`` under ``key`` (atomic; **first** writer wins).

        The trace is written completely to a staging file first, then
        hard-linked to its final name: two workers racing on the same
        cold key leave exactly one valid CRC-framed entry (the loser
        counts a ``race`` and drops its copy), and a concurrent reader
        can never map a torn file.  Same key means same content, so
        which copy survives is immaterial.
        """
        final = self._path(key)
        # ``.staged`` keeps the staging file out of the ``*.rnrt`` globs
        # of :meth:`entries`.
        staged = final.with_name(f".pub-{os.getpid()}-{final.name}.staged")
        binfmt.write_trace(trace, staged)
        try:
            os.link(staged, final)
            self.stores += 1
        except FileExistsError:
            self.races += 1
        except OSError:
            # Filesystem without hard links: atomic last-winner rename.
            os.replace(staged, final)
            self.stores += 1
            return final
        try:
            os.unlink(staged)
        except OSError:
            pass
        return final

    def get_or_build(self, key: str, build: Callable[[], Trace]) -> Trace:
        """The stored trace, or ``build()``'s result published to the store.

        The freshly built trace is returned directly (its arrays are
        already hot in this process); everyone else maps the file.
        """
        trace = self.get(key)
        if trace is not None:
            return trace
        trace = build()
        self.builds += 1
        self.put(key, trace)
        return trace

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Current counter values (hits/misses/builds/stores/corrupt/races)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def merge_counters(self, delta: Dict[str, int]) -> None:
        """Fold another process's counter delta into this store's totals
        (the sweep supervisor aggregates worker-side counters here)."""
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
        """Yield the Path of every stored trace."""
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir():
                # Published names never start with a dot; staging files
                # (``binfmt.write_trace``'s ``.tmp-*.rnrt``) left by a
                # killed writer do, and pathlib's ``*`` matches them.
                yield from sorted(sub.glob("[!.]*.rnrt"))

    def clear(self) -> int:
        """Delete every stored trace; returns how many were removed."""
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
            f"trace store at {self.root}: {len(paths)} traces, "
            f"{total / 1024:.0f} KiB "
            f"(session: {self.hits} hits, {self.misses} misses, "
            f"{self.builds} built, {self.corrupt} corrupt, "
            f"{self.races} races)"
        )
