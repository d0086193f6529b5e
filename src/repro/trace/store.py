"""Content-addressed on-disk stores: recorded traces and finished cells.

The sweep keeps two kinds of entry on disk, each under its own root: the
recorded workload traces (:class:`TraceStore`; ``--trace-store``) and the
finished figure cells (:class:`~repro.experiments.diskcache.DiskCellCache`;
``--cache-dir``).  Both are a :class:`ContentStore` with a codec of their
own, and both keep one policy:

* An entry is named by the SHA-256 of the canonical JSON of everything
  that can change its content (:func:`content_key`) and lives two
  directory levels deep (``ab/abcdef....<suffix>``).  The same key means
  the same content, so a stale entry is never served.
* A missing file is a plain miss.
* An entry that fails its checks (truncated, bit-flipped, from an old
  format, unreadable) is counted in ``corrupt``, deleted and missed, so
  the caller rebuilds it.
* Publication is first-winner.  A writer stages the complete entry in one
  dot-named file beside its final name, then hard-links it there
  (``os.link``).  The first link wins; the losers count a ``race`` and
  drop their copies, and a reader never sees a torn entry.  Only a
  filesystem without hard links falls back to an atomic ``os.replace``,
  where the last rename wins.
* :meth:`ContentStore.entries` (behind ``describe``) skips dot-names, so
  a staging file left by a killed writer is never listed as an entry.
* Counters are per instance.  The sweep supervisor folds in each worker's
  delta (:meth:`ContentStore.counters_since`,
  :meth:`ContentStore.merge_counters`); they are for reporting only.

To empty a store, remove its directory.

A trace is keyed by its application, input, scale, seed, iteration
count, RnR window and flag, the package version and the binary format
version.  It is written once in :mod:`repro.trace.binfmt`'s packed format
and mapped zero-copy by every later run and worker, so N parallel workers
share one page-cache copy instead of N rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

import repro
from repro.trace import binfmt
from repro.trace.trace import Trace


def content_key(payload: dict) -> str:
    """SHA-256 of ``payload``'s canonical JSON: the name of its entry."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def ensure_writable(root: Union[str, Path]) -> Path:
    """Create ``root`` and prove it writable; returns the directory.

    Raises ``ValueError`` with a one-line message otherwise, so a bad store
    root fails at CLI startup instead of halfway through a sweep.
    """
    root = Path(root).expanduser()
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, probe = tempfile.mkstemp(dir=str(root), prefix=".probe-")
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise ValueError(f"{root} is not creatable/writable: {detail}") from None
    return root


class ContentStore:
    """Entries under ``root`` named by their content key (see the module
    docstring for the policy).  A subclass supplies its codec through its
    own ``get`` and ``put``, built on :meth:`_load` and :meth:`_publish`."""

    #: File-name suffix of a published entry.
    SUFFIX = ""
    #: How :meth:`describe` names the store and its entries.
    LABEL = ""
    NOUN = ""
    #: Counter attributes, as reported by :meth:`counters`.
    COUNTERS = ("hits", "misses", "stores", "corrupt", "races")
    #: Session counters as the CLI and the sweep report print them.
    SUMMARY = "{hits} hits, {misses} misses, {stores} stores, {corrupt} corrupt, {races} races"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    # ------------------------------------------------------------------
    def _load(self, key: str, decode: Callable[[Path], object]):
        """``decode(path)`` of the entry for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            value = decode(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Any failure, an unpickling one included, makes the entry
            # unusable; the caller rebuilds it.
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return value

    def _publish(self, key: str, write: Callable) -> Path:
        """Stage ``write(fh)``'s bytes in one dot-named file and link it to
        the entry's name, first writer wins; returns the entry's path."""
        final = self._path(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        fd, staged = tempfile.mkstemp(
            dir=str(final.parent), prefix=".tmp-", suffix=".staged"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            try:
                os.link(staged, final)
            except FileExistsError:
                self.races += 1
                return final
            except OSError:
                # No hard links on this filesystem: last rename wins.
                os.replace(staged, final)
                staged = None
            self.stores += 1
            return final
        finally:
            if staged is not None:
                try:
                    os.unlink(staged)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Current counter values."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def merge_counters(self, delta: Dict[str, int]) -> None:
        """Fold another process's counter delta into this store's totals."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + int(delta.get(name, 0)))

    def counters_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter delta accumulated since ``snapshot`` (from :meth:`counters`)."""
        return {
            name: getattr(self, name) - int(snapshot.get(name, 0))
            for name in self.COUNTERS
        }

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Yield the path of every published entry."""
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir():
                yield from sorted(sub.glob(f"[!.]*{self.SUFFIX}"))

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        paths = list(self.entries())
        total = sum(p.stat().st_size for p in paths)
        return (
            f"{self.LABEL} at {self.root}: {len(paths)} {self.NOUN}, "
            f"{total / 1024:.0f} KiB "
            f"(session: {self.SUMMARY.format(**self.counters())})"
        )


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
    return content_key({
        "format": binfmt.FORMAT_VERSION,
        "version": version if version is not None else repro.__version__,
        "app": app,
        "input": input_name,
        "scale": scale,
        "seed": seed,
        "iterations": iterations,
        "window": window,
        "rnr": bool(rnr),
    })


class TraceStore(ContentStore):
    """Recorded traces in :mod:`repro.trace.binfmt`'s packed format."""

    SUFFIX = ".rnrt"
    LABEL = "trace store"
    NOUN = "traces"
    COUNTERS = ("hits", "misses", "builds", "stores", "corrupt", "races")
    SUMMARY = "{hits} hits, {misses} misses, {builds} built, {corrupt} corrupt, {races} races"

    def get(self, key: str) -> Optional[Trace]:
        """The stored trace for ``key``, mapped zero-copy, or None."""
        return self._load(key, binfmt.read_trace)

    def put(self, key: str, trace: Trace) -> Path:
        """Publish ``trace`` under ``key``; returns the entry's path."""
        return self._publish(key, lambda fh: binfmt.dump_trace(trace, fh))

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
