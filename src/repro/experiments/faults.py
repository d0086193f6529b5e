"""Chaos fault injection for the supervised sweep.

Long experiment sweeps have to survive misbehaving cells; this module
provides the *misbehaviour* — deterministic, targeted faults that tests
and the CI chaos job inject into sweep workers to prove the supervisor
(:mod:`repro.experiments.supervise`) isolates them.

**Cell faults** fire inside a worker when it starts the named cell:

* ``raise`` — the cell's workload raises (a deterministic error);
* ``hang`` — the worker stops making progress (exercises ``--cell-timeout``);
* ``crash`` — the worker process dies abruptly via ``os._exit`` (simulating
  a segfault or OOM kill, since the supervisor only sees a dead process);
* ``cache`` — the cell reports persistent-cache corruption
  (:class:`~repro.experiments.diskcache.CacheIntegrityError`).

A cell fault spec is ``CELL=KIND`` or ``CELL=KIND:N`` where ``CELL`` is a
manifest cell id (``app/input/prefetcher`` with optional ``@mode`` and
``/wWINDOW`` suffixes — see :func:`repro.experiments.supervise.cell_id`)
and ``N`` bounds the fault to the first N attempts, making it *transient*
(the default is to fault every attempt).  Specs come from the CLI's
repeatable ``--inject-fault`` flag.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, Mapping, Optional, Tuple

FAULT_KINDS = ("raise", "hang", "crash", "cache")

#: Exit status of a ``crash`` fault — mirrors a SIGKILLed/OOM-killed worker.
CRASH_EXIT_STATUS = 137


class InjectedFault(RuntimeError):
    """The deterministic error raised by a ``raise`` fault."""


def parse_fault_spec(spec: str) -> Tuple[str, str, Optional[int]]:
    """Parse one ``CELL=KIND[:N]`` spec into (cell_id, kind, attempts)."""
    cell, sep, kind = spec.partition("=")
    if not sep or not cell or not kind:
        raise ValueError(
            f"fault spec must be CELL=KIND[:N], got {spec!r} "
            f"(kinds: {', '.join(FAULT_KINDS)})"
        )
    kind, sep, count = kind.partition(":")
    attempts: Optional[int] = None
    if sep:
        try:
            attempts = int(count)
        except ValueError:
            raise ValueError(f"fault attempt bound must be an integer: {spec!r}") from None
        if attempts < 1:
            raise ValueError(f"fault attempt bound must be >= 1: {spec!r}")
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {spec!r}; known: {', '.join(FAULT_KINDS)}"
        )
    return cell.strip(), kind, attempts


def parse_faults(specs: Iterable[str]) -> Dict[str, Tuple[str, Optional[int]]]:
    """{cell_id: (kind, attempt_bound)} from an iterable of spec strings."""
    plan: Dict[str, Tuple[str, Optional[int]]] = {}
    for spec in specs:
        cell, kind, attempts = parse_fault_spec(spec)
        plan[cell] = (kind, attempts)
    return plan


class FaultPlan:
    """Worker-side trigger for a parsed fault plan (picklable dict in,
    side effects out)."""

    def __init__(self, plan: Optional[Mapping[str, Tuple[str, Optional[int]]]] = None):
        self.plan = dict(plan or {})

    def __bool__(self) -> bool:
        return bool(self.plan)

    def fire(self, cell: str, attempt: int = 1) -> None:
        """Trigger the fault configured for ``cell``, if any.

        ``attempt`` is 1-based; a bounded fault (``KIND:N``) only fires on
        the first N attempts, so retries eventually succeed.
        """
        entry = self.plan.get(cell)
        if entry is None:
            return
        kind, bound = entry
        if bound is not None and attempt > bound:
            return
        if kind == "raise":
            raise InjectedFault(f"injected deterministic fault in {cell}")
        if kind == "cache":
            from repro.experiments.diskcache import CacheIntegrityError

            raise CacheIntegrityError(f"injected cache corruption in {cell}")
        if kind == "hang":
            # Sleep in short slices: killable at any point, and the elapsed
            # time under a working --cell-timeout stays tiny.
            while True:
                time.sleep(0.05)
        if kind == "crash":
            # Bypass Python teardown entirely — the supervisor must cope
            # with a silently dead process, exactly as with SIGKILL/OOM.
            os._exit(CRASH_EXIT_STATUS)
