"""Fault-tolerant distributed sweep fabric.

PRs 1-4 built every part of a cluster scheduler — a content-hash cell
cache, crash-isolated workers, retries and resumable manifests, live
telemetry heartbeats, a content-addressed trace store — but they all run
on one box behind :func:`repro.experiments.supervise.run_supervised_sweep`.
This package promotes them into a real multi-process/multi-host fabric:
an asyncio TCP **coordinator** (:mod:`.coordinator`) shards sweep cells
across **worker agents** (:mod:`.agent`) over a CRC-framed message
protocol (:mod:`.protocol`), with robustness as the headline:

* **lease-based cell ownership** — a cell is leased to exactly one worker
  with an expiry; expired leases are reclaimed and re-dispatched;
* **heartbeat liveness** — workers stream periodic heartbeats (like the
  supervised sweep's ``("tel", payload)`` messages); a worker
  that misses its beats is declared dead and its cells are re-queued;
* **circuit-breaker quarantine** — a worker failing N consecutive cells
  is drained and benched; a cell that kills M distinct workers is marked
  *poison* and rendered as a degraded ``-`` figure cell;
* **idempotent result dedup** — a late or duplicate result for an
  already-committed cell is dropped, so a reclaimed lease and the
  original worker both finishing is always safe;
* **graceful drain** — SIGTERM/SIGINT stops leasing, flushes the sweep
  manifest atomically, and exits with a distinct status so ``--resume``
  picks up exactly where the fabric stopped.

Chaos for all of it lives in :mod:`repro.experiments.faults`
(:class:`~repro.experiments.faults.FabricChaos`): ``worker-die``,
``worker-slow:<s>``, ``drop-msg:<p>``, ``dup-msg:<p>``, ``late-result``
are injected at the transport/agent layer and the fabric must still
complete every non-poison cell exactly once.

Entry points: ``python -m repro.experiments fabric serve|work|sweep``
(:mod:`.cli`), or :func:`repro.experiments.fabric.cli.run_local_sweep`
from Python.
"""

from repro.experiments.fabric.coordinator import FabricConfig, FabricState  # noqa: F401
