"""Telemetry configuration.

A :class:`TelemetryConfig` travels from the CLI (``--telemetry-dir``,
``--sample-interval``, ``--trace-events``) into the
:class:`~repro.experiments.runner.ExperimentRunner` and across the
supervised-sweep worker pipe.  It is pickle-safe: the optional
``heartbeat`` callable is installed worker-side only, never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

#: Default sampling period (cycles between time-series snapshots).
DEFAULT_SAMPLE_INTERVAL = 100_000


@dataclass
class TelemetryConfig:
    """Everything the telemetry subsystem needs to know for one run.

    ``out_dir`` is the root directory telemetry artifacts land in (one
    subdirectory per simulated cell plus sweep-level files).  A config
    with no ``out_dir`` is inert: :attr:`enabled` is False and the
    runner keeps using the zero-overhead null collector.
    """

    out_dir: Optional[str] = None
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL
    trace_events: bool = False
    #: Worker-side live-progress sink; set locally, never pickled with a
    #: value (the supervisor ships configs with ``heartbeat=None``).
    heartbeat: Optional[Callable[[dict], None]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.sample_interval < 1:
            raise ValueError(
                f"sample interval must be >= 1 cycle, got {self.sample_interval}"
            )
        if self.out_dir is not None:
            self.out_dir = str(self.out_dir)

    @property
    def enabled(self) -> bool:
        return self.out_dir is not None

    @property
    def root(self) -> Path:
        if self.out_dir is None:
            raise ValueError("telemetry is disabled (no out_dir)")
        return Path(self.out_dir)
