"""Engine backend selection shared by every entry point.

Two execution backends implement the same simulation semantics (the
golden-parity suite pins their ``SimStats`` equality):

* ``fast`` — the two inlined scalar loops (:mod:`repro.sim.engine`),
  default;
* ``straight`` — the pre-fast-path reference loop, bit-identical by
  contract and kept as the golden oracle.  Runs with an enabled telemetry
  collector take it under either backend.

Resolution: explicit argument > ``RNR_ENGINE`` environment variable >
``fast``.  It is the one setting the experiments CLI hands to its sweep
workers through the environment.
Unknown values raise :class:`ValueError` from a single shared validator,
so the CLI, the engines, and tests all reject the same way.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable naming the engine backend for a run.
ENGINE_ENV = "RNR_ENGINE"

#: Valid backend names, in CLI display order.
ENGINE_BACKENDS = ("fast", "straight")


def _validate_backend(value, source: str) -> str:
    """Shared backend validator for the explicit-argument and
    ``RNR_ENGINE`` paths: must be one of :data:`ENGINE_BACKENDS`."""
    backend = str(value).strip().lower()
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"{source} must be one of {', '.join(ENGINE_BACKENDS)}, "
            f"got {value!r}"
        )
    return backend


def resolve_engine_backend(engine: Optional[str] = None) -> str:
    """Backend name: explicit argument > ``RNR_ENGINE`` > ``fast``."""
    if engine is not None:
        return _validate_backend(engine, "engine")
    env = os.environ.get(ENGINE_ENV, "").strip()
    if env:
        return _validate_backend(env, ENGINE_ENV)
    return "fast"
