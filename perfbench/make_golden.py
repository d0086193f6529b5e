#!/usr/bin/env python3
"""Regenerate ``golden.json``: one digest per cell per workload per scale.

Run from the root of a checkout::

    python3 perfbench/make_golden.py

Every cell is simulated at the default seed with the ``fast`` backend,
then again with the ``straight`` reference loops; the file is written
only if both give identical digests, and it records that check with the
git sha and Python version it was made with.  Regenerate it only when a
change is meant to alter simulated statistics.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import GOLDEN, ROOT, fresh_dir, git_sha, import_program, isolate_environment, scratch_base


def golden_scales(base) -> dict:
    """scale -> {straight_check, workloads: {workload: {cell: digest}}}."""
    import figcells

    scales = {}
    for scale in ("test", "bench"):
        workloads = {}
        cells = 0
        for name, spec in figcells.WORKLOADS.items():
            figcells.assert_named_inputs(spec, scale)
            with fresh_dir(base) as root:
                result = figcells.run_pass(spec, scale, figcells.DEFAULT_SEED, root)
                if result.failures:
                    sys.exit(f"{name}: cells failed: {result.failures}")
                straight = figcells.straight_digests(
                    scale, figcells.DEFAULT_SEED, root / "traces", spec.cells()
                )
            if straight != result.digests:
                bad = figcells.mismatches(result.digests, straight)
                sys.exit(f"{name} ({scale}): fast != straight for {sorted(bad)}")
            workloads[name] = dict(sorted(result.digests.items()))
            cells += len(result.digests)
            print(f"{scale} {name}: {len(result.digests)} cells, fast == straight", flush=True)
        scales[scale] = {
            "straight_check": {"identical": True, "cells": cells},
            "workloads": workloads,
        }
    return scales


def main() -> int:
    isolate_environment()
    import_program()
    import figcells

    with scratch_base() as base:
        scales = golden_scales(base)
    payload = {
        "digest": "sha256 of json.dumps(SimStats.as_dict(), sort_keys=True, separators=(',', ':'))",
        "seed": figcells.DEFAULT_SEED,
        "backend": os.environ["RNR_ENGINE"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "scales": scales,
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
