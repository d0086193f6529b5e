"""Pin the ``SimStats.as_dict()`` digest of every test-scale figure cell.

Golden parity (fast == straight) cannot see a change to code both loops
share: ``CacheHierarchy._demand_miss``, ``prefetch_l2``, ``Cache.fill``
and the RnR replay chain.  These digests can.  They are the test-scale
cells of the figure-cell benchmark, read from ``perfbench/golden.json``
(regenerated only by ``perfbench/make_golden.py``, when a change is
meant to alter simulated statistics).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentRunner
from tests.helpers import stats_digest

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden.json"


def _golden_cells():
    payload = json.loads(GOLDEN.read_text())
    assert payload["seed"] == 0 and payload["backend"] == "fast", payload
    cells = {}
    for workload in payload["scales"]["test"]["workloads"].values():
        cells.update(workload)
    return sorted(cells.items())


CELLS = _golden_cells()


def test_all_seventeen_cells_are_pinned():
    assert len(CELLS) == 17


@pytest.fixture(scope="module")
def runner():
    # Plain ExperimentRunner at seed 0 builds the same inputs as the
    # benchmark's seeded runner; no cell cache or trace store, so every
    # digest comes from a fresh simulation.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("RNR_ENGINE", "fast")
        yield ExperimentRunner(scale="test", cache_dir="", trace_store="")


@pytest.mark.parametrize("cell,expected", CELLS, ids=[cell for cell, _ in CELLS])
def test_cell_digest_matches_golden(runner, cell, expected):
    app, input_name, prefetcher = cell.split("/")
    assert stats_digest(runner.run(app, input_name, prefetcher).stats) == expected
