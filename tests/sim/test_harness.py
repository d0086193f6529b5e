"""Tests for the prefetcher wiring shared by the runner and the examples."""

import pytest

from repro.config import SystemConfig
from repro.graphs.generators import uniform_random
from repro.prefetchers import make_prefetcher
from repro.sim.engine import SimulationEngine
from repro.sim.harness import wire_prefetcher
from repro.workloads import PageRankWorkload


def _workload():
    return PageRankWorkload(uniform_random(256, 4, seed=8), iterations=2,
                            window_size=8)


@pytest.fixture(scope="module")
def trace():
    return _workload().build_trace(rnr=False)


def _droplet_issued(trace, workload):
    prefetcher = make_prefetcher("droplet")
    if workload is not None:
        wire_prefetcher(prefetcher, workload)
    stats = SimulationEngine(SystemConfig.tiny(), prefetcher).run(trace)
    return stats.prefetch.issued


class TestCompare:
    """A DROPLET run wired to its workload against an unwired one."""

    def test_droplet_wired_automatically(self, trace):
        # A fresh workload stands in for a store-served trace: it never
        # built a trace, so the wiring must make its layout first.
        wired = _droplet_issued(trace, _workload())
        unwired = _droplet_issued(trace, None)
        assert wired > 0
        assert wired > unwired
