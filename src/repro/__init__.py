"""repro — a reproduction of *RnR: A Software-Assisted Record-and-Replay
Hardware Prefetcher* (Zhang, Zeng, Shalf, Guo; MICRO 2020).

Top-level convenience imports cover the common workflow (shown on a
test-scale graph; the workloads need numpy):

>>> from repro import SystemConfig, SimulationEngine, make_prefetcher
>>> from repro.workloads import PageRankWorkload
>>> from repro.graphs import datasets
>>> config = SystemConfig.scaled()
>>> graph = datasets.make_graph("amazon", scale="test")
>>> workload = PageRankWorkload(graph, iterations=3, window_size=32)
>>> trace = workload.build_trace()
>>> stats = SimulationEngine(config, make_prefetcher("rnr")).run(trace)
>>> stats.prefetch.issued > 0
True
"""

from repro.config import LINE_SIZE, SystemConfig
from repro.stats import SimStats
from repro.sim.engine import SimulationEngine
from repro.sim.multicore import MulticoreEngine
from repro.prefetchers.registry import PREFETCHERS, make_prefetcher

__version__ = "1.0.0"

__all__ = [
    "LINE_SIZE",
    "MulticoreEngine",
    "PREFETCHERS",
    "SimStats",
    "SimulationEngine",
    "SystemConfig",
    "make_prefetcher",
    "__version__",
]
