"""High-level one-call comparison harness.

Wraps the build-trace / simulate / compare pattern used by the examples
and by downstream users:

    from repro.sim.harness import compare_prefetchers
    results = compare_prefetchers(workload, ["nextline", "rnr"])
    print(results["rnr"].amortized_speedup)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.config import SystemConfig
from repro.prefetchers import make_prefetcher
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.droplet import DropletPrefetcher
from repro.prefetchers.imp import IMPPrefetcher
from repro.sim import metrics
from repro.sim.engine import SimulationEngine
from repro.stats import SimStats

if TYPE_CHECKING:
    # Annotation only: the workloads need numpy, and ``repro.sim`` (hence
    # ``import repro``) must import without it.
    from repro.workloads.base import Workload


@dataclass
class ComparisonResult:
    """One prefetcher's outcome against the shared baseline."""

    name: str
    stats: SimStats
    baseline: SimStats

    @property
    def speedup(self) -> float:
        """End-to-end speedup over the no-prefetcher baseline."""
        return metrics.speedup(self.baseline, self.stats)

    @property
    def amortized_speedup(self) -> float:
        """100-iteration amortized speedup (paper Fig 6)."""
        return metrics.amortized_speedup(self.baseline, self.stats)

    @property
    def accuracy(self) -> float:
        """Useful / issued prefetches (paper Fig 9)."""
        return metrics.accuracy(self.stats)

    @property
    def coverage(self) -> float:
        """Useful prefetches / baseline misses (paper Fig 8)."""
        return metrics.coverage(self.baseline, self.stats)

    @property
    def extra_traffic(self) -> float:
        """Additional off-chip traffic ratio (paper Fig 12)."""
        return metrics.additional_traffic_ratio(self.baseline, self.stats)


def wire_prefetcher(prefetcher, workload: Workload) -> None:
    """Connect DROPLET's resolver and IMP's value reader (also inside a
    composite) to ``workload``'s data callbacks.

    The callbacks read the workload's address-space layout, which a trace
    served from the trace store never built, so the layout is made first.
    """
    children = (
        prefetcher.children
        if isinstance(prefetcher, CompositePrefetcher)
        else [prefetcher]
    )
    for child in children:
        if isinstance(child, (DropletPrefetcher, IMPPrefetcher)):
            workload.ensure_layout()
        if isinstance(child, DropletPrefetcher):
            child.resolver = getattr(workload, "edge_line_values", None)
        if isinstance(child, IMPPrefetcher):
            child.value_reader = workload.read_int


def compare_prefetchers(
    workload: Workload,
    prefetchers: Sequence[str],
    config: Optional[SystemConfig] = None,
) -> Dict[str, ComparisonResult]:
    """Run ``workload`` under each named prefetcher plus the baseline.

    The workload's traces (with and without RnR annotations) are built
    once; data-dependent prefetchers (DROPLET, IMP) are wired to the
    workload's resolver callbacks automatically, as in the paper's setup.
    """
    config = config if config is not None else SystemConfig.experiment()
    plain_trace = workload.build_trace(rnr=False)
    annotated_trace = None
    baseline = SimulationEngine(config).run(plain_trace)

    results: Dict[str, ComparisonResult] = {}
    for name in prefetchers:
        if name == "baseline":
            results[name] = ComparisonResult(name, baseline, baseline)
            continue
        uses_rnr = "rnr" in name
        if uses_rnr and annotated_trace is None:
            annotated_trace = workload.build_trace(rnr=True)
        prefetcher = make_prefetcher(name)
        wire_prefetcher(prefetcher, workload)
        trace = annotated_trace if uses_rnr else plain_trace
        stats = SimulationEngine(config, prefetcher).run(trace)
        results[name] = ComparisonResult(name, stats, baseline)
    return results
