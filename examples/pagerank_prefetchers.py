#!/usr/bin/env python3
"""Compare prefetchers on PageRank (a miniature of the paper's Fig 6/8/9).

Runs the Ligra-style pull PageRank over a synthetic uniform-random graph
(the paper's hardest input class) under every prefetcher of the paper's
evaluation and prints speedup, coverage, and accuracy per prefetcher.

Run:  python examples/pagerank_prefetchers.py [graph]
      graph in {urand, amazon, com-orkut, roadUSA}; default urand
"""

import sys

from repro import SimulationEngine, SystemConfig, make_prefetcher
from repro.experiments.tables import format_table
from repro.graphs import datasets
from repro.sim import metrics
from repro.sim.harness import wire_prefetcher
from repro.workloads import PageRankWorkload

PREFETCHERS = ("nextline", "bingo", "stems", "misb", "droplet", "rnr", "rnr-combined")


def main():
    graph_name = sys.argv[1] if len(sys.argv) > 1 else "urand"
    graph = datasets.make_graph(graph_name, "test")
    print(f"PageRank on {graph_name}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges (locality {graph.locality_score():.3f})")

    config = SystemConfig.experiment()
    workload = PageRankWorkload(graph, iterations=3, window_size=16)
    plain_trace = workload.build_trace(rnr=False)
    rnr_trace = workload.build_trace(rnr=True)

    baseline = SimulationEngine(config).run(plain_trace)
    print(f"baseline: IPC {baseline.ipc:.3f}, L2 MPKI {baseline.l2_mpki:.1f}")

    rows = []
    for name in PREFETCHERS:
        prefetcher = make_prefetcher(name)
        wire_prefetcher(prefetcher, workload)
        trace = rnr_trace if "rnr" in name else plain_trace
        stats = SimulationEngine(config, prefetcher).run(trace)
        rows.append(
            (
                name,
                metrics.amortized_speedup(baseline, stats),
                100 * metrics.coverage(baseline, stats),
                100 * metrics.accuracy(stats),
                100 * metrics.additional_traffic_ratio(baseline, stats),
            )
        )
    print()
    print(
        format_table(
            ("prefetcher", "speedup", "coverage %", "accuracy %", "extra traffic %"),
            rows,
        )
    )
    print(f"\nPageRank converged: final L1 error {workload.error_history[-1]:.2e}")


if __name__ == "__main__":
    main()
