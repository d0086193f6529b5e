"""Prefetcher wiring shared by the runner, the ablations and the examples.

Data-dependent prefetchers read workload state through callbacks; this
module connects them to a workload before a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.droplet import DropletPrefetcher

if TYPE_CHECKING:
    # Annotation only: the workloads need numpy, and ``repro.sim`` (hence
    # ``import repro``) must import without it.
    from repro.workloads.base import Workload


def wire_prefetcher(prefetcher, workload: Workload) -> None:
    """Connect DROPLET's resolver (also inside a composite) to
    ``workload``'s edge-line callback.

    The callback reads the workload's address-space layout, which a trace
    served from the trace store never built, so the layout is made first.
    """
    children = (
        prefetcher.children
        if isinstance(prefetcher, CompositePrefetcher)
        else [prefetcher]
    )
    for child in children:
        if isinstance(child, DropletPrefetcher):
            workload.ensure_layout()
            child.resolver = getattr(workload, "edge_line_values", None)
