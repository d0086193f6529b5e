"""Fig 7: demand L2 MPKI per (application, input, prefetcher).

The paper reports that RnR-Combined reduces the demand miss ratio by
97.3 % / 94.6 % / 98.9 % for PageRank / Hyper-ANF / spCG; here the MPKI is
measured over the steady-state replay iterations (the record iteration is
RnR's training phase, as iteration 0 is for the hardware prefetchers).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import (
    APPS,
    CellSpec,
    ExperimentRunner,
    inputs_for,
    prefetchers_for,
)
from repro.experiments.tables import MISSING, format_table
from repro.sim.metrics import iteration_phases

COLUMNS = ("baseline", "nextline", "bingo", "stems", "misb", "droplet", "rnr", "rnr-combined")


def specs(runner: ExperimentRunner):
    """Cells this figure needs (for parallel prewarming)."""
    return [
        CellSpec(app, input_name, name)
        for app in APPS
        for input_name in inputs_for(app)
        for name in ("baseline",) + prefetchers_for(app)
    ]


def steady_state_mpki(stats) -> float:
    """MPKI over the iterations after the first (training/record)."""
    phases = iteration_phases(stats)[1:]
    instructions = sum(p.instructions for p in phases)
    misses = sum(p.l2_demand_misses for p in phases)
    if instructions == 0:
        return stats.l2_mpki
    return 1000.0 * misses / instructions


def compute(runner: ExperimentRunner) -> Dict[str, Dict[str, Dict[str, float]]]:
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for app in APPS:
        out[app] = {}
        names = ("baseline",) + prefetchers_for(app)
        for input_name in inputs_for(app):
            row = {}
            for name in names:
                cell = runner.run(app, input_name, name)
                row[name] = MISSING if cell is None else steady_state_mpki(cell.stats)
            out[app][input_name] = row
    return out


def mpki_reduction_summary(data) -> Dict[str, float]:
    """Average fractional MPKI reduction of RnR-Combined per application,
    from :func:`compute`'s output."""
    summary = {}
    for app, per_input in data.items():
        reductions = []
        for row in per_input.values():
            # NaN compares False, so cells a lenient sweep could not
            # produce simply drop out of the average.
            if row["baseline"] > 0 and row["rnr-combined"] == row["rnr-combined"]:
                reductions.append(1.0 - row["rnr-combined"] / row["baseline"])
        summary[app] = sum(reductions) / len(reductions) if reductions else 0.0
    return summary


def report(runner: ExperimentRunner) -> str:
    data = compute(runner)
    rows = []
    for app, per_input in data.items():
        for input_name, row in per_input.items():
            rows.append(
                [f"{app}/{input_name}"] + [row.get(c, "-") for c in COLUMNS]
            )
    table = format_table(
        ("workload",) + COLUMNS,
        rows,
        title="Fig 7 — steady-state demand L2 MPKI",
        footnote=runner.missing_note(),
    )
    summary = mpki_reduction_summary(data)
    lines = [table, "", "RnR-Combined demand-miss reduction (paper: 97.3%/94.6%/98.9%):"]
    for app, reduction in summary.items():
        lines.append(f"  {app}: {100 * reduction:.1f}%")
    return "\n".join(lines)
