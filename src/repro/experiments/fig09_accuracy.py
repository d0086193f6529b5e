"""Fig 9: prefetching accuracy = useful prefetches / issued prefetches.

Paper headline: RnR averages 97.18 % accuracy; general-purpose spatial
prefetchers sit lowest on irregular inputs and reach ~50 % only on
roadUSA.
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
from repro.experiments.tables import MISSING, format_table, geomean, nanmean
from repro.sim import metrics

COLUMNS = ("nextline", "bingo", "stems", "misb", "droplet", "rnr", "rnr-combined")


def specs(runner: ExperimentRunner):
    """Cells this figure needs (for parallel prewarming)."""
    return [
        CellSpec(app, input_name, name)
        for app in APPS
        for input_name in inputs_for(app)
        for name in prefetchers_for(app)
    ]


def compute(runner: ExperimentRunner) -> Dict[str, Dict[str, Dict[str, float]]]:
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for app in APPS:
        out[app] = {}
        for input_name in inputs_for(app):
            row = {}
            for name in prefetchers_for(app):
                cell = runner.run(app, input_name, name)
                row[name] = MISSING if cell is None else metrics.accuracy(cell.stats)
            out[app][input_name] = row
    return out


def rnr_average_accuracy(data) -> float:
    """Mean RnR accuracy over every cell of :func:`compute`'s output."""
    values = [row["rnr"] for per_input in data.values() for row in per_input.values()]
    if not values:
        return 0.0
    return nanmean(values)


def report(runner: ExperimentRunner) -> str:
    data = compute(runner)
    rows = []
    for app, per_input in data.items():
        for input_name, row in per_input.items():
            rows.append(
                [f"{app}/{input_name}"]
                + [100.0 * row[c] if c in row else "-" for c in COLUMNS]
            )
        rows.append(
            [f"{app}/GEOMEAN"]
            + [
                100.0 * geomean([r[c] for r in per_input.values() if c in r])
                if any(c in r for r in per_input.values())
                else "-"
                for c in COLUMNS
            ]
        )
    table = format_table(
        ("workload",) + tuple(f"{c} %" for c in COLUMNS),
        rows,
        title="Fig 9 — prefetching accuracy (%)",
        footnote=runner.missing_note(),
    )
    average = rnr_average_accuracy(data)
    rendered = "-" if average != average else f"{100 * average:.1f}%"
    return (
        table
        + f"\n\nRnR average accuracy: {rendered}"
        + " (paper: 97.18%)"
    )
