"""The paper's checkable claims, one row each, read off the figures' data.

Section VII states numbers a reproduction can be held to: RnR averages
97.18 % accuracy, RnR-Combined cuts demand misses by 97.3/94.6/98.9 %,
window+pace control keeps about 100 % of prefetches on time, and the
hardware costs under 1 KB per core.  Each :class:`Claim` names the figure
(a ``python -m repro.experiments`` name) whose data it reads, the paper's
text, the quantity measured and its bound.  The bounds are loose next to
the bench-scale measurements in EXPERIMENTS.md: they catch a broken
figure, not a drift of a few points.

The CLI checks the claims of every figure it renders and exits 1 when one
reads ``FAILED``.  A claim reads ``unavailable`` when its figure's data
holds a cell a lenient sweep could not produce, and ``bench scale only``
at test scale when it holds only on the bench-scale inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.experiments import (
    ablations,
    fig06_speedup,
    fig07_mpki,
    fig09_accuracy,
    fig11_timeliness,
    hw_overhead,
)
from repro.experiments.tables import geomean

#: Every claim line starts with this.
PREFIX = "claim"
OK, FAILED, UNAVAILABLE, BENCH_ONLY = "ok", "FAILED", "unavailable", "bench scale only"

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "==": operator.eq}

#: The data each figure's claims read.
SOURCES = {
    "fig06": fig06_speedup.compute,
    "fig07": fig07_mpki.compute,
    "fig09": fig09_accuracy.compute,
    "fig11": fig11_timeliness.compute,
    "ablations": ablations.bandwidth_sweep,
    "hw": lambda runner: hw_overhead.compute(),
}


def _missing(data) -> bool:
    """Whether ``data`` holds a cell a lenient sweep could not produce."""
    if isinstance(data, dict):
        return any(map(_missing, data.values()))
    if isinstance(data, (list, tuple)):
        return any(map(_missing, data))
    return isinstance(data, float) and math.isnan(data)


@dataclass(frozen=True)
class Claim:
    """One paper claim: a bound on a quantity measured from a figure's data."""

    figure: str
    paper: str
    #: What ``measure`` returns, one value per label.
    quantity: str
    measure: Callable[[object], Dict[str, float]]
    #: Every measured value must satisfy ``value op bound``.
    op: str
    bound: float
    #: False when the claim holds only on the bench-scale inputs.
    test_scale: bool = True

    def _slack(self, value: float) -> float:
        """How far inside the bound ``value`` sits; the worst has the least."""
        if self.op == "==":
            return -abs(value - self.bound)
        return value - self.bound if self.op.startswith(">") else self.bound - value

    def check(self, runner) -> Tuple[str, str]:
        """(status, the line the CLI prints), judged on the worst value."""
        data = SOURCES[self.figure](runner)
        if _missing(data):
            status, measured = UNAVAILABLE, "has a missing input cell"
        else:
            values = self.measure(data).items()
            label, value = min(values, key=lambda item: self._slack(item[1]))
            status = OK if _OPS[self.op](value, self.bound) else FAILED
            if not self.test_scale and runner.scale != "bench":
                status = BENCH_ONLY
            measured = f"= {value:.4g} ({label})"
        return status, (
            f"{PREFIX} {self.figure} {status}: {self.paper}: "
            f"{self.quantity} {measured}, bound {self.op} {self.bound:g}"
        )


def _ideal_margins(data) -> Dict[str, float]:
    return {
        f"{app}/{inp}": row["ideal"] - row["rnr-combined"]
        for app, rows in data.items()
        for inp, row in rows.items()
    }


def _geomean_leads(data) -> Dict[str, float]:
    leads = {}
    for app in ("pagerank", "hyperanf"):
        rows = data[app].values()
        combined = geomean([row["rnr-combined"] for row in rows])
        for rival in ("nextline", "bingo", "stems", "droplet"):
            leads[f"{app} vs {rival}"] = combined - geomean([row[rival] for row in rows])
    return leads


def _on_time(data, mode: str) -> Dict[str, float]:
    return {f"{app}/{inp}": modes[mode]["on_time"] for (app, inp), modes in data.items()}


def _on_time_gains(data) -> Dict[str, float]:
    none = _on_time(data, "none")
    return {cell: share - none[cell] for cell, share in _on_time(data, "window+pace").items()}


CLAIMS: Tuple[Claim, ...] = (
    Claim("fig06", "the infinite-LLC ideal bounds RnR-Combined",
          "ideal - rnr-combined speedup", _ideal_margins, ">=", -0.05, test_scale=False),
    Claim("fig06", "RnR-Combined wins the graph-app geomeans",
          "rnr-combined geomean lead", _geomean_leads, ">", 0.0, test_scale=False),
    Claim("fig07", "RnR-Combined cuts demand misses by 97.3/94.6/98.9%",
          "miss reduction", fig07_mpki.mpki_reduction_summary, ">", 0.85),
    Claim("fig09", "RnR averages 97.18% accuracy", "average accuracy",
          lambda data: {"rnr": fig09_accuracy.rnr_average_accuracy(data)}, ">", 0.9),
    Claim("fig11", "~100% on time under window+pace control", "on-time share",
          lambda data: _on_time(data, "window+pace"), ">", 0.9),
    Claim("fig11", "no control is worse", "window+pace - none on-time share",
          _on_time_gains, ">", 0.0),
    Claim("ablations", "more bandwidth lifts RnR-Combined", "speedup gain from 1 to 4 channels",
          lambda data: {"pagerank/urand": data[4][1] - data[1][1]}, ">", 0.0, test_scale=False),
    Claim("hw", "< 1 KB per core", "storage bytes",
          lambda data: {"per core": data["per_core_bytes"]}, "<", 1024),
    Claim("hw", "< 0.01% of the chip", "area fraction",
          lambda data: {"per core": data["chip_fraction"]}, "<", 1e-4),
    Claim("hw", "86.5 B of context-switch state", "state bytes",
          lambda data: {"save/restore": data["save_restore_bytes"]}, "==", 86.5),
)
