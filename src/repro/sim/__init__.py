"""Trace-driven system simulator: engines, metrics, and the ideal-LLC bound."""

from repro.sim.engine import SimulationEngine
from repro.sim.multicore import MulticoreEngine
from repro.sim.ideal import run_ideal
from repro.sim import metrics

__all__ = [
    "MulticoreEngine",
    "SimulationEngine",
    "metrics",
    "run_ideal",
]
