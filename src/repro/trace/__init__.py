"""Memory-access traces.

Workloads execute their real algorithms against a simulated virtual
address space and emit a trace of loads/stores (with instruction-gap
annotations, standing in for the paper's PIN-extracted kernel traces) plus
embedded RnR programming-interface directives (Table I calls)."""

from repro.trace.record import (
    KIND_DIRECTIVE,
    KIND_LOAD,
    KIND_STORE,
    Directive,
    TraceRecord,
)
from repro.trace.trace import Trace
from repro.trace.builder import TraceBuilder
from repro.trace.address_space import AddressSpace, Region
from repro.trace.binfmt import MappedTrace, TraceFormatError
from repro.trace.store import TraceStore

__all__ = [
    "AddressSpace",
    "Directive",
    "KIND_DIRECTIVE",
    "KIND_LOAD",
    "KIND_STORE",
    "MappedTrace",
    "Region",
    "Trace",
    "TraceBuilder",
    "TraceFormatError",
    "TraceRecord",
    "TraceStore",
]
