"""Shared run matrix for all experiments.

Every figure in the paper's evaluation draws from the same grid:

* applications x inputs (Table III): PageRank and Hyper-ANF over the four
  graphs, spCG over the four matrices;
* prefetcher configurations: no-prefetch baseline, Next-line, Bingo,
  SteMS, MISB, DROPLET (graph apps only), RnR, RnR-Combined, and the
  infinite-LLC ideal.

``ExperimentRunner`` memoizes workloads, traces, and simulation results so
that figures 1 and 6-13 can all be produced from one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.experiments import diskcache
from repro.graphs import datasets as graph_datasets
from repro.prefetchers import make_prefetcher
from repro.rnr.replayer import ControlMode
from repro.sim.engine import SimulationEngine
from repro.sim.harness import wire_prefetcher
from repro.sim.ideal import run_ideal
from repro.sparse import datasets as matrix_datasets
from repro.stats import SimStats
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.config import TelemetryConfig
from repro.trace.store import TraceStore, trace_key
from repro.trace.trace import Trace
from repro.workloads import HyperAnfWorkload, PageRankWorkload, SpCGWorkload
from repro.workloads.base import Workload

GRAPH_APPS = ("pagerank", "hyperanf")
MATRIX_APPS = ("spcg",)
APPS = GRAPH_APPS + MATRIX_APPS

GRAPH_INPUTS = graph_datasets.GRAPH_NAMES
MATRIX_INPUTS = matrix_datasets.MATRIX_NAMES

#: Prefetchers compared in Figs 6-9 (DROPLET only applies to graph apps,
#: exactly as in the paper: "the evaluation results do not include DROPLET
#: when running spCG").
COMPARED_PREFETCHERS = ("nextline", "bingo", "stems", "misb", "droplet", "rnr", "rnr-combined")


def inputs_for(app: str) -> Tuple[str, ...]:
    if app in GRAPH_APPS:
        return GRAPH_INPUTS
    if app in MATRIX_APPS:
        return MATRIX_INPUTS
    raise ValueError(f"unknown application {app!r}; known: {APPS}")


def prefetchers_for(app: str) -> Tuple[str, ...]:
    names = list(COMPARED_PREFETCHERS)
    if app in MATRIX_APPS:
        names.remove("droplet")
    return tuple(names)


class CellFailedError(RuntimeError):
    """Raised (in strict mode) when a figure asks for a cell that the
    supervised sweep already recorded as permanently failed."""


@dataclass
class CellResult:
    """One simulated (app, input, prefetcher) cell."""

    app: str
    input_name: str
    prefetcher: str
    stats: SimStats
    input_bytes: int


@dataclass(frozen=True)
class CellSpec:
    """Pickle-safe identity of one cell of the run matrix.

    ``window=None`` means the runner's default window; ``mode`` is the
    RnR :class:`~repro.rnr.replayer.ControlMode` (or None) exactly as the
    figure modules pass it to :meth:`ExperimentRunner.run`.
    """

    app: str
    input_name: str
    prefetcher: str
    mode: Optional[ControlMode] = None
    window: Optional[int] = None


class ExperimentRunner:
    """Builds workloads/traces once and memoizes every simulation.

    ``cache_dir`` enables the persistent cell cache: finished
    :class:`CellResult` objects are stored on disk and reloaded by any
    later runner with an identical (config, scale, seed, iterations,
    window, prefetcher, version) key — see :mod:`repro.experiments.diskcache`.
    Without it (the default) there is no cell cache.

    ``trace_store`` enables the content-addressed binary trace store: each
    workload's recorded reference stream is built at most once ever,
    written as a packed binary file, and mapped zero-copy (``mmap``) by
    every later run and worker — see :mod:`repro.trace.store`.  Without it
    (the default) every trace is built in memory.

    ``lenient=True`` turns missing cells into degraded output instead of
    exceptions: a cell that the supervised sweep marked failed — or that
    fails while a figure renders — returns ``None`` from :meth:`run`, and
    the figure modules print ``-`` with a footnote.  The default (strict)
    raises :class:`CellFailedError` for known-failed cells so CI cannot
    silently publish partial tables.
    """

    def __init__(
        self,
        scale: str = "bench",
        iterations: int = 3,
        window_size: int = 16,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
        lenient: bool = False,
        telemetry: Optional[TelemetryConfig] = None,
        trace_store: Optional[Union[str, Path]] = None,
    ):
        self.scale = scale
        self.iterations = iterations
        self.window_size = window_size
        self.config = config if config is not None else SystemConfig.experiment()
        self.seed = seed
        self.lenient = lenient
        # Telemetry config (None or disabled keeps the null collector).
        self.telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        self.cache = diskcache.DiskCellCache(cache_dir) if cache_dir else None
        self.trace_store = TraceStore(trace_store) if trace_store else None
        self._workloads: Dict[Tuple, Workload] = {}
        self._traces: Dict[Tuple, Trace] = {}
        self._results: Dict[Tuple, CellResult] = {}
        #: result-key -> human-readable reason, for cells the supervised
        #: sweep (or a lenient in-process run) could not produce.
        self.failed_cells: Dict[Tuple, str] = {}

    # ------------------------------------------------------------------
    def workload(
        self, app: str, input_name: str, window_size: Optional[int] = None
    ) -> Workload:
        window = window_size if window_size is not None else self.window_size
        key = (app, input_name, window)
        if key not in self._workloads:
            if app == "pagerank":
                graph = graph_datasets.make_graph(input_name, self.scale)
                wl = PageRankWorkload(graph, self.iterations, window)
            elif app == "hyperanf":
                graph = graph_datasets.make_graph(input_name, self.scale)
                wl = HyperAnfWorkload(graph, self.iterations, window)
            elif app == "spcg":
                matrix = matrix_datasets.make_matrix(input_name, self.scale)
                wl = SpCGWorkload(matrix, self.iterations, window)
            else:
                raise ValueError(f"unknown application {app!r}")
            self._workloads[key] = wl
        return self._workloads[key]

    def trace(
        self,
        app: str,
        input_name: str,
        rnr: bool,
        window_size: Optional[int] = None,
    ) -> Trace:
        window = window_size if window_size is not None else self.window_size
        key = (app, input_name, rnr, window)
        if key not in self._traces:
            build = lambda: self.workload(app, input_name, window).build_trace(rnr=rnr)
            if self.trace_store is not None:
                store_key = trace_key(
                    app=app,
                    input_name=input_name,
                    scale=self.scale,
                    iterations=self.iterations,
                    seed=self.seed,
                    window=window,
                    rnr=rnr,
                )
                self._traces[key] = self.trace_store.get_or_build(store_key, build)
            else:
                self._traces[key] = build()
        return self._traces[key]

    # ------------------------------------------------------------------
    def _make_prefetcher(self, name: str, app: str, input_name: str, mode, window):
        if name == "baseline":
            return None
        kwargs = {}
        if name in ("rnr", "rnr-combined") and mode is not None:
            kwargs["mode"] = mode
        prefetcher = make_prefetcher(name, **kwargs)
        wire_prefetcher(prefetcher, self.workload(app, input_name, window))
        return prefetcher

    def _result_key(
        self,
        app: str,
        input_name: str,
        prefetcher: str,
        mode: Optional[ControlMode],
        window_size: Optional[int],
    ) -> Tuple:
        window = window_size if window_size is not None else self.window_size
        return (app, input_name, prefetcher, mode, window)

    def _telemetry_cell(
        self,
        app: str,
        input_name: str,
        prefetcher: str,
        mode: Optional[ControlMode],
        window_size: Optional[int],
    ) -> str:
        """Relative artifact directory for one cell (one dir per variant)."""
        slug = prefetcher
        if mode is not None:
            slug += f"@{getattr(mode, 'value', mode)}"
        if window_size is not None:
            slug += f"-w{window_size}"
        return f"{app}/{input_name}/{slug}"

    def _cell_key(
        self,
        app: str,
        input_name: str,
        prefetcher: str,
        mode: Optional[ControlMode],
        window: int,
    ) -> str:
        return diskcache.cell_key(
            config=self.config,
            scale=self.scale,
            seed=self.seed,
            iterations=self.iterations,
            window=window,
            app=app,
            input_name=input_name,
            prefetcher=prefetcher,
            mode=mode,
        )

    def run(
        self,
        app: str,
        input_name: str,
        prefetcher: str,
        mode: Optional[ControlMode] = None,
        window_size: Optional[int] = None,
    ) -> Optional[CellResult]:
        """Simulate one cell (cached in memory and, if enabled, on disk).

        Returns ``None`` in lenient mode when the cell is known-failed or
        fails here; raises :class:`CellFailedError` for known-failed cells
        in strict mode (never silently re-simulating a cell that already
        failed under supervision).
        """
        window = window_size if window_size is not None else self.window_size
        key = (app, input_name, prefetcher, mode, window)
        if key in self._results:
            return self._results[key]
        if key in self.failed_cells:
            if self.lenient:
                return None
            raise CellFailedError(
                f"cell {app}/{input_name}/{prefetcher} failed during the "
                f"sweep ({self.failed_cells[key]}); re-run it or use --lenient"
            )
        cache = self.cache
        if cache is not None:
            disk_key = self._cell_key(app, input_name, prefetcher, mode, window)
            # A telemetry-enabled run always re-simulates: a cached result
            # would produce the numbers but none of the artifacts.
            cached = cache.get(disk_key) if self.telemetry is None else None
            if cached is not None:
                self._results[key] = cached
                return cached
        try:
            uses_rnr = prefetcher in ("rnr", "rnr-combined")
            trace = self.trace(app, input_name, rnr=uses_rnr, window_size=window)
            workload = self.workload(app, input_name, window)
            if prefetcher == "ideal":
                stats = run_ideal(self.config, trace)
            else:
                pf = self._make_prefetcher(prefetcher, app, input_name, mode, window)
                collector = (
                    TelemetryCollector(self.telemetry)
                    if self.telemetry is not None
                    else None
                )
                stats = SimulationEngine(
                    self.config, pf, collector=collector
                ).run(trace)
                if collector is not None:
                    cell = self._telemetry_cell(
                        app, input_name, prefetcher, mode, window_size
                    )
                    collector.export(self.telemetry.root / cell, cell)
        except Exception as exc:
            if not self.lenient:
                raise
            self.failed_cells[key] = f"error: {type(exc).__name__}: {exc}"
            return None
        result = CellResult(app, input_name, prefetcher, stats, workload.input_bytes)
        self._results[key] = result
        if cache is not None:
            cache.put(disk_key, result)
        return result

    def run_spec(self, spec: CellSpec) -> CellResult:
        """Simulate the cell named by a :class:`CellSpec` (cached)."""
        return self.run(
            spec.app,
            spec.input_name,
            spec.prefetcher,
            mode=spec.mode,
            window_size=spec.window,
        )

    def merge_result(self, spec: CellSpec, result: CellResult) -> None:
        """Adopt an externally simulated cell (e.g. from a sweep worker)."""
        key = self._result_key(
            spec.app, spec.input_name, spec.prefetcher, spec.mode, spec.window
        )
        self._results[key] = result
        self.failed_cells.pop(key, None)

    def mark_failed(self, spec: CellSpec, reason: str) -> None:
        """Record a cell the supervised sweep could not produce."""
        self.failed_cells[
            self._result_key(
                spec.app, spec.input_name, spec.prefetcher, spec.mode, spec.window
            )
        ] = reason

    def missing_note(self) -> str:
        """Footnote for degraded tables ('' when nothing failed)."""
        if not self.failed_cells:
            return ""
        count = len(self.failed_cells)
        return (
            f"- : {count} cell{'s' if count != 1 else ''} unavailable "
            "(failed during the sweep; see the sweep failure report)"
        )

    def baseline(self, app: str, input_name: str) -> Optional[CellResult]:
        """The no-prefetcher cell (cached)."""
        return self.run(app, input_name, "baseline")

    # ------------------------------------------------------------------
    def cells(self):
        """All (app, input) pairs of the evaluation grid."""
        for app in APPS:
            for input_name in inputs_for(app):
                yield app, input_name
