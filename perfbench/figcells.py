"""Figure-cell workloads: seeded inputs, cold passes, golden digests.

A *pass* is one cold figure run: fresh cell-cache and trace-store
directories, a fresh runner, then

1. set-up -- input generation, trace build and trace-store write for
   every trace the workload needs;
2. simulate -- every cell, serially in-process (Fig 6 workloads) or
   through ``supervise.run_supervised_sweep`` (Fig 1);
3. render -- the figure table for the covered cells.

Everything goes through the public ``ExperimentRunner`` / ``supervise``
APIs.  The one benchmark-side piece is :class:`SeededRunner`, whose
``workload()`` regenerates each input from the benchmark seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments import fig01_scatter, supervise
from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.tables import format_table
from repro.graphs import datasets as graph_datasets
from repro.graphs.generators import community_graph, road_network, uniform_random
from repro.sim import metrics
from repro.sparse import datasets as matrix_datasets
from repro.sparse.generators import banded_random
from repro.workloads import PageRankWorkload, SpCGWorkload

DEFAULT_SEED = 0

#: Vertex / row counts of the named inputs per scale (``repro.graphs.datasets``
#: and ``repro.sparse.datasets``); :func:`assert_named_inputs` proves the
#: default seed still reproduces those inputs exactly.
GRAPH_VERTICES = {"bench": 16384, "test": 1536}
MATRIX_ROWS = {"bench": 12288, "test": 1024}

#: Generator seeds of the named Table-III inputs; seed ``s`` uses
#: ``named + 1000 * s``.
NAMED_SEEDS = {"urand": 11, "amazon": 12, "roadUSA": 14, "bbmat": 21}

WORKLOAD_CLASSES = {"pagerank": PageRankWorkload, "spcg": SpCGWorkload}

RNR_PREFETCHERS = ("rnr", "rnr-combined")


def make_input(input_name: str, scale: str, seed: int):
    """One Table-III input with the named generator's shape parameters."""
    gen_seed = NAMED_SEEDS[input_name] + 1000 * seed
    v = GRAPH_VERTICES[scale]
    if input_name == "urand":
        return uniform_random(v, avg_degree=4, seed=gen_seed)
    if input_name == "amazon":
        return community_graph(
            v, num_communities=max(2, v // 1024), avg_degree=6,
            intra_fraction=0.85, seed=gen_seed,
        )
    if input_name == "roadUSA":
        side = max(2, int(v**0.5))
        return road_network(side, side, extra_fraction=0.05, seed=gen_seed)
    n = MATRIX_ROWS[scale]
    return banded_random(n, bands=(1, 4, 32, n // 48 or 8), fill=0.6, seed=gen_seed)


def _same_input(a, b) -> bool:
    if hasattr(a, "offsets"):
        return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.targets, b.targets)
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def assert_named_inputs(spec: "WorkloadSpec", scale: str) -> None:
    """The default seed must reproduce ``make_graph`` / ``make_matrix``."""
    for app, input_name in spec.inputs:
        named = (
            graph_datasets.make_graph(input_name, scale)
            if app != "spcg"
            else matrix_datasets.make_matrix(input_name, scale)
        )
        if not _same_input(make_input(input_name, scale, DEFAULT_SEED), named):
            raise AssertionError(f"seed {DEFAULT_SEED} does not reproduce input {input_name!r}")


class SeededRunner(ExperimentRunner):
    """``ExperimentRunner`` whose inputs come from :func:`make_input` with
    the runner's ``seed`` (no process-wide memo, so every pass is cold)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seeded_workloads = {}

    def make_input(self, input_name: str):
        return make_input(input_name, self.scale, self.seed)

    def workload(self, app, input_name, window_size=None):
        window = window_size if window_size is not None else self.window_size
        key = (app, input_name, window)
        if key not in self._seeded_workloads:
            cls = WORKLOAD_CLASSES[app]
            self._seeded_workloads[key] = cls(self.make_input(input_name), self.iterations, window)
        return self._seeded_workloads[key]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    figure: str  # "fig6" or "fig1"
    inputs: Tuple[Tuple[str, str], ...]
    prefetchers: Tuple[str, ...]
    #: worker processes for the supervised sweep; 0 runs cells in-process
    jobs: int

    def cells(self) -> List[CellSpec]:
        return [
            CellSpec(app, input_name, pf)
            for app, input_name in self.inputs
            for pf in self.prefetchers
        ]

    def traces(self) -> List[Tuple[str, str, bool]]:
        """(app, input, rnr) of every trace the cells read."""
        out = []
        for app, input_name in self.inputs:
            for rnr in (False, True):
                if any((pf in RNR_PREFETCHERS) == rnr for pf in self.prefetchers):
                    out.append((app, input_name, rnr))
        return out


#: Each workload is a closed loop: one driver process, cells back to back,
#: at most ``nproc`` (2) sweep workers.  The Fig 6 cell sets are sized so
#: that a cold pass takes 5-10 s at bench scale and a run's median covers
#: several passes (see README.md for the regimes each one exercises).
#: ``fig6-spatial`` is run by hand only: ``BENCHMARK.json`` leaves it out
#: to keep the benchmark's runs within their time budget.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "fig6-irregular",
            "fig6",
            (("pagerank", "urand"),),
            ("baseline", "rnr"),
            jobs=0,
        ),
        WorkloadSpec(
            "fig6-spatial",
            "fig6",
            (("pagerank", "roadUSA"), ("spcg", "bbmat")),
            ("baseline", "nextline", "bingo", "stems"),
            jobs=0,
        ),
        WorkloadSpec(
            "fig1-sweep",
            "fig1",
            ((fig01_scatter.APP, fig01_scatter.INPUT),),
            ("baseline",) + fig01_scatter.PREFETCHERS,
            jobs=min(2, multiprocessing.cpu_count()),
        ),
    )
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest(stats) -> str:
    """sha256 of the canonical JSON of ``SimStats.as_dict()``."""
    blob = json.dumps(stats.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# One cold pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    setup_s: float
    simulate_s: float
    render_s: float
    wall_s: float
    entries: int
    table: str
    #: cell name -> digest, for the cells that produced a result
    digests: Dict[str, str]
    #: cell name -> reason, for cells that raised or timed out
    failures: Dict[str, str]
    #: cell name -> CellResult
    results: Dict[str, object]
    #: figure values keyed like the reference table, see :func:`render`
    values: Dict[Tuple[str, str], float]
    #: sum of per-cell simulate seconds / (workers x simulate seconds)
    worker_busy_frac: float

    @property
    def sim_entries_per_s(self) -> float:
        return self.entries / self.simulate_s


def setup(runner: ExperimentRunner, spec: WorkloadSpec) -> Dict[Tuple[str, str, bool], int]:
    """Generate inputs, build every trace and write it to the store."""
    return {
        (app, input_name, rnr): len(runner.trace(app, input_name, rnr=rnr))
        for app, input_name, rnr in spec.traces()
    }


@contextmanager
def sweep_runner_class(cls):
    """Sweep workers build ``supervise.ExperimentRunner(**kwargs)``; point
    that name at ``cls`` for the sweep (forked workers inherit it)."""
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("the fig1-sweep workload needs the 'fork' start method")
    saved = supervise.ExperimentRunner
    supervise.ExperimentRunner = cls
    try:
        yield
    finally:
        supervise.ExperimentRunner = saved


def _simulate_serial(runner, cells):
    results, failures, busy = {}, {}, 0.0
    for spec in cells:
        began = time.perf_counter()
        try:
            results[supervise.cell_id(spec)] = runner.run_spec(spec)
        except Exception as exc:  # noqa: BLE001 - a failed cell is reported, not fatal
            failures[supervise.cell_id(spec)] = f"{type(exc).__name__}: {exc}"
        busy += time.perf_counter() - began
    return results, failures, busy, 1


def _simulate_sweep(runner, cells, jobs):
    with sweep_runner_class(SeededRunner):
        report = supervise.run_supervised_sweep(runner, specs=cells, jobs=jobs)
    failures = {f.cell: f"{f.kind}: {f.message}" for f in report.failures}
    if report.interrupted:
        raise KeyboardInterrupt
    results = {}
    for spec in cells:
        name = supervise.cell_id(spec)
        if name not in failures:
            results[name] = runner.run_spec(spec)  # memo hit: merged by the sweep
    manifest = supervise.SweepManifest.load(supervise.default_manifest_path(runner))
    busy = sum(entry.get("duration_s", 0.0) for entry in manifest.cells.values())
    return results, failures, busy, jobs


def render(runner: ExperimentRunner, spec: WorkloadSpec) -> Tuple[str, Dict[Tuple[str, str], float]]:
    """The figure table, and its values keyed (row, column) as
    ``results_bench_reference.txt`` prints them."""
    values = {}
    if spec.figure == "fig1":
        for pf, (cov, acc) in fig01_scatter.compute(runner).items():
            values[(pf, "coverage %")] = 100.0 * cov
            values[(pf, "accuracy %")] = 100.0 * acc
        return fig01_scatter.report(runner), values
    columns = [pf for pf in spec.prefetchers if pf != "baseline"]
    rows = []
    for app, input_name in spec.inputs:
        row = f"{app}/{input_name}"
        base = runner.baseline(app, input_name)
        for pf in columns:
            cell = runner.run(app, input_name, pf)
            values[(row, pf)] = metrics.amortized_speedup(base.stats, cell.stats)
        rows.append([row] + [values[(row, pf)] for pf in columns])
    table = format_table(
        ["workload"] + columns,
        rows,
        title="Fig 6 — speedup over no-prefetcher baseline (100-iteration amortized)",
    )
    return table, values


def fresh_runner(scale: str, seed: int, root: Path) -> SeededRunner:
    """A runner with an empty cell cache and trace store under ``root``."""
    return SeededRunner(scale=scale, seed=seed, cache_dir=root / "cells", trace_store=root / "traces")


def run_pass(spec: WorkloadSpec, scale: str, seed: int, root: Path) -> PassResult:
    """One cold pass with its cell cache and trace store under ``root``."""
    began = time.perf_counter()
    runner = fresh_runner(scale, seed, root)
    lengths = setup(runner, spec)
    set_up = time.perf_counter()
    cells = spec.cells()
    if spec.jobs:
        results, failures, busy, workers = _simulate_sweep(runner, cells, spec.jobs)
    else:
        results, failures, busy, workers = _simulate_serial(runner, cells)
    simulated = time.perf_counter()
    table, values = render(runner, spec) if not failures else ("", {})
    rendered = time.perf_counter()
    entries = sum(
        lengths[(c.app, c.input_name, c.prefetcher in RNR_PREFETCHERS)] for c in cells
    )
    return PassResult(
        setup_s=set_up - began,
        simulate_s=simulated - set_up,
        render_s=rendered - simulated,
        wall_s=rendered - began,
        entries=entries,
        table=table,
        digests={name: digest(result.stats) for name, result in results.items()},
        failures=failures,
        results=results,
        values=values,
        worker_busy_frac=busy / (workers * (simulated - set_up)),
    )


def time_setup(spec: WorkloadSpec, scale: str, seed: int, root: Path) -> float:
    """Set-up only (fresh runner, fresh store under ``root``)."""
    began = time.perf_counter()
    setup(fresh_runner(scale, seed, root), spec)
    return time.perf_counter() - began


def straight_digests(scale: str, seed: int, store: Path, cells) -> Dict[str, str]:
    """Digests of ``cells`` simulated by the ``straight`` reference loops,
    reading the traces a pass left in ``store``."""
    runner = SeededRunner(scale=scale, seed=seed, trace_store=store)
    saved = os.environ.get("RNR_ENGINE")
    os.environ["RNR_ENGINE"] = "straight"
    try:
        return {supervise.cell_id(c): digest(runner.run_spec(c).stats) for c in cells}
    finally:
        if saved is None:
            os.environ.pop("RNR_ENGINE", None)
        else:
            os.environ["RNR_ENGINE"] = saved


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def mismatches(digests: Dict[str, str], expected: Dict[str, str]) -> Dict[str, str]:
    """cell -> reason for every expected cell whose digest differs or is missing."""
    out = {}
    for name, want in expected.items():
        got = digests.get(name)
        if got is None:
            out[name] = "no result"
        elif got != want:
            out[name] = f"digest {got[:12]} != expected {want[:12]}"
    return out


class Checker:
    """Counts cell failures over every pass of a run and names them.

    A cell fails in a pass when it raised or timed out, when its digest
    differs from the expected one (golden or straight), or when it differs
    from the same cell's digest in pass 0.
    """

    def __init__(self, cells: List[CellSpec]):
        self.cells = cells
        self.attempted = 0
        self.failures: List[str] = []  # "pass N: cell: reason"
        self._passes: List[PassResult] = []

    def add_pass(self, result: PassResult) -> None:
        self._passes.append(result)

    def finish(self, expected: Dict[str, str]) -> None:
        """Check every pass against ``expected`` (cell -> digest) and pass 0."""
        first = self._passes[0].digests
        for index, result in enumerate(self._passes):
            self.attempted += len(self.cells)
            bad = dict(result.failures)
            for name, reason in mismatches(result.digests, expected).items():
                bad.setdefault(name, reason)
            for name, got in result.digests.items():
                if name not in bad and first.get(name) != got:
                    bad[name] = "digest differs from pass 0"
            for name, reason in sorted(bad.items()):
                self.failures.append(f"pass {index}: {name}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_golden(path: Path, scale: str, workload: str) -> Dict[str, str]:
    payload = json.loads(Path(path).read_text())
    return payload["scales"][scale]["workloads"][workload]


# ----------------------------------------------------------------------
# Reference figures
# ----------------------------------------------------------------------
_TITLES = {"fig6": "Fig 6 ", "fig1": "Fig 1 "}


def load_reference(path: Path, figure: str) -> Dict[Tuple[str, str], str]:
    """(row, column) -> printed value from one figure block of
    ``results_bench_reference.txt``."""
    lines = Path(path).read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(_TITLES[figure]))
    headers = re.split(r"\s{2,}", lines[start + 1].strip())
    out = {}
    for line in lines[start + 3:]:
        if not line.strip() or line.startswith("["):
            break
        cells = line.split()
        for column, value in zip(headers[1:], cells[1:]):
            out[(cells[0], column)] = value
    return out


def reference_errors(values, reference) -> Tuple[float, List[str], List[Tuple[str, str]]]:
    """Max |value - reference|, the cells that differ at the printed
    precision, and the cells the reference has no value for."""
    worst = 0.0
    differ, missing = [], []
    for key, value in sorted(values.items()):
        printed = reference.get(key)
        if printed is None:
            missing.append(key)
            continue
        if printed == "-" or math.isnan(value):
            continue
        worst = max(worst, abs(value - float(printed)))
        if f"{value:.2f}" != printed:
            differ.append(f"{key[0]} {key[1]}: {value:.2f} vs reference {printed}")
    return worst, differ, missing
