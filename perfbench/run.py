#!/usr/bin/env python3
"""Figure-cell benchmark: cold Fig 6 / Fig 1 cells, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-irregular --seed 0 --seconds 45 --trace 0

``--trace 0`` runs cold passes (fresh cell cache and trace store, fresh
runner) until ``--seconds`` are used up, at least two, with set-up-only
repetitions before, between and after them, and prints the end-to-end
metrics as medians.  The metric names and units come from
``BENCHMARK.json``.  ``--trace 1`` runs one
untraced pass and one pass with every layer boundary wrapped
(``layers.py``) and prints the per-layer metrics and the tracing
overhead.  Both check every cell's ``SimStats.as_dict()`` digest: against
``golden.json`` at the default seed, against the ``straight`` reference
loops (a seeded sample of cells) at any other seed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (cells x
passes), ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
REFERENCE = ROOT / "results_bench_reference.txt"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-up-only repetitions before the first pass and after every pass.
#: With each pass's own set-up they give the samples ``setup_s`` is the
#: median of, spread over the whole run so that one slow host episode
#: cannot take most of them.
SETUPS_PER_GAP = 2
#: Cells re-simulated with the straight loops at a non-default seed.
STRAIGHT_SAMPLE = 1
#: Passes per run even past ``--seconds``: a median over one pass would
#: take a single host slowdown at full weight.
MIN_PASSES = 2

#: Variables that select backends, caches, workers, faults or timeouts;
#: every ``RNR_*`` variable is cleared and the backend is pinned.
NAMED_ENV = (
    "RNR_ENGINE", "RNR_STRAIGHT_ENGINE", "RNR_CACHE_DIR", "RNR_TRACE_STORE",
    "RNR_TELEMETRY", "RNR_JOBS", "RNR_FAULTS", "RNR_VECTOR_EPOCH", "RNR_CELL_TIMEOUT",
)
#: numpy's BLAS would otherwise run SpCG's vector products on both cores,
#: so set-up time would hang on what else holds the second core, and two
#: sweep workers would oversubscribe the host.
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def isolate_environment() -> None:
    """Clear the program's variables and pin the backend and the BLAS pools
    (before numpy is imported)."""
    for name in [n for n in os.environ if n.startswith("RNR_")] + list(NAMED_ENV):
        os.environ.pop(name, None)
    os.environ["RNR_ENGINE"] = "fast"
    for name in BLAS_THREADS_ENV:
        os.environ[name] = "1"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'repro'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``), so
    each pass reports its own peak rather than the run's."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak RSS of this process since the last reset, or of the largest
    reaped child (sweep worker), whichever is larger."""
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextmanager
def scratch_base():
    """A private directory under ``.perfbench-tmp/`` in the checkout for every
    temporary file of this process; removed on exit."""
    parent = ROOT / ".perfbench-tmp"
    parent.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=parent))
    tempfile.tempdir = str(base)
    os.environ["TMPDIR"] = str(base)
    try:
        yield base
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


@contextmanager
def fresh_dir(base: Path):
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def straight_check(spec, scale, seed, store):
    """Re-simulate a seeded sample of cells with the straight loops."""
    import figcells
    from repro.experiments.supervise import cell_id

    cells = random.Random(seed).sample(spec.cells(), STRAIGHT_SAMPLE)
    print(f"straight check: {', '.join(cell_id(c) for c in cells)}", flush=True)
    return figcells.straight_digests(scale, seed, store, cells)


def expected_digests(spec, args):
    """Golden digests at the default seed; None (straight check) otherwise."""
    import figcells

    if args.seed != figcells.DEFAULT_SEED:
        return None
    return figcells.load_golden(GOLDEN, args.scale, spec.name)


def untraced(spec, args, base):
    import figcells

    expected = expected_digests(spec, args)
    checker = figcells.Checker(spec.cells())
    passes, setups = [], []
    straight = None

    def setup_gap():
        for _ in range(SETUPS_PER_GAP):
            with fresh_dir(base) as root:
                setups.append(figcells.time_setup(spec, args.scale, args.seed, root))

    began = time.perf_counter()
    setup_gap()
    done = False
    while not done:
        with fresh_dir(base) as root:
            if not passes:
                reset_peak_rss()
            result = figcells.run_pass(spec, args.scale, args.seed, root)
            if not passes:
                # Later passes start from the arenas earlier ones left
                # behind, so only the first pass's peak is comparable
                # between runs with different pass counts.
                rss = peak_rss_mb()
            passes.append(result)
            setups.append(result.setup_s)
            checker.add_pass(result)
            print(
                f"pass {len(passes) - 1}: wall {result.wall_s:.3f}s setup {result.setup_s:.3f}s "
                f"simulate {result.simulate_s:.3f}s render {result.render_s:.4f}s "
                f"entries {result.entries} failures {len(result.failures)}",
                flush=True,
            )
            # Another pass only if it and the set-up gaps on either side
            # of it end within --seconds.
            gap_s = SETUPS_PER_GAP * statistics.median(setups)
            next_end = (
                time.perf_counter() - began
                + 2 * gap_s + statistics.median(p.wall_s for p in passes)
            )
            done = len(passes) >= MIN_PASSES and next_end > args.seconds
            if done and expected is None:
                straight = straight_check(spec, args.scale, args.seed, root / "traces")
        setup_gap()
    checker.finish(expected if expected is not None else straight)
    print(passes[0].table)
    print("setup samples: " + " ".join(f"{s:.3f}" for s in setups))
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "sim_entries_per_s": statistics.median(p.sim_entries_per_s for p in passes),
        "peak_rss_mb": rss,
    }
    summary = dict(metrics, cell_fail_rate=checker.fail_rate, passes=len(passes))
    print("summary: " + json.dumps(summary))
    return checker, metrics


def traced(spec, args, base):
    import figcells
    import layers

    expected = expected_digests(spec, args)
    checker = figcells.Checker(spec.cells())
    probe = layers.LayerTracer(spans=False)
    with fresh_dir(base) as root:
        dumps = root / "workers"
        dumps.mkdir()
        with probe.installed(worker_dump_dir=dumps):
            plain = figcells.run_pass(spec, args.scale, args.seed, root)
        probe.merge_workers(dumps)
    checker.add_pass(plain)
    tracer = layers.LayerTracer()
    with fresh_dir(base) as root:
        dumps = root / "workers"
        dumps.mkdir()
        with tracer.installed(worker_dump_dir=dumps):
            result = figcells.run_pass(spec, args.scale, args.seed, root)
        tracer.merge_workers(dumps)
        checker.add_pass(result)
        straight = None
        if expected is None:
            straight = straight_check(spec, args.scale, args.seed, root / "traces")
    # Pass 1 (traced) is checked against pass 0 (untraced) digest by digest.
    checker.finish(expected if expected is not None else straight)
    if tracer.loops != probe.loops:
        checker.failures.append(
            f"traced loop choice {dict(tracer.loops)} != untraced {dict(probe.loops)}"
        )
    print(result.table)
    print(tracer.render())
    print(
        f"traced vs untraced: wall {result.wall_s:.3f}s / {plain.wall_s:.3f}s, "
        f"loops {dict(tracer.loops)} / {dict(probe.loops)}, "
        f"sweep workers reporting {len(tracer.workers)}"
    )
    reference = figcells.load_reference(REFERENCE, spec.figure)
    ref_err, differ, missing = figcells.reference_errors(result.values, reference)
    for line in differ:
        print(f"differs from reference: {line}")
    if args.seed == figcells.DEFAULT_SEED:
        # The reference holds every covered cell at the default seed; a
        # cell it lacks would leave ref_max_abs_err unchecked.
        checker.failures += [f"no reference value for {row} {column}" for row, column in missing]
    metrics = layer_metrics(tracer, result, plain, checker, ref_err)
    return checker, metrics


def layer_metrics(tracer, result, plain, checker, ref_err):
    from figcells import RNR_PREFETCHERS

    spans = tracer.by_span()

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    stats = [r.stats for r in result.results.values()]
    rnr_stats = [
        r.stats for r in result.results.values() if r.prefetcher in RNR_PREFETCHERS
    ]

    def level_ratio(level):
        accesses = sum(getattr(s, level).demand_accesses for s in stats)
        return sum(getattr(s, level).demand_misses for s in stats) / accesses

    def metadata(s):
        return s.traffic.metadata_read_lines + s.traffic.metadata_write_lines

    instructions = sum(s.instructions for s in stats)
    cycles = sum(s.cycles for s in stats)
    issued = sum(s.prefetch.issued for s in stats)
    useful = sum(s.prefetch.useful for s in stats)
    out = {
        "trace.input_s": total("trace.input"),
        "trace.build_s": total("trace.build"),
        "trace.entries": tracer.counters["trace.entries"],
        "trace.store_write_s": total("trace.store_write"),
        "trace.store_bytes": tracer.counters["trace.store_bytes"],
        "trace.store_load_s": total("trace.store_load"),
        "sim.run_s": total("sim.run"),
        "sim.self_s": self_s("sim.run"),
        "cpu.instructions": instructions,
        "cpu.cycles": cycles,
        "cpu.ipc": instructions / cycles,
        "cache.l1d.miss_ratio": level_ratio("l1d"),
        "cache.l2.miss_ratio": level_ratio("l2"),
        "cache.llc.miss_ratio": level_ratio("llc"),
        "cache.mshr_stalls": tracer.counters["cache.mshr_stalls"],
        "mem.demand_lines": sum(s.traffic.demand_lines for s in stats),
        "mem.prefetch_lines": sum(s.traffic.prefetch_lines for s in stats),
        "mem.metadata_lines": sum(metadata(s) for s in stats),
        "mem.writeback_lines": sum(s.traffic.writeback_lines for s in stats),
        "prefetchers.issued": issued,
        "prefetchers.useful": useful,
        "prefetchers.dropped": sum(s.prefetch.dropped for s in stats),
        "prefetchers.late": sum(s.prefetch.late for s in stats),
        "prefetchers.accuracy": useful / issued if issued else 0.0,
        "rnr.windows_recorded": sum(s.rnr.windows_recorded for s in stats),
        "rnr.metadata_lines": sum(metadata(s) for s in rnr_stats),
        "experiments.cache_put.calls": calls("experiments.cache_put"),
        "experiments.cache_put.s": total("experiments.cache_put"),
        "experiments.cache_get.calls": calls("experiments.cache_get"),
        "experiments.cache_get.s": total("experiments.cache_get"),
        "experiments.render_s": result.render_s,
        "experiments.dispatch_groups": calls("experiments.dispatch"),
        "experiments.worker_busy_frac": plain.worker_busy_frac,
        "experiments.ref_max_abs_err": ref_err,
        "experiments.cell_fail_rate": checker.fail_rate,
        "trace_overhead": result.wall_s / plain.wall_s,
    }
    for span in (
        "cache.demand_miss", "cache.fill", "cache.prefetch_l2",
        "mem.read_demand", "mem.read", "mem.write", "mem.dram_service",
        "prefetchers.on_access", "prefetchers.on_l2_event",
        "rnr.on_access", "rnr.on_l2_event", "rnr.replay", "rnr.record_miss",
    ):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = self_s(span)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "test"), default="bench")
    args = parser.parse_args(argv)

    isolate_environment()
    import_program()
    import figcells
    from repro.sim.backend import resolve_engine_backend

    if args.workload not in figcells.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(figcells.WORKLOADS)}")
    spec = figcells.WORKLOADS[args.workload]
    print(
        "provenance: "
        + json.dumps(
            {
                "workload": spec.name,
                "git_sha": git_sha(),
                "backend": resolve_engine_backend(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "scale": args.scale,
                "seed": args.seed,
                "trace": args.trace,
            }
        ),
        flush=True,
    )
    if args.seed == figcells.DEFAULT_SEED:
        figcells.assert_named_inputs(spec, args.scale)
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    with scratch_base() as base:
        if args.trace:
            checker, metrics = traced(spec, args, base)
        else:
            checker, metrics = untraced(spec, args, base)
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")
    for line in checker.failures:
        print(f"FAILED {line}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
