#!/usr/bin/env python3
"""Self-tests of the figure-cell benchmark, at ``--scale test`` (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every printed metric name and unit matches ``BENCHMARK.json``,
that a perturbed golden digest raises the cell failure count and names
the cell, that the traced pass simulates the same digests with the same
engine loops as the untraced pass, that ``fig1-sweep`` really runs its
cells in worker processes, that a figure cell missing from the reference
table is reported, that a non-default seed regenerates the
inputs and passes the straight-loop check, and that the benchmark refuses
to run without the program source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, fresh_dir, import_program, isolate_environment, scratch_base

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRIPT = Path(__file__).resolve().parent / "run.py"


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metric_names(figcells) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
    }
    assert {w["name"] for w in BENCH["workloads"]} <= set(figcells.WORKLOADS)
    for workload in figcells.WORKLOADS:
        for trace in (0, 1):
            out = result_of(
                run_cli("--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--scale", "test")
            )
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == wanted[trace], (workload, trace, set(got) ^ set(wanted[trace]))
            if trace == 0:
                assert all(m["value"] > 0 for m in out["metrics"].values()), out


def check_perturbed_golden(figcells, base) -> None:
    spec = figcells.WORKLOADS["fig6-spatial"]
    golden = figcells.load_golden(Path(__file__).resolve().parent / "golden.json", "test", spec.name)
    victim = sorted(golden)[0]
    perturbed = dict(golden, **{victim: "0" * 64})
    with fresh_dir(base) as root:
        result = figcells.run_pass(spec, "test", figcells.DEFAULT_SEED, root)
    for expected, failed in ((golden, 0), (perturbed, 1)):
        checker = figcells.Checker(spec.cells())
        checker.add_pass(result)
        checker.finish(expected)
        assert checker.failed == failed, checker.failures
    assert victim in checker.failures[0], checker.failures
    assert checker.fail_rate == 1 / len(spec.cells())


def check_traced_sweep(figcells, layers, base) -> None:
    """Same digests and loops traced vs untraced; cells run in workers."""
    spec = figcells.WORKLOADS["fig1-sweep"]
    runs = []
    for spans in (False, True):
        tracer = layers.LayerTracer(spans=spans)
        with fresh_dir(base) as root:
            dumps = root / "workers"
            dumps.mkdir()
            with tracer.installed(worker_dump_dir=dumps):
                result = figcells.run_pass(spec, "test", figcells.DEFAULT_SEED, root)
            driver_runs = tracer.by_span().get("sim.run", [0])[0]
            snapshots = [json.loads(p.read_text()) for p in dumps.glob("worker-*.json")]
            tracer.merge_workers(dumps)
        runs.append((result, tracer))
        assert snapshots and all(s["pid"] != os.getpid() for s in snapshots)
        assert sum(sum(s["loops"].values()) for s in snapshots) == len(spec.cells())
        if spans:
            assert driver_runs == 0, "a Fig 1 cell ran in the driver"
            worker_runs = sum(
                row[2] for s in snapshots for row in s["table"] if row[0] == "sim.run"
            )
            assert worker_runs == len(spec.cells()), worker_runs
    (plain, probe), (traced, tracer) = runs
    assert plain.digests == traced.digests
    assert probe.loops == tracer.loops, (probe.loops, tracer.loops)
    golden = figcells.load_golden(Path(__file__).resolve().parent / "golden.json", "test", spec.name)
    assert traced.digests == golden


def check_reference_coverage(figcells) -> None:
    reference = figcells.load_reference(ROOT / "results_bench_reference.txt", "fig6")
    key = next(k for k, v in reference.items() if v != "-")
    values = {key: float(reference[key]), ("pagerank/nowhere", "rnr"): 1.0}
    worst, differ, missing = figcells.reference_errors(values, reference)
    assert worst < 0.01 and not differ, (worst, differ)
    assert missing == [("pagerank/nowhere", "rnr")], missing


def check_seeded_inputs(figcells) -> None:
    out = result_of(
        run_cli("--workload", "fig6-irregular", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--scale", "test")
    )
    assert out["correct"], out
    default = figcells.make_input("urand", "test", figcells.DEFAULT_SEED)
    seeded = figcells.make_input("urand", "test", 7)
    assert not figcells._same_input(default, seeded)


def check_refuses_without_source(base) -> None:
    with fresh_dir(base) as root:
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(SCRIPT.parent, root / SCRIPT.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{SCRIPT.parent.name}/run.py", "--workload", "fig1-sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout


def main() -> int:
    isolate_environment()
    import_program()
    import figcells
    import layers

    failed = 0
    with scratch_base() as base:
        checks = [
            ("metric names match BENCHMARK.json", lambda: check_metric_names(figcells)),
            ("perturbed golden digest fails its cell",
             lambda: check_perturbed_golden(figcells, base)),
            ("traced == untraced; fig1-sweep runs in workers",
             lambda: check_traced_sweep(figcells, layers, base)),
            ("a cell missing from the reference is reported",
             lambda: check_reference_coverage(figcells)),
            ("non-default seed regenerates inputs", lambda: check_seeded_inputs(figcells)),
            ("refuses to run without the program", lambda: check_refuses_without_source(base)),
        ]
        for name, check in checks:
            try:
                check()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
