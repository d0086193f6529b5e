"""Content-addressed trace store: keys, counters, degradation, sweeps.

The acceptance bar: a second sweep against a warm store performs
**zero** trace rebuilds — including under supervised retries and a re-run
that resumes from the cell cache — and the store's counters in the sweep
report prove it.  Corrupt entries must degrade to a counted rebuild, never a crash.
"""

import pytest

from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import RetryPolicy, run_supervised_sweep
from repro.trace.binfmt import MappedTrace
from repro.trace.record import KIND_LOAD
from repro.trace.store import TraceStore, trace_key
from repro.trace.trace import Trace
from tests.helpers import StorePolicy, clobber_directive_table

SPECS = [
    CellSpec("pagerank", "urand", "baseline"),
    CellSpec("pagerank", "urand", "rnr"),
    CellSpec("spcg", "bbmat", "baseline"),
]

BASE_KEY = dict(
    app="pagerank",
    input_name="urand",
    scale="test",
    iterations=2,
    seed=42,
    window=16,
    rnr=True,
)


def _runner(store_dir):
    return ExperimentRunner(scale="test", cache_dir=None, trace_store=store_dir)


class TestTraceKey:
    def test_stable(self):
        assert trace_key(**BASE_KEY) == trace_key(**BASE_KEY)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("app", "hyperanf"),
            ("input_name", "amazon"),
            ("scale", "bench"),
            ("iterations", 3),
            ("seed", 43),
            ("window", 8),
            ("rnr", False),
            ("version", "0.0.0-other"),
        ],
    )
    def test_every_component_invalidates(self, field, value):
        changed = dict(BASE_KEY, **{field: value})
        assert trace_key(**changed) != trace_key(**BASE_KEY)


class TestStoreCounters(StorePolicy):
    store_cls = TraceStore

    def entry(self):
        trace = Trace()
        trace.append_ref(KIND_LOAD, 0x1000, 0x400, 2)
        trace.append_directive("iter.begin", (0,))
        return trace

    def test_miss_build_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key(**BASE_KEY)
        built = []
        trace = store.get_or_build(key, lambda: built.append(1) or self.entry())
        assert built == [1]
        assert list(trace) == list(self.entry())
        again = store.get_or_build(key, lambda: built.append(2))
        assert built == [1]  # warm: build not called
        assert isinstance(again, MappedTrace)
        assert list(again) == list(self.entry())
        again.close()
        assert store.counters() == {
            "hits": 1, "misses": 1, "builds": 1, "stores": 1, "corrupt": 0,
            "races": 0,
        }

    def test_corrupt_entry_rebuilds_and_counts(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key(**BASE_KEY)
        store.put(key, self.entry())
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:-3])  # truncate
        rebuilt = store.get_or_build(key, self.entry)
        assert list(rebuilt) == list(self.entry())
        assert store.corrupt == 1
        assert store.builds == 1
        # The republished entry is valid again.
        fresh = store.get(key)
        assert fresh is not None
        fresh.close()

    def test_unparsable_directive_table_rebuilds(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key(**BASE_KEY)
        store.put(key, self.entry())
        clobber_directive_table(store._path(key))
        rebuilt = store.get_or_build(key, self.entry)
        assert list(rebuilt) == list(self.entry())
        assert store.corrupt == 1
        assert store.builds == 1

    def test_describe_and_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(trace_key(**BASE_KEY), self.entry())
        assert len(list(store.entries())) == 1
        text = store.describe()
        assert "1 traces" in text
        assert "0 hits" in text


class TestRunnerIntegration:
    def test_cold_then_warm_identical_stats(self, tmp_path):
        cold = _runner(tmp_path)
        cold_results = [cold.run_spec(spec) for spec in SPECS]
        assert cold.trace_store.builds > 0
        assert cold.trace_store.hits == 0

        warm = _runner(tmp_path)
        warm_results = [warm.run_spec(spec) for spec in SPECS]
        assert warm.trace_store.builds == 0
        assert warm.trace_store.misses == 0
        assert warm.trace_store.hits > 0
        for a, b in zip(cold_results, warm_results):
            assert a.stats == b.stats

    def test_matches_storeless_run(self, tmp_path):
        plain = ExperimentRunner(scale="test", cache_dir=None)
        stored = _runner(tmp_path)
        for spec in SPECS:
            assert plain.run_spec(spec).stats == stored.run_spec(spec).stats

    def test_droplet_works_from_stored_trace(self, tmp_path):
        """DROPLET's data callbacks need the workload layout even when the
        trace comes from the store and build_trace() never runs."""
        spec = CellSpec("pagerank", "urand", "droplet")
        plain = ExperimentRunner(scale="test", cache_dir=None)
        cold = _runner(tmp_path)
        assert cold.run_spec(spec).stats == plain.run_spec(spec).stats
        warm = _runner(tmp_path)  # fresh process-equivalent: layout not built
        assert warm.run_spec(spec).stats == plain.run_spec(spec).stats
        assert warm.trace_store.builds == 0
        assert warm.trace_store.hits > 0


class TestSupervisedSweep:
    def test_report_carries_counters(self, tmp_path):
        runner = _runner(tmp_path / "store")
        report = run_supervised_sweep(runner, SPECS, jobs=2)
        assert report.ok
        assert report.trace_store is not None
        assert report.trace_store["builds"] > 0
        assert "trace store:" in report.render()

    def test_parallel_matches_serial_with_store(self, tmp_path):
        serial = ExperimentRunner(scale="test", cache_dir=None)
        parallel = _runner(tmp_path / "store")
        run_supervised_sweep(parallel, SPECS, jobs=2)
        for spec in SPECS:
            assert parallel.run_spec(spec).stats == serial.run_spec(spec).stats

    def test_warm_sweep_reports_zero_builds(self, tmp_path):
        first = _runner(tmp_path / "store")
        run_supervised_sweep(first, SPECS, jobs=2)

        second = _runner(tmp_path / "store")
        report = run_supervised_sweep(second, SPECS, jobs=2)
        assert report.ok
        assert report.trace_store["builds"] == 0
        assert report.trace_store["misses"] == 0
        assert report.trace_store["hits"] > 0
        assert "0 built" in report.render()

    def test_zero_builds_under_resume_and_retries(self, tmp_path):
        """Warm-store guarantee holds for the hard paths: against a warm
        store, a sweep with a crashing cell (exercising the retry loop)
        and the re-run against the same cell cache, which simulates only
        the failure, both perform zero rebuilds — every re-run maps the
        stored trace."""
        store_dir = tmp_path / "store"
        warmup = _runner(store_dir)
        run_supervised_sweep(warmup, SPECS, jobs=2)
        assert warmup.trace_store.builds > 0

        def cached_runner():
            return ExperimentRunner(
                scale="test", cache_dir=tmp_path / "cells", trace_store=store_dir
            )

        policy = RetryPolicy(retries=1)
        crashing = cached_runner()
        report = run_supervised_sweep(
            crashing,
            SPECS,
            jobs=2,
            policy=policy,
            faults={"pagerank/urand/rnr": ("crash", None)},
        )
        assert [f.cell for f in report.failures] == ["pagerank/urand/rnr"]
        # Crashed-worker deltas are lost by design (best-effort), so the
        # surviving counters must still show zero builds and some hits.
        assert report.trace_store["builds"] == 0
        assert report.trace_store["hits"] > 0

        second = run_supervised_sweep(cached_runner(), SPECS, jobs=2, policy=policy)
        assert second.ok
        assert second.simulated == 1  # only the crashed cell re-ran
        assert second.trace_store["builds"] == 0
        assert second.trace_store["hits"] > 0

    def test_retry_after_transient_fault_hits_store(self, tmp_path):
        """A cell that crashes on attempt 1 and succeeds on the retry must
        find the trace the first sweep already published."""
        store_dir = tmp_path / "store"
        warmup = _runner(store_dir)
        run_supervised_sweep(warmup, SPECS, jobs=1)

        runner = _runner(store_dir)
        report = run_supervised_sweep(
            runner,
            SPECS,
            jobs=1,
            policy=RetryPolicy(retries=1),
            faults={"pagerank/urand/rnr": ("crash", 1)},
        )
        assert report.ok
        assert report.retried == 1
        assert report.trace_store["builds"] == 0
