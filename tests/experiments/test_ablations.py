"""Tests for the ablation experiments (test scale)."""

import pytest

from repro.experiments import ablations
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="test", iterations=2, window_size=8)


class TestMisbSweep:
    def test_sweep_shape(self, runner):
        data = ablations.misb_metadata_sweep(runner)
        assert set(data) == set(ablations.MISB_CACHE_LINES)
        for accuracy, traffic in data.values():
            assert 0.0 <= accuracy <= 1.0
            assert traffic >= 0.0


class TestDropletSweep:
    def test_latency_hurts_monotonically_ish(self, runner):
        data = ablations.droplet_latency_sweep(runner)
        speedups = [data[latency][1] for latency in ablations.DROPLET_LATENCIES]
        # A much larger generation latency can never help.
        assert speedups[-1] <= speedups[0] + 0.05

    def test_report_renders(self, runner):
        text = ablations.report(runner)
        assert "MISB" in text and "DROPLET" in text

    def test_runs_from_a_warm_trace_store(self, runner, tmp_path):
        """DROPLET's resolver reads the workload layout, which a store-served
        trace never builds."""

        def stored():
            return ExperimentRunner(
                scale="test", iterations=2, window_size=8, trace_store=tmp_path
            )

        stored().trace("pagerank", "urand", rnr=False)
        warm = stored()
        data = ablations.droplet_latency_sweep(warm)
        assert warm.trace_store.builds == 0 and warm.trace_store.hits > 0
        assert data == ablations.droplet_latency_sweep(runner)


class TestFillLevelSweep:
    def test_both_levels_run(self, runner):
        data = ablations.fill_level_sweep(runner)
        assert set(data) == {"l2", "llc"}
        for speedup, accuracy in data.values():
            assert speedup > 0
            assert 0.0 <= accuracy <= 1.0


class TestBandwidthSweep:
    def test_more_channels_never_slower(self, runner):
        data = ablations.bandwidth_sweep(runner)
        assert set(data) == {1, 2, 4}
        ipcs = [data[c][0] for c in (1, 2, 4)]
        assert ipcs[-1] >= ipcs[0] - 0.05  # bandwidth never hurts baseline
