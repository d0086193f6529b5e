"""Tests for the experiment runner (test scale, so they stay fast)."""

import pytest

from repro.experiments.runner import (
    CellSpec,
    ExperimentRunner,
    inputs_for,
    prefetchers_for,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="test", iterations=2, window_size=8)


class TestGrid:
    def test_cells_cover_table_iii(self, runner):
        cells = list(runner.cells())
        assert ("pagerank", "urand") in cells
        assert ("hyperanf", "roadUSA") in cells
        assert ("spcg", "nlpkkt80") in cells
        assert len(cells) == 12

    def test_droplet_excluded_for_spcg(self):
        assert "droplet" not in prefetchers_for("spcg")
        assert "droplet" in prefetchers_for("pagerank")

    def test_unknown_app(self):
        with pytest.raises(ValueError):
            inputs_for("doom")


class TestCaching:
    def test_traces_memoized(self, runner):
        a = runner.trace("pagerank", "urand", rnr=False)
        b = runner.trace("pagerank", "urand", rnr=False)
        assert a is b

    def test_rnr_and_plain_traces_distinct(self, runner):
        plain = runner.trace("pagerank", "urand", rnr=False)
        annotated = runner.trace("pagerank", "urand", rnr=True)
        assert plain is not annotated
        assert annotated.num_directives > plain.num_directives

    def test_results_memoized(self, runner):
        a = runner.run("pagerank", "urand", "baseline")
        b = runner.baseline("pagerank", "urand")
        assert a is b

    def test_window_variants_separate(self, runner):
        a = runner.run("pagerank", "urand", "rnr", window_size=8)
        b = runner.run("pagerank", "urand", "rnr", window_size=4)
        assert a is not b


class TestWindowValidation:
    """A window below 1 is rejected before any simulation."""

    @pytest.mark.parametrize("window", [0, -3])
    def test_runner_window(self, window):
        runner = ExperimentRunner(scale="test", window_size=window)
        with pytest.raises(ValueError, match="window size must be >= 1"):
            runner.run("pagerank", "urand", "rnr")

    @pytest.mark.parametrize("window", [0, -3])
    def test_cell_spec_window(self, window):
        runner = ExperimentRunner(scale="test")
        with pytest.raises(ValueError, match="window size must be >= 1"):
            runner.run_spec(CellSpec("pagerank", "urand", "rnr", window=window))


class TestRuns:
    def test_baseline_and_rnr_run(self, runner):
        base = runner.baseline("spcg", "bbmat")
        rnr = runner.run("spcg", "bbmat", "rnr")
        assert base.stats.instructions == rnr.stats.instructions
        assert base.input_bytes == rnr.input_bytes > 0

    def test_ideal_runs(self, runner):
        base = runner.baseline("pagerank", "urand")
        ideal = runner.run("pagerank", "urand", "ideal")
        assert ideal.stats.cycles <= base.stats.cycles

    def test_droplet_gets_resolver(self, runner):
        cell = runner.run("hyperanf", "urand", "droplet")
        assert cell.stats.prefetch.issued > 0
