"""Smoke tests for every figure module (test scale).

These verify the figure plumbing — data shape, table rendering, paper
references — and the paper claims that hold at test scale.  The
bench-scale numbers live in EXPERIMENTS.md, and ``python -m
repro.experiments`` checks every claim at bench scale.
"""

import pytest

from repro.experiments import (
    claims,
    fig01_scatter,
    fig06_speedup,
    fig07_mpki,
    fig08_coverage,
    fig09_accuracy,
    fig10_timing_control,
    fig11_timeliness,
    fig12_traffic,
    fig13_storage,
    fig14_window_sweep,
    hw_overhead,
    record_overhead,
)
from repro.experiments.runner import CellSpec, ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="test", iterations=2, window_size=8)


class TestFig01:
    def test_points_for_all_prefetchers(self, runner):
        points = fig01_scatter.compute(runner)
        assert set(points) == set(fig01_scatter.PREFETCHERS)
        for coverage, accuracy in points.values():
            assert 0.0 <= coverage <= 1.0
            assert 0.0 <= accuracy <= 1.0

    def test_report_renders(self, runner):
        assert "Fig 1" in fig01_scatter.report(runner)


class TestFig06:
    def test_grid_shape(self, runner):
        data = fig06_speedup.compute(runner)
        assert set(data) == {"pagerank", "hyperanf", "spcg"}
        assert "ideal" in data["pagerank"]["urand"]
        assert "droplet" not in data["spcg"]["bbmat"]

    def test_speedups_positive(self, runner):
        data = fig06_speedup.compute(runner)
        for per_input in data.values():
            for row in per_input.values():
                assert all(value > 0 for value in row.values())

    def test_report_has_geomean(self, runner):
        assert "GEOMEAN" in fig06_speedup.report(runner)


class TestFig07:
    def test_baseline_column_present(self, runner):
        data = fig07_mpki.compute(runner)
        assert all("baseline" in row for p in data.values() for row in p.values())

    def test_summary_per_app(self, runner):
        summary = fig07_mpki.mpki_reduction_summary(fig07_mpki.compute(runner))
        assert set(summary) == {"pagerank", "hyperanf", "spcg"}


class TestFig08And09:
    def test_coverage_in_range(self, runner):
        data = fig08_coverage.compute(runner)
        for per_input in data.values():
            for row in per_input.values():
                assert all(0.0 <= value <= 1.0 for value in row.values())

    def test_accuracy_in_range(self, runner):
        data = fig09_accuracy.compute(runner)
        for per_input in data.values():
            for row in per_input.values():
                assert all(0.0 <= value <= 1.0 for value in row.values())

    def test_rnr_average_accuracy(self, runner):
        data = fig09_accuracy.compute(runner)
        assert 0.0 <= fig09_accuracy.rnr_average_accuracy(data) <= 1.0


class TestFig10And11:
    def test_three_modes_per_cell(self, runner):
        data = fig10_timing_control.compute(runner)
        for row in data.values():
            assert set(row) == {"none", "window", "window+pace"}

    def test_timeliness_sums_to_one(self, runner):
        data = fig11_timeliness.compute(runner)
        for per_mode in data.values():
            for breakdown in per_mode.values():
                total = sum(breakdown.values())
                assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0


class TestFig12And13:
    def test_traffic_averages_cover_all(self, runner):
        averages = fig12_traffic.averages(runner)
        assert "rnr" in averages and "nextline" in averages
        assert all(value >= 0 for value in averages.values())

    def test_storage_positive(self, runner):
        data = fig13_storage.compute(runner)
        for per_input in data.values():
            assert all(value >= 0 for value in per_input.values())


class TestFig14:
    def test_sweep_covers_all_windows(self, runner):
        data = fig14_window_sweep.compute(runner)
        assert set(data) == set(fig14_window_sweep.WINDOW_SIZES)
        for speedup, storage in data.values():
            assert speedup > 0
            assert storage >= 0


class TestScalars:
    def test_record_overhead_per_cell(self, runner):
        data = record_overhead.compute(runner)
        assert len(data) == 12

    def test_hw_overhead_static(self):
        data = hw_overhead.compute()
        assert data["per_core_bytes"] < 1024
        assert data["save_restore_bytes"] == 86.5
        assert "86.5" in hw_overhead.report()


class TestClaims:
    def test_test_scale_claims_hold(self, runner):
        checked = [claim for claim in claims.CLAIMS if claim.test_scale]
        assert [claim.figure for claim in checked] == [
            "fig07", "fig09", "fig11", "fig11", "hw", "hw", "hw"
        ]
        for claim in checked:
            status, line = claim.check(runner)
            assert status == claims.OK, line

    def test_missing_input_cell_reads_unavailable(self, runner):
        # A lenient runner that shares the module runner's cells but lost
        # one, as a sweep that could not produce it leaves things.
        fig09_accuracy.compute(runner)
        lenient = ExperimentRunner(scale="test", iterations=2, window_size=8, lenient=True)
        lenient._results = dict(runner._results)
        del lenient._results[lenient._result_key("pagerank", "urand", "rnr", None, None)]
        lenient.mark_failed(CellSpec("pagerank", "urand", "rnr"), "crash")
        [claim] = [claim for claim in claims.CLAIMS if claim.figure == "fig09"]
        status, line = claim.check(lenient)
        assert status == claims.UNAVAILABLE
        assert line.startswith("claim fig09 unavailable: ")
