"""Tests for the experiments CLI."""

import dataclasses
import os

import pytest

from repro.experiments import claims, multicore
from repro.experiments.__main__ import FIGURES, main
from repro.experiments.runner import ExperimentRunner
from repro.sim.engine import SimulationEngine


def _usage_error(capsys, argv) -> str:
    """Run ``argv``, expect a usage error (exit 2) and return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


class TestCli:
    def test_unknown_figure_rejected(self, capsys):
        assert "unknown figures" in _usage_error(capsys, ["fig99"])

    def test_hw_figure_runs_without_simulation(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "86.5" in out
        lines = [line for line in out.splitlines() if line.startswith(claims.PREFIX)]
        assert len(lines) == 3
        assert all(line.startswith("claim hw ok: ") for line in lines)

    def test_failed_claim_exits_1_and_names_it(self, capsys, monkeypatch):
        lowered = tuple(
            dataclasses.replace(claim, bound=100) if claim.paper == "< 1 KB per core" else claim
            for claim in claims.CLAIMS
        )
        monkeypatch.setattr(claims, "CLAIMS", lowered)
        assert main(["hw"]) == 1
        out = capsys.readouterr().out
        assert "claim hw FAILED: < 1 KB per core: storage bytes = 342.5" in out
        assert out.count("claim hw ok: ") == 2
        assert "Section VII-B" in out  # the table still printed

    def test_multicore_renders(self, capsys):
        assert main(["multicore", "--scale", "test"]) == 0
        assert "4-core SPMD PageRank (amazon partitioned 4 ways)" in capsys.readouterr().out
        baseline, rnr = multicore.compute()
        assert rnr.prefetch.issued > 0

    def test_single_figure_at_test_scale(self, capsys):
        assert main(["fig13", "--scale", "test", "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig 13" in out
        assert "total:" in out

    def test_figure_registry_complete(self):
        assert {
            "fig01", "fig06", "fig14", "record", "hw", "ablations", "extra", "multicore"
        } <= set(FIGURES)

    def test_every_claim_names_a_figure(self):
        assert {claim.figure for claim in claims.CLAIMS} <= set(FIGURES)
        assert set(claims.SOURCES) <= set(FIGURES)

    @pytest.mark.parametrize("flag", ["--cache-dir", "--trace-store"])
    def test_unwritable_cache_dir_rejected_at_startup(self, flag, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(SystemExit):
            main(["hw", flag, str(blocker / "sub")])
        # The usage text above the error names every flag; the error line
        # itself must name the one that failed.
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "not creatable/writable" in error
        assert flag in error

    def test_bad_fault_spec_rejected(self, capsys):
        err = _usage_error(capsys, ["hw", "--inject-fault", "cell=explode"])
        assert "unknown fault kind" in err

    def test_bad_cell_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig13", "--cell-timeout", "-3"])

    def test_bad_window_rejected(self, capsys):
        assert "--window must be >= 1" in _usage_error(capsys, ["hw", "--window", "0"])

    def test_environment_does_not_configure_a_run(self, tmp_path, monkeypatch, capsys):
        """Variables named like the flags change nothing: a run is
        configured by its arguments alone."""
        dirs = [tmp_path / name for name in ("cells", "traces", "telemetry")]
        for name, value in {
            "RNR_JOBS": "0",
            "RNR_CELL_TIMEOUT": "soon",
            "RNR_FAULTS": "pagerank/urand/rnr=raise",
            "RNR_SAMPLE_INTERVAL": "fast",
            "RNR_TRACE_EVENTS": "1",
            "RNR_CACHE_DIR": str(dirs[0]),
            "RNR_TRACE_STORE": str(dirs[1]),
            "RNR_TELEMETRY": str(dirs[2]),
        }.items():
            monkeypatch.setenv(name, value)
        runner = ExperimentRunner(scale="test")
        assert runner.cache is None and runner.trace_store is None
        assert main(["fig13", "--scale", "test", "--jobs", "1"]) == 0
        assert "sweep: 12 simulated, 0 warm, 0 retries, 0 failed" in capsys.readouterr().out
        assert not any(path.exists() for path in dirs)


class TestChaos:
    """End-to-end: an injected failing cell degrades under --lenient and
    fails the run under --strict."""

    ARGS = [
        "fig01",
        "--scale",
        "test",
        "--jobs",
        "2",
        "--retries",
        "0",
        "--inject-fault",
        "pagerank/amazon/stems=raise",
    ]

    def test_lenient_renders_partial_figure_and_exits_zero(self, capsys):
        assert main(self.ARGS + ["--lenient"]) == 0
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "pagerank/amazon/stems" in out
        assert "cell unavailable" in out  # the degraded-table footnote
        assert "Fig 1" in out

    def test_strict_exits_nonzero_without_rendering(self, capsys):
        assert main(self.ARGS + ["--strict"]) == 1
        captured = capsys.readouterr()
        assert "pagerank/amazon/stems" in captured.out
        assert "strict mode" in captured.err
        assert "Fig 1" not in captured.out


class TestSupervisedCliFlow:
    def test_resume_skips_done_cells(self, tmp_path, capsys, monkeypatch):
        """Figure cells are simulated only inside the supervised sweep, with
        any worker count: a re-run with the same cell cache finds every
        cell warm, and the CLI process itself simulates none."""
        pid, calls = os.getpid(), []
        run = SimulationEngine.run

        def counted(self, *args, **kwargs):
            if os.getpid() == pid:  # forked sweep workers inherit the patch
                calls.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run", counted)
        cells = ["fig13", "--scale", "test", "--cache-dir", str(tmp_path / "cells")]
        # Telemetry bypasses the cache's read side, so its re-run simulates
        # every cell again, in the sweep.
        telemetry = ["--jobs", "2", "--telemetry-dir", str(tmp_path / "tel")]
        for args, second in (
            (cells + ["--jobs", "1"], "sweep: 0 simulated, 12 warm"),
            (cells + telemetry, "sweep: 12 simulated, 0 warm"),
        ):
            for _ in range(2):
                assert main(args) == 0
                out = capsys.readouterr().out
                assert calls == []
            assert second in out
