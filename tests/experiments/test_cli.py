"""Tests for the experiments CLI."""

import pytest

from repro.experiments.__main__ import FIGURES, main


class TestCli:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_hw_figure_runs_without_simulation(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "86.5" in out

    def test_single_figure_at_test_scale(self, capsys):
        assert main(["fig13", "--scale", "test", "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig 13" in out
        assert "total:" in out

    def test_figure_registry_complete(self):
        assert {"fig01", "fig06", "fig14", "record"} <= set(FIGURES)

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
        with pytest.raises(SystemExit):
            main(["hw", "--inject-fault", "cell=explode"])
        assert "unknown fault kind" in capsys.readouterr().err

    def test_bad_cell_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig13", "--cell-timeout", "-3"])

    def test_future_manifest_schema_exits_2(self, tmp_path, capsys):
        import json

        from repro.experiments import supervise

        manifest = tmp_path / "sweep-manifest.json"
        manifest.write_text(json.dumps({
            "format": supervise.MANIFEST_FORMAT,
            "schema_version": supervise.MANIFEST_SCHEMA_VERSION + 7,
            "fingerprint": "whatever",
            "cells": {},
        }))
        code = main([
            "fig01", "--scale", "test", "--resume",
            "--cache-dir", str(tmp_path / "cells"),
            "--manifest", str(manifest),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema" in err and "upgrade" in err


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
    def test_resume_skips_done_cells(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        args = ["fig13", "--scale", "test", "--jobs", "2", "--manifest", str(manifest)]
        assert main(args) == 0
        capsys.readouterr()
        assert manifest.exists()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out or "12 resumed" in out
