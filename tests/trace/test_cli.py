"""Tests for the trace-file CLI."""

import pytest

from repro.trace.__main__ import main
from repro.trace.binfmt import write_trace
from repro.trace.builder import TraceBuilder


@pytest.fixture
def trace_file(tmp_path):
    builder = TraceBuilder()
    builder.iter_begin(0)
    builder.work(3)
    builder.load(0x1000, pc=0x10)
    builder.store(0x2000, pc=0x20)
    builder.iter_end(0)
    return write_trace(builder.build(), tmp_path / "t.rnrt")


class TestStats:
    def test_stats_output(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "loads:         1" in out
        assert "stores:        1" in out
        assert "iter.begin" in out


class TestDump:
    def test_dump_limit(self, trace_file, capsys):
        assert main(["dump", str(trace_file), "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "DIR" in out
        assert "more)" in out

    def test_dump_full(self, trace_file, capsys):
        assert main(["dump", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "LOAD" in out and "STORE" in out


class TestDiff:
    def test_identical(self, trace_file, capsys):
        assert main(["diff", str(trace_file), str(trace_file)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent(self, trace_file, tmp_path, capsys):
        builder = TraceBuilder()
        builder.load(0x9999, pc=0x10)
        other = write_trace(builder.build(), tmp_path / "o.rnrt")
        assert main(["diff", str(trace_file), str(other)]) == 1
        assert "divergence" in capsys.readouterr().out
