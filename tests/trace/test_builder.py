"""Tests for the TraceBuilder."""

from array import array

import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.record import KIND_DIRECTIVE, KIND_LOAD, KIND_STORE


class TestBuilder:
    def test_work_accumulates_into_next_gap(self):
        builder = TraceBuilder()
        builder.work(3)
        builder.work(2)
        builder.load(0x100, pc=1)
        trace = builder.build()
        assert trace[0].gap == 5
        assert trace[0].kind == KIND_LOAD

    def test_gap_resets_after_emission(self):
        builder = TraceBuilder()
        builder.work(4)
        builder.load(0x100)
        builder.store(0x200)
        trace = builder.build()
        assert trace[1].gap == 0
        assert trace[1].kind == KIND_STORE

    def test_directive_carries_gap(self):
        builder = TraceBuilder()
        builder.work(7)
        builder.directive("rnr.init", 1, 2)
        entry = builder.build()[0]
        assert entry.kind == KIND_DIRECTIVE
        assert entry.gap == 7
        assert entry.args == (1, 2)

    def test_iter_markers(self):
        builder = TraceBuilder()
        builder.iter_begin(0)
        builder.load(0)
        builder.iter_end(0)
        ops = [d.op for d in builder.build().directives()]
        assert ops == ["iter.begin", "iter.end"]

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().work(-1)

    def test_instruction_accounting(self):
        builder = TraceBuilder()
        builder.work(10)
        builder.load(0)
        builder.work(5)
        builder.store(64)
        assert builder.build().instructions == 17


class TestExtend:
    """The bulk append from buffers (numpy-free: ``array`` columns)."""

    @staticmethod
    def _block(kinds, addrs, pcs, gaps):
        return array("B", kinds), array("Q", addrs), array("Q", pcs), array("Q", gaps)

    def test_matches_per_reference_calls(self):
        looped = TraceBuilder()
        looped.work(4)
        looped.load(0x100, pc=1)
        looped.work(2)
        looped.store(0x140, pc=2)
        looped.work(3)
        looped.iter_end(0)
        blocked = TraceBuilder()
        blocked.work(4)
        blocked.extend(
            *self._block([KIND_LOAD, KIND_STORE], [0x100, 0x140], [1, 2], [0, 2]),
            trailing_gap=3,
        )
        blocked.iter_end(0)
        assert [
            bytes(column) for column in blocked.build().packed_columns()
        ] == [bytes(column) for column in looped.build().packed_columns()]

    def test_pending_gap_carries_into_and_out_of_blocks(self):
        builder = TraceBuilder()
        builder.work(5)
        builder.extend(*self._block([KIND_LOAD], [0x40], [0], [1]), trailing_gap=7)
        builder.extend(*self._block([KIND_LOAD], [0x80], [0], [2]), trailing_gap=3)
        builder.load(0xC0)
        assert [entry.gap for entry in builder.build()] == [6, 9, 3]

    def test_empty_block_adds_its_trailing_gap(self):
        builder = TraceBuilder()
        builder.work(2)
        builder.extend(*self._block([], [], [], []), trailing_gap=3)
        builder.load(0x40)
        trace = builder.build()
        assert len(trace) == 1
        assert trace[0].gap == 5

    def test_rejects_mismatched_lengths(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match="differ in length"):
            builder.extend(*self._block([KIND_LOAD, KIND_LOAD], [0, 64], [0], [0, 0]))
        assert len(builder.build()) == 0

    @pytest.mark.parametrize("column, typecode", [(0, "Q"), (1, "I"), (2, "H"), (3, "B")])
    def test_rejects_wrong_item_sizes(self, column, typecode):
        block = list(self._block([KIND_LOAD], [0], [0], [0]))
        block[column] = array(typecode, [0])
        with pytest.raises(ValueError, match="item sizes"):
            TraceBuilder().extend(*block)

    def test_non_contiguous_buffer_leaves_the_trace_untouched(self):
        kinds, addrs, pcs, gaps = self._block([KIND_LOAD] * 2, [0, 64], [0, 0], [0, 0])
        strided = memoryview(array("Q", [0, 9, 0, 9]))[::2]
        builder = TraceBuilder()
        with pytest.raises(TypeError):
            builder.extend(kinds, addrs, pcs, strided)
        assert len(builder.build()) == 0

    def test_rejects_negative_trailing_gap(self):
        with pytest.raises(ValueError, match="negative work"):
            TraceBuilder().extend(*self._block([], [], [], []), trailing_gap=-1)
