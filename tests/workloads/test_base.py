"""Tests for the workload base helpers (trace compression)."""

import numpy as np
import pytest

from repro.config import LINE_SIZE
from repro.trace.address_space import AddressSpace
from repro.trace.builder import TraceBuilder
from repro.workloads.base import Gather, StreamCursor, emit_interleaved


@pytest.fixture
def setup():
    builder = TraceBuilder()
    space = AddressSpace()
    region = space.alloc("a", 1024, 8)
    return builder, region


def touch(builder, cursor, indices):
    emit_interleaved(builder, [(cursor, np.asarray(indices))])


class TestStreamCursor:
    def test_one_reference_per_line(self, setup):
        builder, region = setup
        cursor = StreamCursor(region, pc=0x1)
        touch(builder, cursor, range(16))  # 8 B elements -> 8 per line -> 2 lines
        refs = list(builder.build().memory_references())
        assert len(refs) == 2
        assert refs[0].addr == region.base
        assert refs[1].addr == region.base + LINE_SIZE

    def test_instruction_count_preserved(self, setup):
        builder, region = setup
        cursor = StreamCursor(region, pc=0x1, work_per_elem=2)
        touch(builder, cursor, range(16))
        # 16 elements * (2 work + 1 elided-or-real reference) = 48 instrs.
        assert builder.build().instructions == 48

    def test_store_mode(self, setup):
        builder, region = setup
        cursor = StreamCursor(region, pc=0x1, is_store=True)
        touch(builder, cursor, [0])
        from repro.trace.record import KIND_STORE

        assert builder.build()[0].kind == KIND_STORE

    def test_revisiting_line_reemits(self, setup):
        builder, region = setup
        cursor = StreamCursor(region, pc=0x1)
        # 0, then a jump to another line, then back to the first line:
        # the return counts as a new touch.
        touch(builder, cursor, [0, 20, 1])
        assert len(builder.build()) == 3

    def test_last_line_carries_across_calls(self, setup):
        _, region = setup
        cursor = StreamCursor(region, pc=0x1)
        _, first = cursor.touches(np.arange(4))
        _, second = cursor.touches(np.arange(4, 12))
        assert first.tolist() == [True, False, False, False]
        assert second.tolist() == [False] * 4 + [True] + [False] * 3

    @pytest.mark.parametrize("bad", [-1, 1024])
    def test_out_of_range_index_raises(self, setup, bad):
        _, region = setup
        with pytest.raises(IndexError, match=rf"a\[{bad}\] out of range"):
            StreamCursor(region, pc=0x1).touches(np.array([0, 5, bad, 7]))
        with pytest.raises(IndexError, match=rf"a\[{bad}\] out of range"):
            Gather(region, pc=0x1).touches(np.array([bad]))
