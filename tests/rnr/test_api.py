"""Tests for the Table I programming interface."""

import gc
import weakref

import pytest

from repro.rnr.api import RnRInterface
from repro.trace.address_space import AddressSpace
from repro.trace.builder import TraceBuilder


@pytest.fixture
def api():
    builder = TraceBuilder()
    space = AddressSpace()
    region = space.alloc("data", 1000, 8)
    return RnRInterface(builder, space, default_window=16), builder, space, region


def ops(builder):
    return [d.op for d in builder.build().directives()]


class TestInit:
    def test_init_allocates_metadata_and_emits_directive(self, api):
        rnr, builder, space, _ = api
        rnr.init()
        assert "rnr_seq" in space
        assert "rnr_div" in space
        directive = next(builder.build().directives())
        assert directive.op == "rnr.init"
        seq_base, seq_cap, div_base, div_cap, window, asid = directive.args
        assert seq_base == rnr.sequence_region.base
        assert window == 16
        assert asid == 1

    def test_double_init_rejected(self, api):
        rnr, _, _, _ = api
        rnr.init()
        with pytest.raises(RuntimeError):
            rnr.init()

    def test_end_frees_metadata(self, api):
        rnr, builder, space, _ = api
        rnr.init()
        rnr.end()
        assert "rnr_seq" not in space
        assert ops(builder) == ["rnr.init", "rnr.end"]

    def test_end_without_init_rejected(self, api):
        rnr, _, _, _ = api
        with pytest.raises(RuntimeError):
            rnr.end()

    def test_reinit_after_end(self, api):
        rnr, _, space, _ = api
        rnr.init()
        rnr.end()
        rnr.init()  # a second record/replay campaign
        assert any(name.startswith("rnr_seq") for name in space.regions())


class TestAddrBase:
    def test_set_emits_base_and_size(self, api):
        rnr, builder, _, region = api
        rnr.addr_base.set(region, 100)
        directive = next(builder.build().directives())
        assert directive.op == "rnr.addr_base.set"
        assert directive.args == (region.base, 800)

    def test_set_defaults_to_full_region(self, api):
        rnr, builder, _, region = api
        rnr.addr_base.set(region)
        assert next(builder.build().directives()).args[1] == region.size

    def test_set_rejects_oversized_count(self, api):
        rnr, _, _, region = api
        with pytest.raises(ValueError):
            rnr.addr_base.set(region, 10_000)

    def test_enable_disable(self, api):
        rnr, builder, _, region = api
        rnr.addr_base.enable(region)
        rnr.addr_base.disable(region)
        assert ops(builder) == ["rnr.addr_base.enable", "rnr.addr_base.disable"]


class TestStateAndWindow:
    def test_all_table_i_calls_emit(self, api):
        rnr, builder, _, _ = api
        rnr.window_size.set(32)
        rnr.prefetch_state.start()
        rnr.prefetch_state.pause()
        rnr.prefetch_state.resume()
        rnr.prefetch_state.replay()
        rnr.prefetch_state.end()
        assert ops(builder) == [
            "rnr.window_size.set",
            "rnr.state.start",
            "rnr.state.pause",
            "rnr.state.resume",
            "rnr.state.replay",
            "rnr.state.end",
        ]

    def test_window_size_validated(self, api):
        rnr, _, _, _ = api
        with pytest.raises(ValueError):
            rnr.window_size.set(0)

    @pytest.mark.parametrize("window", [0, -3])
    def test_default_window_validated(self, window):
        with pytest.raises(ValueError, match="window size must be >= 1"):
            RnRInterface(TraceBuilder(), AddressSpace(), default_window=window)


class TestLifetime:
    def test_dropping_the_interface_frees_the_builder(self):
        """The sub-interfaces hold no reference back to the interface, so
        the builder and the trace it holds are freed by reference
        counting, not left for the cycle collector."""
        builder = TraceBuilder()
        space = AddressSpace()
        rnr = RnRInterface(builder, space)
        rnr.init()
        rnr.addr_base.set(space.alloc("data", 1000, 8))
        rnr.prefetch_state.start()
        rnr.window_size.set(8)
        ref = weakref.ref(builder)
        gc.disable()
        try:
            del rnr, builder
            assert ref() is None
        finally:
            gc.enable()


class TestEstimateCapacity:
    def test_sufficient_for_worst_case_recording(self):
        """One entry per access with safety margin: a record iteration
        whose every access misses fits the estimate."""
        seq_bytes, div_bytes = RnRInterface.estimate_capacity(
            structure_bytes=64 * 1000, expected_accesses=1000, window_size=16
        )
        assert seq_bytes >= 1000 * 4
        assert div_bytes >= (1000 // 16) * 8

    def test_defaults_to_line_count(self):
        seq_bytes, _ = RnRInterface.estimate_capacity(structure_bytes=64 * 256)
        assert seq_bytes >= 256 * 4

    def test_miss_ratio_scales_down(self):
        full, _ = RnRInterface.estimate_capacity(64 * 1000, expected_accesses=1000)
        half, _ = RnRInterface.estimate_capacity(
            64 * 1000, expected_accesses=1000, miss_ratio=0.5
        )
        assert half < full

    def test_validation(self):
        with pytest.raises(ValueError):
            RnRInterface.estimate_capacity(0)
        with pytest.raises(ValueError):
            RnRInterface.estimate_capacity(64, miss_ratio=0.0)
