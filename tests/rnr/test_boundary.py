"""Tests for the boundary-checking address registers."""

import pytest
from hypothesis import given, strategies as st

from repro.config import LINE_SIZE
from repro.rnr.boundary import BoundaryTable
from repro.rnr.tables import CorruptMetadataError


class TestSetEnableDisable:
    def test_check_requires_enable(self):
        table = BoundaryTable()
        table.set(0x1000, 0x100)
        assert table.check(0x1000) is None
        table.enable(0x1000)
        assert table.check(0x1000) is not None

    def test_check_returns_slot_and_line_offset(self):
        table = BoundaryTable()
        table.set(0x1000, 0x1000)
        table.enable(0x1000)
        slot, offset = table.check(0x1000 + 3 * LINE_SIZE + 7)
        assert slot == 0
        assert offset == 3

    def test_out_of_range_not_flagged(self):
        table = BoundaryTable()
        table.set(0x1000, 0x100)
        table.enable(0x1000)
        assert table.check(0xFFF) is None
        assert table.check(0x1100) is None

    def test_two_registers(self):
        table = BoundaryTable(max_entries=2)
        table.set(0x1000, 0x100)
        table.set(0x9000, 0x100)
        table.enable(0x9000)
        slot, _ = table.check(0x9000)
        assert slot == 1

    def test_register_count_enforced(self):
        """Footnote 1: the evaluation uses two boundary registers."""
        table = BoundaryTable(max_entries=2)
        table.set(0x1000, 0x100)
        table.set(0x2000, 0x100)
        with pytest.raises(RuntimeError):
            table.set(0x3000, 0x100)

    def test_set_same_base_updates_size(self):
        table = BoundaryTable(max_entries=1)
        table.set(0x1000, 0x100)
        table.set(0x1000, 0x200)  # resize, not a new register
        table.enable(0x1000)
        assert table.check(0x1000 + 0x150) is not None

    def test_disable_unknown_base(self):
        with pytest.raises(KeyError):
            BoundaryTable().disable(0xDEAD)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            BoundaryTable().set(0, 0)


class TestReplayTranslation:
    """``BoundaryTable.resolve``: the resolver replay uses, through
    ``SequenceTable.checked_line_addr``."""

    def test_line_addr_same_slot(self):
        table = BoundaryTable()
        table.set(0x1000, 0x1000)
        table.enable(0x1000)
        assert table.resolve(0, 3) == (0x1000 + 3 * LINE_SIZE) // LINE_SIZE

    def test_base_swap_redirects_to_enabled_register(self):
        """Algorithm 1 lines 31-33: p_curr/p_next swap.  Offsets recorded
        against the old base must replay against the newly-enabled one."""
        table = BoundaryTable(max_entries=2)
        table.set(0x1000, 0x1000)
        table.set(0x9000, 0x1000)
        table.enable(0x1000)
        slot, offset = table.check(0x1000 + 5 * LINE_SIZE)
        # Swap: disable old, enable new.
        table.disable(0x1000)
        table.enable(0x9000)
        replayed = table.resolve(slot, offset)
        assert replayed == (0x9000 + 5 * LINE_SIZE) // LINE_SIZE

    def test_offset_beyond_region_is_corrupt(self):
        """No recorder writes an offset past its structure: corrupt
        metadata, which replay turns into a skipped window."""
        table = BoundaryTable()
        table.set(0x1000, 2 * LINE_SIZE)
        table.enable(0x1000)
        with pytest.raises(CorruptMetadataError):
            table.resolve(0, 5)

    def test_ambiguous_swap_returns_none(self):
        """With zero or two enabled candidates the redirect is ambiguous."""
        table = BoundaryTable(max_entries=2)
        table.set(0x1000, 0x1000)
        table.set(0x9000, 0x1000)
        # Recorded against slot 0, now disabled; nothing enabled.
        assert table.resolve(0, 1) is None
        # Recorded against slot 0, now disabled; two others enabled.
        table = BoundaryTable(max_entries=3)
        for base in (0x1000, 0x9000, 0x20000):
            table.set(base, 0x1000)
        table.enable(0x9000)
        table.enable(0x20000)
        assert table.resolve(0, 1) is None


class TestSnapshot:
    def test_snapshot_restore_round_trip(self):
        table = BoundaryTable(max_entries=2)
        table.set(0x1000, 0x100)
        table.enable(0x1000)
        saved = table.snapshot()
        other = BoundaryTable(max_entries=2)
        other.restore(saved)
        assert other.check(0x1000) == table.check(0x1000)


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=1, max_value=1 << 20),
        st.integers(min_value=0, max_value=1 << 30),
    )
    def test_check_iff_in_range(self, base, size, address):
        table = BoundaryTable()
        table.set(base, size)
        table.enable(base)
        hit = table.check(address)
        if base <= address < base + size:
            assert hit is not None
            slot, offset = hit
            assert offset == (address - base) // LINE_SIZE
        else:
            assert hit is None

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=1, max_value=1 << 10),
    )
    def test_record_replay_round_trip(self, base, num_lines):
        """check() then resolve() recovers the original line."""
        base *= LINE_SIZE
        table = BoundaryTable()
        table.set(base, num_lines * LINE_SIZE)
        table.enable(base)
        address = base + (num_lines - 1) * LINE_SIZE
        slot, offset = table.check(address)
        assert table.resolve(slot, offset) == address // LINE_SIZE
