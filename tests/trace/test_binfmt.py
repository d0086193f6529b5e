"""Packed binary trace format: round-trips, framing, corruption.

Covers the tentpole's on-disk format in isolation: mapped and eager
round-trips, the read-only contract of :class:`MappedTrace`, and —
critically for the store's degradation path — that truncation and bit
flips are rejected deterministically by the framing checks instead of
feeding a corrupted stream to the simulator.

The property test is the format's contract with :class:`Trace`: any
trace whose directive args are JSON values round-trips identically
through both loads, mapped and eager.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import binfmt
from repro.trace.binfmt import (
    MappedTrace,
    TraceFormatError,
    read_trace,
    write_trace,
)
from repro.trace.record import KIND_LOAD, KIND_STORE, Directive, TraceRecord
from repro.trace.trace import Trace
from tests.helpers import clobber_directive_table


def sample_trace() -> Trace:
    return Trace(
        [
            Directive("iter.begin", (0,)),
            TraceRecord(KIND_LOAD, 0x1000, 0x400, 3),
            TraceRecord(KIND_STORE, 0x1040, 0x404, 0),
            Directive("rnr.addr_base.set", ("x", 0x1000), gap=2),
            TraceRecord(KIND_LOAD, (1 << 64) - 8, (1 << 64) - 1, 7),
            Directive("iter.end", (0,)),
        ]
    )


class TestRoundTrip:
    def test_mapped(self, tmp_path):
        trace = sample_trace()
        path = write_trace(trace, tmp_path / "t.rnrt")
        loaded = read_trace(path)
        assert isinstance(loaded, MappedTrace)
        assert list(loaded) == list(trace)
        assert loaded.num_loads == trace.num_loads
        assert loaded.num_stores == trace.num_stores
        assert loaded.num_directives == trace.num_directives
        assert loaded.instructions == trace.instructions
        loaded.close()

    def test_eager(self, tmp_path):
        trace = sample_trace()
        path = write_trace(trace, tmp_path / "t.rnrt")
        loaded = read_trace(path, map=False)
        assert not isinstance(loaded, MappedTrace)
        assert list(loaded) == list(trace)

    def test_mapped_trace_rewrites_identically(self, tmp_path):
        # The writer serializes the columns in place, memoryviews included.
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        mapped = read_trace(path)
        again = write_trace(mapped, tmp_path / "again.rnrt")
        mapped.close()
        assert again.read_bytes() == path.read_bytes()

    def test_empty_trace(self, tmp_path):
        path = write_trace(Trace(), tmp_path / "empty.rnrt")
        loaded = read_trace(path)
        assert len(loaded) == 0
        assert list(loaded) == []
        loaded.close()

    def test_iter_packed_matches_source(self, tmp_path):
        trace = sample_trace()
        path = write_trace(trace, tmp_path / "t.rnrt")
        loaded = read_trace(path)
        assert list(loaded.iter_packed()) == list(trace.iter_packed())
        loaded.close()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.builds(
                    TraceRecord,
                    st.sampled_from([KIND_LOAD, KIND_STORE]),
                    st.integers(min_value=0, max_value=(1 << 64) - 1),
                    st.integers(min_value=0, max_value=(1 << 64) - 1),
                    st.integers(min_value=0, max_value=1 << 20),
                ),
                st.builds(
                    Directive,
                    st.sampled_from(
                        ["iter.begin", "rnr.state.replay", "os.switch", "x"]
                    ),
                    st.tuples(
                        st.one_of(
                            st.integers(min_value=0, max_value=1 << 40),
                            st.text(max_size=8),
                        )
                    ),
                    st.integers(min_value=0, max_value=100),
                ),
            ),
            max_size=40,
        )
    )
    def test_round_trip_property_both_formats(self, entries):
        """Refs, directives with args, and gaps survive both loads."""
        import tempfile
        from pathlib import Path

        trace = Trace(entries)
        with tempfile.TemporaryDirectory() as tmp:
            bin_path = Path(tmp) / "t.rnrt"
            write_trace(trace, bin_path)
            mapped = read_trace(bin_path)
            eager = read_trace(bin_path, map=False)
            assert list(mapped) == entries
            assert list(eager) == entries
            assert mapped.instructions == trace.instructions
            assert eager.instructions == trace.instructions
            mapped.close()


class TestMappedTraceContract:
    def test_read_only(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        loaded = read_trace(path)
        with pytest.raises(TypeError):
            loaded.append_ref(KIND_LOAD, 0x1, 0x2)
        with pytest.raises(TypeError):
            loaded.append_directive("iter.begin", (1,))
        loaded.close()

    def test_close_is_idempotent(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        loaded = read_trace(path)
        loaded.close()
        loaded.close()


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_truncated_inside_header(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TraceFormatError, match="header"):
            read_trace(path)

    @pytest.mark.parametrize("map_mode", [True, False])
    def test_bit_flip_fails_checksum(self, tmp_path, map_mode):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0x01  # one bit inside the addr column
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="checksum"):
            read_trace(path, map=map_mode)

    def test_bad_magic(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(path)

    def test_future_format_version(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        raw = bytearray(path.read_bytes())
        raw[4] = binfmt.FORMAT_VERSION + 1  # little-endian u16 low byte
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_corrupt_directive_table(self, tmp_path):
        trace = Trace([Directive("iter.begin", (0,))])
        path = write_trace(trace, tmp_path / "t.rnrt")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # clobber the JSON blob's closing byte
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_bad_directive_table_under_valid_crc_mapped(self, tmp_path):
        """The JSON parse, not the CRC, rejects the table; the mapped read
        must still raise TraceFormatError, with no column view left
        exported when the map closes."""
        path = write_trace(sample_trace(), tmp_path / "t.rnrt")
        clobber_directive_table(path)
        with pytest.raises(TraceFormatError, match="directive table"):
            read_trace(path, map=True)


class TestAtomicity:
    def test_no_temp_litter_on_success(self, tmp_path):
        write_trace(sample_trace(), tmp_path / "t.rnrt")
        assert [p.name for p in tmp_path.iterdir()] == ["t.rnrt"]

    def test_unserializable_directive_leaves_no_file(self, tmp_path):
        trace = Trace([Directive("bad", (object(),))])
        with pytest.raises(TypeError):
            write_trace(trace, tmp_path / "t.rnrt")
        assert not (tmp_path / "t.rnrt").exists()
        assert list(tmp_path.glob(".tmp-*")) == []
