"""Tests for the Trace container."""

from repro.trace.record import KIND_LOAD, KIND_STORE, Directive, TraceRecord
from repro.trace.trace import Trace


def sample_trace() -> Trace:
    return Trace(
        [
            Directive("iter.begin", (0,)),
            TraceRecord(KIND_LOAD, 0x100, 0x1, 3),
            TraceRecord(KIND_STORE, 0x140, 0x2, 0),
            Directive("iter.end", (0,), gap=2),
        ]
    )


class TestCounts:
    def test_lengths(self):
        trace = sample_trace()
        assert len(trace) == 4
        assert trace.num_loads == 1
        assert trace.num_stores == 1
        assert trace.num_directives == 2

    def test_instructions_counts_gaps_and_refs(self):
        # 3 (gap) + 1 (load) + 0 + 1 (store) + 2 (gap before directive)
        assert sample_trace().instructions == 7

    def test_iteration_helpers(self):
        trace = sample_trace()
        assert [r.addr for r in trace.memory_references()] == [0x100, 0x140]
        assert [d.op for d in trace.directives()] == ["iter.begin", "iter.end"]

    def test_indexing(self):
        trace = sample_trace()
        assert isinstance(trace[0], Directive)
        assert trace[1].addr == 0x100


class TestPackedIterator:
    def test_matches_object_iteration(self):
        trace = sample_trace()
        from repro.trace.record import KIND_DIRECTIVE

        rebuilt = []
        for kind, addr, pc, gap in trace.iter_packed():
            if kind == KIND_DIRECTIVE:
                op, args = trace.directive_at(addr)
                rebuilt.append(Directive(op, args, gap))
            else:
                rebuilt.append(TraceRecord(kind, addr, pc, gap))
        assert rebuilt == list(trace)

    def test_append_ref_matches_record_append(self):
        via_objects = Trace([TraceRecord(KIND_LOAD, 0x200, 0x9, 4)])
        via_columns = Trace()
        via_columns.append_ref(KIND_LOAD, 0x200, 0x9, 4)
        assert list(via_objects) == list(via_columns)
