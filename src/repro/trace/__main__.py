"""Trace-file inspection CLI.

Usage::

    python -m repro.trace stats trace.rnrt       # summary + per-PC profile
    python -m repro.trace dump  trace.rnrt -n 20
    python -m repro.trace diff  a.rnrt b.rnrt

Every command reads the packed binary format of :mod:`repro.trace.binfmt`,
the one the trace store keeps; :func:`repro.trace.binfmt.write_trace`
writes a standalone file.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.config import LINE_SIZE
from repro.trace.binfmt import read_trace
from repro.trace.record import KIND_DIRECTIVE, KIND_LOAD, KIND_STORE


def cmd_stats(args) -> int:
    trace = read_trace(args.file)
    print(f"{args.file}:")
    print(f"  entries:       {len(trace)}")
    print(f"  loads:         {trace.num_loads}")
    print(f"  stores:        {trace.num_stores}")
    print(f"  directives:    {trace.num_directives}")
    print(f"  instructions:  {trace.instructions}")
    lines = {record.addr // LINE_SIZE for record in trace.memory_references()}
    print(f"  distinct lines: {len(lines)}")
    by_pc = Counter(record.pc for record in trace.memory_references())
    print("  references by PC:")
    for pc, count in by_pc.most_common(12):
        print(f"    {pc:#8x}: {count}")
    by_op = Counter(d.op for d in trace.directives())
    if by_op:
        print("  directives by op:")
        for op, count in sorted(by_op.items()):
            print(f"    {op}: {count}")
    return 0


def cmd_dump(args) -> int:
    trace = read_trace(args.file)
    names = {KIND_LOAD: "LOAD ", KIND_STORE: "STORE"}
    for index, entry in enumerate(trace):
        if index >= args.limit:
            print(f"... ({len(trace) - args.limit} more)")
            break
        if entry.kind == KIND_DIRECTIVE:
            print(f"{index:>8}  DIR    {entry.op}{entry.args}")
        else:
            print(
                f"{index:>8}  {names[entry.kind]}  addr={entry.addr:#x} "
                f"pc={entry.pc:#x} gap={entry.gap}"
            )
    return 0


def cmd_diff(args) -> int:
    trace_a = read_trace(args.file)
    trace_b = read_trace(args.other)
    refs_a = [(r.kind, r.addr) for r in trace_a.memory_references()]
    refs_b = [(r.kind, r.addr) for r in trace_b.memory_references()]
    if refs_a == refs_b:
        print("memory reference streams are identical")
        return 0
    length = min(len(refs_a), len(refs_b))
    for index in range(length):
        if refs_a[index] != refs_b[index]:
            print(f"first divergence at reference {index}:")
            print(f"  {args.file}: {refs_a[index]}")
            print(f"  {args.other}: {refs_b[index]}")
            return 1
    print(f"streams share a prefix; lengths differ ({len(refs_a)} vs {len(refs_b)})")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.trace")
    sub = parser.add_subparsers(dest="command", required=True)
    p_stats = sub.add_parser("stats", help="summary statistics of a trace file")
    p_stats.add_argument("file")
    p_stats.set_defaults(func=cmd_stats)
    p_dump = sub.add_parser("dump", help="print trace entries")
    p_dump.add_argument("file")
    p_dump.add_argument("-n", "--limit", type=int, default=40)
    p_dump.set_defaults(func=cmd_dump)
    p_diff = sub.add_parser("diff", help="compare two traces' reference streams")
    p_diff.add_argument("file")
    p_diff.add_argument("other")
    p_diff.set_defaults(func=cmd_diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
