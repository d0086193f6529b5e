"""A single cache line's bookkeeping state."""

from __future__ import annotations


class CacheLine:
    """State for one resident line.

    ``arrive`` lets the trace-driven engine treat in-flight fills uniformly:
    the line is inserted at issue time but is only logically present once
    ``cycle >= arrive`` — a demand access earlier than that is an MSHR merge
    (or, for a prefetch, a *late* prefetch).
    """

    __slots__ = ("tag", "dirty", "prefetched", "pf_window", "arrive")

    def __init__(self, tag: int, arrive: int = 0):
        self.tag = tag
        self.dirty = False
        self.prefetched = False
        self.pf_window = -1
        self.arrive = arrive

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            flag
            for flag, on in (("D", self.dirty), ("P", self.prefetched))
            if on
        )
        return f"CacheLine(tag={self.tag:#x}, flags={flags or '-'}, arrive={self.arrive})"
