"""Name-based prefetcher construction for experiments and examples."""

from __future__ import annotations

from typing import Callable, Dict

from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.bingo import BingoPrefetcher
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.droplet import DropletPrefetcher
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.isb import ISBPrefetcher
from repro.prefetchers.misb import MISBPrefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.prefetchers.stems import SteMSPrefetcher
from repro.prefetchers.stream import StreamPrefetcher


def _make_rnr(**kwargs) -> Prefetcher:
    from repro.rnr.prefetcher import RnRPrefetcher

    return RnRPrefetcher(**kwargs)


def _make_rnr_combined(**kwargs) -> Prefetcher:
    from repro.rnr.prefetcher import RnRPrefetcher

    rnr = RnRPrefetcher(**kwargs)
    stream = StreamPrefetcher(exclude_flagged=True)
    combined = CompositePrefetcher([rnr, stream])
    combined.name = "rnr-combined"
    return combined


PREFETCHERS: Dict[str, Callable[..., Prefetcher]] = {
    "baseline": NullPrefetcher,
    "nextline": NextLinePrefetcher,
    "stream": StreamPrefetcher,
    "ghb": GHBPrefetcher,
    "isb": ISBPrefetcher,
    "misb": MISBPrefetcher,
    "bingo": BingoPrefetcher,
    "stems": SteMSPrefetcher,
    "droplet": DropletPrefetcher,
    "rnr": _make_rnr,
    "rnr-combined": _make_rnr_combined,
}


def make_prefetcher(name: str, **kwargs) -> Prefetcher:
    """Instantiate a prefetcher by its registry name."""
    try:
        factory = PREFETCHERS[name]
    except KeyError:
        known = ", ".join(sorted(PREFETCHERS))
        raise ValueError(f"unknown prefetcher {name!r}; known: {known}") from None
    return factory(**kwargs)
