"""Hardware prefetcher models.

All prefetchers follow the paper's methodology: they train on private-L2
demand traffic and fill prefetched lines into the private L2.  The set
covers every comparison point in the evaluation (next-line, Bingo, SteMS,
MISB, DROPLET) plus GHB and ISB from the motivation section, and the
composite used for "RnR-Combined".
"""

from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.prefetchers.stream import StreamPrefetcher
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.isb import ISBPrefetcher
from repro.prefetchers.misb import MISBPrefetcher
from repro.prefetchers.bingo import BingoPrefetcher
from repro.prefetchers.stems import SteMSPrefetcher
from repro.prefetchers.droplet import DropletPrefetcher
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.registry import PREFETCHERS, make_prefetcher

__all__ = [
    "BingoPrefetcher",
    "CompositePrefetcher",
    "DropletPrefetcher",
    "GHBPrefetcher",
    "ISBPrefetcher",
    "MISBPrefetcher",
    "NextLinePrefetcher",
    "NullPrefetcher",
    "PREFETCHERS",
    "Prefetcher",
    "SteMSPrefetcher",
    "StreamPrefetcher",
    "make_prefetcher",
]
