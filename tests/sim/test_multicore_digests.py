"""Pinned multicore results.

Golden parity holds the multicore fast backend to the straight one, but
both sides share the ``(clock, core index)`` scheduler, so a change to it
moves them together.  These digests pin what each core computes: the
sha256 of the canonical JSON of its ``SimStats.as_dict()``, per core,
under both backends.

A digest changes whenever any simulated result does.  Recompute them
only for an intended behaviour change, and say which one.
"""

import pytest

from repro.config import SystemConfig
from repro.prefetchers import make_prefetcher
from repro.sim.engine import ENGINE_ENV
from repro.sim.multicore import MulticoreEngine
from repro.trace import Trace
from tests.helpers import stats_digest
from tests.sim.test_golden_parity import build_locality_trace, build_parity_trace


def run_digests(traces, names, backend, monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    engine = MulticoreEngine(
        SystemConfig.experiment(cores=len(traces)),
        prefetchers=[make_prefetcher(name) if name else None for name in names],
        engine=backend,
    )
    return [stats_digest(stats) for stats in engine.run(traces)]


BACKENDS = ["fast", "straight"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_fleet(backend, monkeypatch):
    traces = [build_parity_trace(seed=7 + idx, accesses=3_000) for idx in range(4)]
    names = ["rnr", "stream", "rnr-combined", None]
    assert run_digests(traces, names, backend, monkeypatch) == [
        "dfe59251ac924450941bd0ebec6a876980e711468ed7311d3faf8776aa1aca99",
        "ae29dc4d2d0a4a973f1a3486ec0034491734d9e758600ad0722fd213f0bcb8c0",
        "3a157a8d3c0961442ef52c972f59ce36c7a73186b753c7b74a0247bb007ef9a8",
        "8bab1313dae95b9d86ad1e7577a9f6b7f660a909e95d100f6b26bed299871863",
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rnr_locality_pair(backend, monkeypatch):
    traces = [build_locality_trace(seed=11 + idx, accesses=3_000) for idx in range(2)]
    assert run_digests(traces, ["rnr", "rnr"], backend, monkeypatch) == [
        "6bc71568539c78c44f43c8c028537853b9b8e887d7ff7f606a0ec7d78d30590c",
        "bc3e33cc3bd0c000e40955780dbadd1b4d324feb8d92dc2ee8abefee90460153",
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_core_with_empty_trace(backend, monkeypatch):
    # The idle core never runs and keeps zeroed stats; the others share
    # the LLC and memory controller as usual.
    traces = [
        build_locality_trace(seed=13, accesses=2_000),
        Trace(),
        build_parity_trace(seed=17, accesses=2_000),
    ]
    assert run_digests(traces, ["rnr", "rnr", None], backend, monkeypatch) == [
        "f53f074f2a42bd1f717bef1dd96af9e6d72b01e825bb1a64d821aaed56c082c2",
        "d3eac95e1d5316c77a2e749132ac5621069c7ac5c8d6128d3b22ea20f6be2c22",
        "f2ffa0316dcbc08be89ea06c2e4a7bcd788c9740d0be0bc9e3e0f71c6f54ee72",
    ]
