"""Concurrent writers — and readers — racing the disk cache and the
trace store.

Two sweeps sharing one ``RNR_CACHE_DIR`` / ``RNR_TRACE_STORE`` can
finish the same cell, or build the same trace, at the same instant.  The
stores must stay first-winner: exactly one process's entry lands, every
loser counts a race, and a reader never sees a torn or truncated entry.
The other sweep's supervisor and workers also read the directories while
cells commit, and must only ever observe "absent" or "whole" — never a
partial frame.
"""

import multiprocessing
import os

from repro.experiments import diskcache
from repro.trace.record import KIND_LOAD
from repro.trace.store import TraceStore
from repro.trace.trace import Trace

WRITERS = 6


def _race_cache_put(root, key, barrier, results):
    cache = diskcache.DiskCellCache(root)
    payload = {"writer": os.getpid(), "answer": 42}
    barrier.wait()
    cache.put(key, payload)
    results.put((os.getpid(), cache.counters()))


def _small_trace(seed):
    trace = Trace()
    trace.append_directive("iter.begin", (0,))
    for i in range(8):
        trace.append_ref(KIND_LOAD, 0x1000 + 0x40 * i + seed, 0x400, 2)
    return trace


def _race_store_put(root, key, barrier, results):
    store = TraceStore(root)
    trace = _small_trace(seed=0)
    barrier.wait()
    store.put(key, trace)
    results.put((os.getpid(), store.counters()))


def _run_racers(target, root, key):
    barrier = multiprocessing.Barrier(WRITERS)
    results = multiprocessing.Queue()
    procs = [
        multiprocessing.Process(target=target, args=(root, key, barrier, results))
        for _ in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    return [results.get(timeout=10) for _ in range(WRITERS)]


class TestCellCacheRace:
    def test_exactly_one_winner_no_torn_entry(self, tmp_path):
        key = "a" * 16
        counters = _run_racers(_race_cache_put, tmp_path, key)
        stores = sum(c["stores"] for _, c in counters)
        races = sum(c["races"] for _, c in counters)
        assert stores == 1
        assert races == WRITERS - 1
        # The surviving entry is whole and belongs to one of the racers.
        reader = diskcache.DiskCellCache(tmp_path)
        value = reader.get(key)
        assert value is not None and value["answer"] == 42
        assert value["writer"] in {pid for pid, _ in counters}
        assert reader.corrupt == 0
        # No staging litter left behind.
        staged = [p for p in tmp_path.rglob("*") if ".staged" in p.name]
        assert staged == []
        assert "races" in reader.describe()


def _race_cache_reader(root, keys, barrier, stop, results):
    """Hammer ``get`` across every key until told to stop; report any
    torn observation (corrupt counter) and how many whole reads landed."""
    cache = diskcache.DiskCellCache(root)
    whole = 0
    barrier.wait()
    while not stop.is_set():
        for key in keys:
            value = cache.get(key)
            if value is not None:
                assert value["answer"] == 42, "torn entry served"
                whole += 1
    results.put((os.getpid(), whole, cache.corrupt))


def _commit_cells(root, keys, barrier, stop):
    cache = diskcache.DiskCellCache(root)
    barrier.wait()
    for key in keys:
        cache.put(key, {"writer": os.getpid(), "answer": 42})
    stop.set()


class TestReadersRacingWriter:
    """Readers polling the cache directory while a writer commits."""

    READERS = 4

    def test_readers_never_see_torn_data(self, tmp_path):
        keys = [f"{i:02d}" + "c" * 14 for i in range(24)]
        barrier = multiprocessing.Barrier(self.READERS + 1)
        stop = multiprocessing.Event()
        results = multiprocessing.Queue()
        readers = [
            multiprocessing.Process(
                target=_race_cache_reader,
                args=(tmp_path, keys, barrier, stop, results),
            )
            for _ in range(self.READERS)
        ]
        writer = multiprocessing.Process(
            target=_commit_cells, args=(tmp_path, keys, barrier, stop)
        )
        for proc in readers + [writer]:
            proc.start()
        for proc in readers + [writer]:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        observations = [results.get(timeout=10) for _ in range(self.READERS)]
        # Every committed cell reads back whole, and no reader ever saw
        # a torn frame (the CRC would have counted it as corrupt).
        for _, _, corrupt in observations:
            assert corrupt == 0
        follower = diskcache.DiskCellCache(tmp_path)
        for key in keys:
            value = follower.get(key)
            assert value is not None and value["answer"] == 42
        assert follower.corrupt == 0


class TestTraceStoreRace:
    def test_exactly_one_winner_trace_readable(self, tmp_path):
        key = "b" * 16
        counters = _run_racers(_race_store_put, tmp_path, key)
        stores = sum(c["stores"] for _, c in counters)
        races = sum(c["races"] for _, c in counters)
        assert stores == 1
        assert races == WRITERS - 1
        reader = TraceStore(tmp_path)
        trace = reader.get(key)
        assert trace is not None
        assert len(trace) == len(_small_trace(seed=0))
        assert reader.corrupt == 0
        staged = [p for p in tmp_path.rglob("*") if ".staged" in p.name]
        assert staged == []
