"""Concurrent writers — and readers — racing the disk cache and the
trace store.

Two sweeps sharing one ``--cache-dir`` / ``--trace-store`` can
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


def _small_trace(seed):
    trace = Trace()
    trace.append_directive("iter.begin", (0,))
    for i in range(8):
        trace.append_ref(KIND_LOAD, 0x1000 + 0x40 * i + seed, 0x400, 2)
    return trace


def _race_put(race, root, key, barrier, results):
    store = race.store_cls(root)
    entry = race.entry()
    barrier.wait()
    store.put(key, entry)
    results.put((os.getpid(), store.counters()))


class FirstWinnerRace:
    """WRITERS processes put one key at once; a subclass sets the store
    class, its ``entry()`` and the check that an entry is whole."""

    def test_exactly_one_winner_no_torn_entry(self, tmp_path):
        key = "a" * 16
        barrier = multiprocessing.Barrier(WRITERS)
        results = multiprocessing.Queue()
        procs = [
            multiprocessing.Process(
                target=_race_put, args=(self, tmp_path, key, barrier, results)
            )
            for _ in range(WRITERS)
        ]
        for proc in procs:
            proc.start()
        # Drain the queue before joining its writers.
        counters = [results.get(timeout=60) for _ in range(WRITERS)]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert sum(c["stores"] for _, c in counters) == 1
        assert sum(c["races"] for _, c in counters) == WRITERS - 1
        reader = self.store_cls(tmp_path)
        self.assert_whole(reader.get(key), {pid for pid, _ in counters})
        assert reader.corrupt == 0
        # No staging litter left behind.
        staged = [p for p in tmp_path.rglob("*") if p.name.startswith(".")]
        assert staged == []
        assert "races" in reader.describe()


class TestCellCacheRace(FirstWinnerRace):
    store_cls = diskcache.DiskCellCache

    @staticmethod
    def entry():
        return {"writer": os.getpid(), "answer": 42}

    @staticmethod
    def assert_whole(value, racers):
        assert value is not None and value["answer"] == 42
        assert value["writer"] in racers


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


class TestTraceStoreRace(FirstWinnerRace):
    store_cls = TraceStore

    @staticmethod
    def entry():
        return _small_trace(seed=0)

    @staticmethod
    def assert_whole(trace, racers):
        assert trace is not None
        assert list(trace) == list(_small_trace(seed=0))
