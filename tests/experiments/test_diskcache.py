"""Persistent cell cache: key invalidation, atomicity, corruption tolerance."""

import dataclasses
import pickle

import pytest

import repro
from repro.config import SystemConfig
from repro.experiments import diskcache
from repro.experiments.runner import CellSpec, ExperimentRunner
from repro.experiments.supervise import run_supervised_sweep
from repro.rnr.replayer import ControlMode
from tests.helpers import StorePolicy

SPECS = [
    CellSpec("pagerank", "urand", "baseline"),
    CellSpec("pagerank", "urand", "nextline"),
    CellSpec("spcg", "bbmat", "baseline"),
]


def _key(**overrides):
    base = dict(
        config=SystemConfig.experiment(),
        scale="test",
        seed=0,
        iterations=3,
        window=16,
        app="pagerank",
        input_name="urand",
        prefetcher="rnr",
        mode=None,
    )
    base.update(overrides)
    return diskcache.cell_key(**base)


class TestCellKey:
    def test_deterministic(self):
        assert _key() == _key()

    @pytest.mark.parametrize(
        "override",
        [
            {"scale": "bench"},
            {"seed": 1},
            {"iterations": 4},
            {"window": 32},
            {"app": "spcg"},
            {"input_name": "amazon"},
            {"prefetcher": "bingo"},
            {"mode": ControlMode.WINDOW},
            {"version": "0.0.0-other"},
        ],
    )
    def test_every_component_invalidates(self, override):
        assert _key(**override) != _key()

    def test_config_change_invalidates(self):
        config = SystemConfig.experiment()
        tweaked = dataclasses.replace(
            config,
            l2=dataclasses.replace(config.l2, size_bytes=config.l2.size_bytes * 2),
        )
        assert _key(config=tweaked) != _key()

    def test_mode_hashes_by_value(self):
        # Same enum vs raw value — the worker and supervisor must agree.
        assert _key(mode=ControlMode.WINDOW) == _key(mode=ControlMode.WINDOW.value)

    def test_default_version_is_package_version(self):
        assert _key(version=repro.__version__) == _key()


class TestDiskCellCache(StorePolicy):
    store_cls = diskcache.DiskCellCache

    def entry(self):
        return {"payload": 42}

    def test_roundtrip(self, tmp_path):
        cache = diskcache.DiskCellCache(tmp_path)
        key = _key()
        assert cache.get(key) is None
        cache.put(key, {"payload": 42})
        assert cache.get(key) == {"payload": 42}
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_fresh_instance_sees_entries(self, tmp_path):
        diskcache.DiskCellCache(tmp_path).put(_key(), "persisted")
        assert diskcache.DiskCellCache(tmp_path).get(_key()) == "persisted"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = diskcache.DiskCellCache(tmp_path)
        key = _key()
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is None

    def test_entries(self, tmp_path):
        cache = diskcache.DiskCellCache(tmp_path)
        published = [cache.put(_key(window=window), window) for window in (4, 8, 16)]
        assert sorted(cache.entries()) == sorted(published)

    def test_describe_mentions_counts(self, tmp_path):
        cache = diskcache.DiskCellCache(tmp_path)
        cache.put(_key(), "x")
        cache.get(_key())
        text = cache.describe()
        assert "1 entries" in text and "1 hits" in text


class TestRunnerIntegration:
    def test_second_runner_hits_disk(self, tmp_path):
        first = ExperimentRunner(scale="test", cache_dir=tmp_path)
        result = first.run("pagerank", "urand", "nextline")
        assert first.cache.stores >= 1

        second = ExperimentRunner(scale="test", cache_dir=tmp_path)
        cached = second.run("pagerank", "urand", "nextline")
        assert second.cache.hits == 1
        assert cached.stats == result.stats
        # Disk-hit path must not have built any traces.
        assert second._traces == {}

    def test_config_change_misses(self, tmp_path):
        first = ExperimentRunner(scale="test", cache_dir=tmp_path)
        first.run("pagerank", "urand", "baseline")
        config = SystemConfig.experiment()
        tweaked = dataclasses.replace(
            config,
            l2=dataclasses.replace(config.l2, size_bytes=config.l2.size_bytes * 2),
        )
        other = ExperimentRunner(scale="test", cache_dir=tmp_path, config=tweaked)
        other.run("pagerank", "urand", "baseline")
        assert other.cache.hits == 0
        assert other.cache.stores == 1

    def test_cache_disabled_by_default(self):
        runner = ExperimentRunner(scale="test")
        assert runner.cache is None

    def test_cell_result_is_picklable(self, tmp_path):
        runner = ExperimentRunner(scale="test", cache_dir=None)
        result = runner.run("spcg", "bbmat", "rnr")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.stats == result.stats


class TestSupervisedSweep:
    """The sweep report folds in the cell-cache traffic of its workers."""

    def test_cold_sweep_counts_worker_stores(self, tmp_path):
        runner = ExperimentRunner(scale="test", cache_dir=tmp_path)
        report = run_supervised_sweep(runner, SPECS, jobs=2)
        assert report.ok and report.simulated == len(SPECS)
        assert report.cell_cache["stores"] == report.simulated
        # Each cold cell misses twice: the supervisor's probe before
        # dispatch and the worker's own probe before it simulates.
        assert report.cell_cache["misses"] == 2 * len(SPECS)
        assert f"{len(SPECS)} stores" in report.render()

    def test_warm_sweep_counts_hits_only(self, tmp_path):
        run_supervised_sweep(
            ExperimentRunner(scale="test", cache_dir=tmp_path), SPECS, jobs=2
        )
        runner = ExperimentRunner(scale="test", cache_dir=tmp_path)
        report = run_supervised_sweep(runner, SPECS, jobs=2)
        assert report.simulated == 0
        assert report.cell_cache["hits"] == len(SPECS)
        assert report.cell_cache["stores"] == 0
