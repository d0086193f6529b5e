"""Shared fixtures for the test suite.

All unit/integration tests run on the ``tiny`` system configuration and
``test``-scale inputs so the whole suite stays fast; bench-scale runs are
``python -m repro.experiments``, whose default scale is ``bench``.
"""

from __future__ import annotations

import importlib.util

import pytest

from repro.config import SystemConfig
from repro.mem.controller import MemoryController
from repro.cache.hierarchy import CacheHierarchy
from repro.stats import SimStats

# The simulator core is pure python (numpy is the optional ``fast``
# extra), but the graph/sparse/workload generators — and everything that
# imports them, like the experiment runner — hard-require it.  Skip
# collecting those suites on a numpy-free install so the core tests still
# run instead of erroring at import time.
if importlib.util.find_spec("numpy") is None:
    collect_ignore_glob = [
        "graphs/*",
        "sparse/*",
        "workloads/*",
        "experiments/*",
    ]
    collect_ignore = [
        "sim/test_harness.py",
        "sim/test_spmd_multicore.py",
    ]


@pytest.fixture
def tiny_config() -> SystemConfig:
    return SystemConfig.tiny()


@pytest.fixture
def experiment_config() -> SystemConfig:
    return SystemConfig.experiment()


@pytest.fixture
def baseline_config() -> SystemConfig:
    return SystemConfig.baseline()


@pytest.fixture
def controller(tiny_config) -> MemoryController:
    return MemoryController(tiny_config.memory, tiny_config.core)


@pytest.fixture
def hierarchy(tiny_config, controller):
    stats = SimStats()
    return CacheHierarchy(tiny_config, controller, stats)
