"""Chaos fault-spec parsing and the worker-side fault trigger."""

import pytest

from repro.experiments import faults
from repro.experiments.diskcache import CacheIntegrityError


class TestParsing:
    def test_plain_spec(self):
        assert faults.parse_fault_spec("pagerank/urand/rnr=crash") == (
            "pagerank/urand/rnr",
            "crash",
            None,
        )

    def test_bounded_spec(self):
        assert faults.parse_fault_spec("a/b/c=hang:2") == ("a/b/c", "hang", 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "no-equals",
            "=crash",
            "cell=",
            "cell=explode",
            "cell=crash:zero",
            "cell=crash:0",
            "worker-die",
            "drop-msg:0.2",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            faults.parse_fault_spec(bad)

    def test_parse_many(self):
        plan = faults.parse_faults(["a=raise", "b=crash:1"])
        assert plan == {"a": ("raise", None), "b": ("crash", 1)}


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_inert(self):
        plan = faults.FaultPlan()
        assert not plan
        plan.fire("any/cell/id")  # no-op

    def test_raise_fault(self):
        plan = faults.FaultPlan({"a/b/c": ("raise", None)})
        with pytest.raises(faults.InjectedFault):
            plan.fire("a/b/c")
        plan.fire("other/cell")  # untargeted cells are untouched

    def test_cache_fault_raises_integrity_error(self):
        plan = faults.FaultPlan({"a/b/c": ("cache", None)})
        with pytest.raises(CacheIntegrityError):
            plan.fire("a/b/c")

    def test_attempt_bound_makes_fault_transient(self):
        plan = faults.FaultPlan({"a/b/c": ("raise", 2)})
        with pytest.raises(faults.InjectedFault):
            plan.fire("a/b/c", attempt=1)
        with pytest.raises(faults.InjectedFault):
            plan.fire("a/b/c", attempt=2)
        plan.fire("a/b/c", attempt=3)  # past the bound: no fault

    def test_unbounded_fault_fires_every_attempt(self):
        plan = faults.FaultPlan({"a/b/c": ("raise", None)})
        with pytest.raises(faults.InjectedFault):
            plan.fire("a/b/c", attempt=99)
