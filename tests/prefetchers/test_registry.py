"""Tests for the prefetcher registry."""

import pytest

from repro.prefetchers import PREFETCHERS, make_prefetcher
from repro.prefetchers.composite import CompositePrefetcher
from repro.rnr.prefetcher import RnRPrefetcher
from repro.rnr.replayer import ControlMode


class TestRegistry:
    def test_all_paper_prefetchers_present(self):
        for name in (
            "baseline",
            "nextline",
            "stream",
            "ghb",
            "isb",
            "misb",
            "bingo",
            "stems",
            "droplet",
            "rnr",
            "rnr-combined",
        ):
            assert name in PREFETCHERS

    def test_make_each(self):
        for name in PREFETCHERS:
            prefetcher = make_prefetcher(name)
            assert prefetcher is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            make_prefetcher("nope")

    def test_rnr_combined_composition(self):
        combined = make_prefetcher("rnr-combined")
        assert isinstance(combined, CompositePrefetcher)
        assert combined.name == "rnr-combined"
        assert isinstance(combined.children[0], RnRPrefetcher)
        assert combined.children[1].exclude_flagged

    def test_kwargs_forwarded(self):
        rnr = make_prefetcher("rnr", mode=ControlMode.WINDOW)
        assert rnr.mode is ControlMode.WINDOW
        nextline = make_prefetcher("nextline", degree=3)
        assert nextline.degree == 3
