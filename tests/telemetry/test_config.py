"""TelemetryConfig construction and how the CLI enables telemetry."""

import pickle

import pytest

from repro.telemetry.config import TelemetryConfig


class TestTelemetryConfig:
    def test_disabled_without_out_dir(self):
        config = TelemetryConfig()
        assert not config.enabled
        with pytest.raises(ValueError, match="disabled"):
            config.root

    def test_enabled_with_out_dir(self, tmp_path):
        config = TelemetryConfig(out_dir=tmp_path / "tel")
        assert config.enabled
        assert config.root == tmp_path / "tel"

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match=">= 1"):
            TelemetryConfig(sample_interval=0)

    def test_pickles_without_heartbeat(self, tmp_path):
        """The supervisor ships configs to workers; heartbeat stays local."""
        config = TelemetryConfig(out_dir=str(tmp_path), sample_interval=123)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.heartbeat is None

    def test_heartbeat_excluded_from_equality(self, tmp_path):
        a = TelemetryConfig(out_dir=str(tmp_path))
        b = TelemetryConfig(out_dir=str(tmp_path), heartbeat=lambda payload: None)
        assert a == b


class TestResolveConfig:
    def test_disabled_by_default(self, capsys):
        # The experiments CLI imports the workload stack, which needs numpy.
        pytest.importorskip("numpy")
        from repro.experiments.__main__ import main

        # --telemetry-dir gates everything: the other telemetry flags
        # alone enable nothing.
        assert main(["hw", "--sample-interval", "5", "--trace-events"]) == 0
        assert "[telemetry:" not in capsys.readouterr().out
