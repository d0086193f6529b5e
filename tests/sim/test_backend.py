"""Engine backend selection shared by every entry point.

Covers the shared resolver (``--engine`` / ``RNR_ENGINE``), its eager
validation in the engine constructors, and the experiments CLI's clean
error for an unknown backend.  ``vector`` names a removed backend and is
rejected like any other unknown name.  Exact statistics parity between
the backends lives in ``test_golden_parity``.
"""

import pytest

from repro.config import SystemConfig
from repro.sim.backend import ENGINE_BACKENDS, ENGINE_ENV, resolve_engine_backend
from repro.sim.engine import SimulationEngine
from repro.sim.multicore import MulticoreEngine


@pytest.fixture(autouse=True)
def clean_engine_env(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)


class TestResolveEngineBackend:
    def test_default_is_fast(self):
        assert resolve_engine_backend() == "fast"

    @pytest.mark.parametrize("name", ENGINE_BACKENDS)
    def test_explicit_argument(self, name):
        assert resolve_engine_backend(name) == name

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "straight")
        assert resolve_engine_backend("fast") == "fast"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "straight")
        assert resolve_engine_backend() == "straight"

    def test_unknown_argument_rejected(self):
        with pytest.raises(ValueError, match="must be one of fast, straight"):
            resolve_engine_backend("bogus")

    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp")
        with pytest.raises(ValueError, match=ENGINE_ENV):
            resolve_engine_backend()

    def test_engine_constructor_validates_eagerly(self):
        with pytest.raises(ValueError, match="bogus"):
            SimulationEngine(SystemConfig.tiny(), None, engine="bogus")


class TestVectorRejected:
    def test_engine_argument(self):
        with pytest.raises(ValueError, match="must be one of fast, straight"):
            SimulationEngine(SystemConfig.tiny(), None, engine="vector")
        with pytest.raises(ValueError, match="must be one of fast, straight"):
            MulticoreEngine(SystemConfig.tiny(), engine="vector")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        with pytest.raises(
            ValueError, match=f"{ENGINE_ENV} must be one of fast, straight"
        ):
            resolve_engine_backend()


class TestExperimentsCli:
    # The experiments CLI imports the workload stack, which needs numpy.
    def _main(self):
        pytest.importorskip("numpy")
        from repro.experiments.__main__ import main

        return main

    @pytest.mark.parametrize("name", ["warp", "vector"])
    def test_unknown_engine_is_a_clean_cli_error(self, name, capsys):
        main = self._main()
        with pytest.raises(SystemExit) as excinfo:
            main(["fig01", "--scale", "test", "--engine", name])
        assert excinfo.value.code == 2
        assert "must be one of fast, straight" in capsys.readouterr().err
