"""Tests for :class:`RunConfig` and the legacy-keyword deprecation shims."""

import warnings

import pytest

import repro.experiments.config as config_module
from repro.errors import ConfigurationError
from repro.experiments.config import DEFAULT_DURATION_BITS, ENGINES, RunConfig
from repro.experiments.runner import make_simulator, run_and_measure
from repro.experiments.scenarios import experiment_1


@pytest.fixture(autouse=True)
def fresh_warning_state():
    config_module._WARNED_SHIMS.clear()
    yield
    config_module._WARNED_SHIMS.clear()


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.duration_bits == DEFAULT_DURATION_BITS
        assert cfg.engine == "fast"
        assert cfg.record_wire is True

    def test_engine_validation(self):
        assert ENGINES == ("fast", "bit")
        with pytest.raises(ConfigurationError, match="engine"):
            RunConfig(engine="quantum")

    def test_duration_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(duration_bits=-1)

    def test_bus_speed_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(bus_speed=0)

    def test_policy_mapping(self):
        assert RunConfig(engine="fast").policy() == "auto"
        assert RunConfig(engine="bit").policy() == "off"

    def test_with_overrides_revalidates(self):
        cfg = RunConfig(duration_bits=1_000)
        assert cfg.with_overrides(engine="bit").engine == "bit"
        with pytest.raises(ConfigurationError):
            cfg.with_overrides(engine="nope")


class TestLegacyShims:
    def test_legacy_kwargs_warn_once_per_entry_point(self):
        setup = experiment_1()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup.run(2_000)
            experiment_1().run(2_000)
        shim_warnings = [w for w in caught
                         if issubclass(w.category, DeprecationWarning)
                         and "RunConfig" in str(w.message)]
        assert len(shim_warnings) == 1

    def test_config_plus_legacy_is_ambiguous(self):
        setup = experiment_1()
        with pytest.raises(ConfigurationError, match="not both"):
            setup.run(2_000, config=RunConfig(duration_bits=2_000))

    def test_config_path_does_not_warn(self):
        setup = experiment_1()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup.run(config=RunConfig(duration_bits=2_000))
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)
                    and "RunConfig" in str(w.message)]

    def test_legacy_and_config_results_match(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = experiment_1().run(4_000)
        modern = experiment_1().run(config=RunConfig(duration_bits=4_000))
        assert legacy.to_dict() == modern.to_dict()

    def test_make_simulator_legacy_speed(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim = make_simulator(bus_speed=125_000)
        assert sim.bus_speed == 125_000
        assert any("RunConfig" in str(w.message) for w in caught)

    def test_make_simulator_config(self):
        sim = make_simulator(config=RunConfig(
            bus_speed=125_000, record_wire=False))
        assert sim.bus_speed == 125_000
        assert not sim.wire.record

    def test_run_and_measure_engine_selection(self):
        setup = experiment_1()
        run_and_measure(setup.sim, setup.attackers,
                        defenders=(setup.defender,),
                        config=RunConfig(duration_bits=4_000, engine="bit"))
        assert setup.sim._ff_engine is None
