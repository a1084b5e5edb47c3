"""Tests for the configuration layer."""

import json

import pytest

from repro.core.config import (
    ConfigError,
    DimensionSpec,
    EngineSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)


def minimal(**overrides):
    defaults = dict(
        dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=8),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestDimensionSpec:
    def test_kind_validated(self):
        with pytest.raises(ConfigError, match="kind"):
            DimensionSpec("pressure", 4, 0.0, 1.0)

    def test_windows_validated(self):
        with pytest.raises(ConfigError):
            DimensionSpec("temperature", 0, 273.0, 373.0)

    def test_range_validated(self):
        with pytest.raises(ConfigError):
            DimensionSpec("temperature", 4, 373.0, 273.0)

    def test_negative_salt_rejected(self):
        with pytest.raises(ConfigError, match="salt: min_value"):
            DimensionSpec("salt", 4, -0.5, 1.0)

    def test_negative_force_constant_rejected(self):
        with pytest.raises(ConfigError, match="force_constant"):
            DimensionSpec("umbrella", 4, 0.0, 360.0, force_constant=-0.02)

    def test_unknown_umbrella_angle_rejected(self):
        with pytest.raises(ConfigError, match="angle"):
            DimensionSpec("umbrella", 4, 0.0, 360.0, angle="omega")

    def test_build_temperature(self):
        d = DimensionSpec("temperature", 6, 273.0, 373.0).build()
        assert d.code == "T"
        assert d.n_windows == 6

    def test_build_umbrella(self):
        d = DimensionSpec(
            "umbrella", 8, 0.0, 360.0, angle="psi", force_constant=0.01
        ).build()
        assert d.code == "U"
        assert d.angle == "psi"
        assert d.force_constant == 0.01

    def test_build_salt(self):
        assert DimensionSpec("salt", 4, 0.0, 1.0).build().code == "S"

    def test_build_ph(self):
        d = DimensionSpec("ph", 4, 4.0, 9.0, pka=7.0).build()
        assert d.code == "H"
        assert d.pka == 7.0


class TestSubSpecs:
    def test_resource_cores_positive(self):
        with pytest.raises(ConfigError):
            ResourceSpec(cores=0)

    def test_pattern_kind_validated(self):
        with pytest.raises(ConfigError):
            PatternSpec(kind="turbo")

    def test_pattern_window_positive(self):
        with pytest.raises(ConfigError):
            PatternSpec(kind="asynchronous", window_seconds=0.0)

    def test_fifo_count_validated(self):
        with pytest.raises(ConfigError):
            PatternSpec(kind="asynchronous", fifo_count=1)

    def test_failure_probability_bounds(self):
        with pytest.raises(ConfigError):
            FailureSpec(probability=1.5)

    def test_failure_policy_validated(self):
        with pytest.raises(ConfigError):
            FailureSpec(policy="pray")


class TestGraySpecs:
    def test_slow_nodes_entry_shape(self):
        for bad in ([[0]], [[0, 2.0, 3.0]], [[-1, 2.0]], [[0, 1.0]], [[0, 0.5]]):
            with pytest.raises(ConfigError, match="slow_nodes"):
                FailureSpec(slow_nodes=bad)
        FailureSpec(slow_nodes=[[0, 2.0], [3, 1.5]])  # valid

    def test_random_slowdowns_need_a_real_factor(self):
        with pytest.raises(ConfigError, match="slow_factor"):
            FailureSpec(slow_node_probability=0.2, slow_factor=1.0)
        FailureSpec(slow_node_probability=0.2, slow_factor=3.0)

    def test_hang_probability_bounds(self):
        with pytest.raises(ConfigError, match="hang_probability"):
            FailureSpec(hang_probability=1.5)

    def test_hangs_require_the_watchdog(self):
        with pytest.raises(ConfigError, match="deadlock"):
            minimal(failure=FailureSpec(hang_probability=0.1))
        minimal(
            failure=FailureSpec(hang_probability=0.1),
            watchdog=WatchdogSpec(enabled=True),
        )

    def test_watchdog_factor_bounds(self):
        with pytest.raises(ConfigError, match="deadline_factor"):
            WatchdogSpec(deadline_factor=1.0)
        with pytest.raises(ConfigError, match="straggler_factor"):
            WatchdogSpec(straggler_factor=1.0)
        with pytest.raises(ConfigError, match="backoff_cap_s"):
            WatchdogSpec(backoff_base_s=10.0, backoff_cap_s=5.0)
        with pytest.raises(ConfigError, match="backoff_jitter"):
            WatchdogSpec(backoff_jitter=1.5)

    def test_speculation_requires_enabled_watchdog(self):
        with pytest.raises(ConfigError, match="enabled"):
            WatchdogSpec(speculative=True)

    def test_barrier_deadline_sync_mode_i_only(self):
        with pytest.raises(ConfigError, match="barrier_deadline_s"):
            PatternSpec(kind="synchronous", barrier_deadline_s=0.0)
        with pytest.raises(ConfigError, match="asynchronous"):
            PatternSpec(kind="asynchronous", barrier_deadline_s=60.0)
        with pytest.raises(ConfigError, match="mode I"):
            minimal(
                pattern=PatternSpec(
                    kind="synchronous", barrier_deadline_s=60.0
                ),
                resource=ResourceSpec("supermic", cores=2),
            )

    def test_gray_specs_roundtrip_through_dict(self):
        cfg = minimal(
            pattern=PatternSpec(kind="synchronous", barrier_deadline_s=60.0),
            failure=FailureSpec(
                policy="continue", slow_nodes=[[0, 4.0]], hang_probability=0.1
            ),
            watchdog=WatchdogSpec(
                enabled=True, deadline_factor=6.0, speculative=True
            ),
        )
        back = SimulationConfig.from_dict(cfg.to_dict())
        assert back.pattern.barrier_deadline_s == 60.0
        assert back.failure.slow_nodes == [[0, 4.0]]
        assert back.watchdog == cfg.watchdog


class TestSimulationConfig:
    def test_n_replicas_is_lattice_product(self):
        cfg = minimal(
            dimensions=[
                DimensionSpec("temperature", 6, 273.0, 373.0),
                DimensionSpec("umbrella", 8, 0.0, 360.0, angle="phi"),
                DimensionSpec("umbrella", 8, 0.0, 360.0, angle="psi"),
            ],
            resource=ResourceSpec("stampede", cores=400),
        )
        assert cfg.n_replicas == 6 * 8 * 8 == 384  # the paper's validation

    def test_type_string(self):
        cfg = minimal(
            dimensions=[
                DimensionSpec("temperature", 2, 273.0, 373.0),
                DimensionSpec("salt", 2, 0.0, 1.0),
                DimensionSpec("umbrella", 2, 0.0, 360.0),
            ],
            resource=ResourceSpec("stampede", cores=8),
        )
        assert cfg.type_string == "TSU"

    def test_auto_mode_resolution(self):
        assert minimal().effective_mode == "I"  # 4 replicas, 8 cores
        cfg = minimal(resource=ResourceSpec("supermic", cores=2))
        assert cfg.effective_mode == "II"

    def test_mode_i_requires_enough_cores(self):
        with pytest.raises(ConfigError, match="mode I"):
            minimal(
                execution_mode="I",
                resource=ResourceSpec("supermic", cores=2),
            )

    def test_numeric_steps_default(self):
        cfg = minimal(steps_per_cycle=6000)
        assert cfg.effective_numeric_steps == 6000
        cfg = minimal(steps_per_cycle=6000, numeric_steps=50)
        assert cfg.effective_numeric_steps == 50

    def test_requires_dimensions(self):
        with pytest.raises(ConfigError, match="dimension"):
            SimulationConfig(dimensions=[])

    def test_multicore_workload_accounting(self):
        cfg = minimal(
            cores_per_replica=4, resource=ResourceSpec("supermic", cores=8)
        )
        assert cfg.effective_mode == "II"  # 4 replicas x 4 cores > 8


class TestSerialization:
    def test_dict_roundtrip(self):
        cfg = minimal(
            n_cycles=7,
            pattern=PatternSpec(kind="asynchronous", window_seconds=30.0),
            failure=FailureSpec(probability=0.1, policy="relaunch"),
        )
        cfg2 = SimulationConfig.from_dict(cfg.to_dict())
        assert cfg2.n_cycles == 7
        assert cfg2.pattern.kind == "asynchronous"
        assert cfg2.failure.policy == "relaunch"
        assert cfg2.n_replicas == cfg.n_replicas

    def test_json_roundtrip(self):
        cfg = minimal()
        text = cfg.to_json()
        cfg2 = SimulationConfig.from_json(text)
        assert cfg2.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        data = minimal().to_dict()
        data["n_cylces"] = 4  # typo
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            SimulationConfig.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            SimulationConfig.from_json("{nope")

    def test_non_object_json_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            SimulationConfig.from_json("[1,2]")

    def test_bad_section_type_rejected(self):
        data = minimal().to_dict()
        data["engine"] = "amber"
        with pytest.raises(ConfigError, match="mapping"):
            SimulationConfig.from_dict(data)

    def test_bad_dimension_key_rejected(self):
        data = minimal().to_dict()
        data["dimensions"][0]["flavor"] = "spicy"
        with pytest.raises(ConfigError, match="bad dimension"):
            SimulationConfig.from_dict(data)


class TestBuildDimensions:
    def test_duplicate_names_disambiguated(self):
        cfg = minimal(
            dimensions=[
                DimensionSpec("umbrella", 2, 0.0, 360.0, angle="phi"),
                DimensionSpec("umbrella", 2, 0.0, 360.0, angle="phi"),
            ]
        )
        dims = cfg.build_dimensions()
        assert dims[0].name != dims[1].name

    def test_tuu_names_distinct(self):
        cfg = minimal(
            dimensions=[
                DimensionSpec("temperature", 2, 273.0, 373.0),
                DimensionSpec("umbrella", 2, 0.0, 360.0, angle="phi"),
                DimensionSpec("umbrella", 2, 0.0, 360.0, angle="psi"),
            ],
            resource=ResourceSpec("supermic", cores=8),
        )
        names = [d.name for d in cfg.build_dimensions()]
        assert len(set(names)) == 3
