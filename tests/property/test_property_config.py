"""Property-based tests for configuration round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DimensionSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
)
from repro.pilot.cluster import get_cluster

dim_strategy = st.one_of(
    st.builds(
        DimensionSpec,
        kind=st.just("temperature"),
        n_windows=st.integers(min_value=1, max_value=12),
        min_value=st.floats(min_value=200.0, max_value=300.0),
        max_value=st.floats(min_value=300.0, max_value=500.0),
    ),
    st.builds(
        DimensionSpec,
        kind=st.just("umbrella"),
        n_windows=st.integers(min_value=1, max_value=12),
        min_value=st.just(0.0),
        max_value=st.just(360.0),
        angle=st.sampled_from(["phi", "psi"]),
        force_constant=st.floats(min_value=0.0, max_value=0.05),
    ),
    st.builds(
        DimensionSpec,
        kind=st.just("salt"),
        n_windows=st.integers(min_value=1, max_value=12),
        min_value=st.just(0.0),
        max_value=st.floats(min_value=0.1, max_value=5.0),
    ),
)


@st.composite
def config_strategy(draw):
    """Configs from the valid space: the pilot fits on its named cluster
    and a replica fits on the pilot."""
    name = draw(st.sampled_from(["supermic", "stampede", "small-cluster"]))
    total_cores = get_cluster(name).total_cores
    resource = ResourceSpec(
        name=name,
        cores=draw(st.integers(min_value=1, max_value=min(4096, total_cores))),
    )
    dimensions = draw(st.lists(dim_strategy, min_size=1, max_size=3))
    # salt exchange needs single-point group tasks, which only the
    # synchronous pattern schedules
    kinds = ["synchronous"]
    if all(d.kind != "salt" for d in dimensions):
        kinds.append("asynchronous")
    return SimulationConfig(
        title=draw(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=20,
            )
        ),
        dimensions=dimensions,
        resource=resource,
        pattern=draw(
            st.builds(
                PatternSpec,
                kind=st.sampled_from(kinds),
                window_seconds=st.floats(min_value=1.0, max_value=600.0),
            )
        ),
        n_cycles=draw(st.integers(min_value=1, max_value=100)),
        steps_per_cycle=draw(st.integers(min_value=1, max_value=100000)),
        cores_per_replica=draw(
            st.integers(min_value=1, max_value=min(64, resource.cores))
        ),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@given(cfg=config_strategy())
@settings(max_examples=200)
def test_dict_roundtrip_preserves_everything(cfg):
    again = SimulationConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


@given(cfg=config_strategy())
@settings(max_examples=200)
def test_json_roundtrip(cfg):
    again = SimulationConfig.from_json(cfg.to_json())
    assert again.to_dict() == cfg.to_dict()


@given(cfg=config_strategy())
@settings(max_examples=200)
def test_replica_count_is_window_product(cfg):
    expected = 1
    for d in cfg.dimensions:
        expected *= d.n_windows
    assert cfg.n_replicas == expected


@given(cfg=config_strategy())
@settings(max_examples=100)
def test_build_dimensions_unique_names(cfg):
    names = [d.name for d in cfg.build_dimensions()]
    assert len(names) == len(set(names))


@given(cfg=config_strategy())
@settings(max_examples=100)
def test_effective_mode_consistent(cfg):
    mode = cfg.effective_mode
    workload = cfg.n_replicas * cfg.cores_per_replica
    if workload <= cfg.resource.cores:
        assert mode == "I"
    else:
        assert mode == "II"
