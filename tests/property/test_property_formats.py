"""Property-based round-trip tests for the engine file dialects.

The adapters' text formats are the RAM/AMM contract: whatever the AMM
serializes, the remote side must parse back exactly.  Fuzz the full
parameter space of both dialects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.amber import AmberAdapter
from repro.md.forcefield import UmbrellaRestraint
from repro.md.namd import NAMDAdapter
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState
from tests.engine_oracles import amber_energy_row

angles = st.sampled_from(["phi", "psi"])
restraint_strategy = st.builds(
    UmbrellaRestraint,
    angle=angles,
    center_deg=st.floats(
        min_value=-360.0, max_value=720.0, allow_nan=False
    ).map(lambda x: round(x, 1)),
    k=st.floats(min_value=0.0, max_value=0.1, allow_nan=False).map(
        lambda x: round(x, 4)
    ),
)

state_strategy = st.builds(
    ThermodynamicState,
    temperature=st.floats(min_value=100.0, max_value=900.0).map(
        lambda x: round(x, 3)
    ),
    salt_molar=st.floats(min_value=0.0, max_value=5.0).map(
        lambda x: round(x, 4)
    ),
    restraints=st.lists(restraint_strategy, max_size=3).map(tuple),
)

params_strategy = st.builds(
    MDParams,
    n_steps=st.integers(min_value=1, max_value=100000),
    sample_stride=st.integers(min_value=1, max_value=1000),
)

coords_strategy = st.tuples(
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
).map(lambda t: np.array(t))

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(
    state=state_strategy,
    params=params_strategy,
    coords=coords_strategy,
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_amber_mdin_roundtrip(state, params, coords, seed):
    adapter = AmberAdapter()
    sb = Sandbox()
    adapter.write_inputs(sb, ["f"], [coords], [state], params, [seed])
    [(parsed_params, parsed_state, parsed_seed, back_coords)] = (
        adapter.read_tasks(sb, ["f"])
    )
    assert parsed_params.n_steps == params.n_steps
    assert parsed_seed == seed
    assert parsed_state.temperature == pytest.approx(
        state.temperature, abs=1e-5
    )
    assert parsed_state.salt_molar == pytest.approx(
        state.salt_molar, abs=1e-5
    )
    assert len(parsed_state.restraints) == len(state.restraints)
    for orig, back in zip(state.restraints, parsed_state.restraints):
        assert back.angle == orig.angle
        assert back.center_deg == pytest.approx(orig.center_deg, abs=0.1)
        assert back.k == pytest.approx(orig.k, abs=1e-4)
    assert np.allclose(back_coords, coords, atol=1e-6)


@given(
    state=state_strategy.filter(lambda s: s.salt_molar == 0.0),
    params=params_strategy,
    coords=coords_strategy,
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_namd_conf_roundtrip(state, params, coords, seed):
    adapter = NAMDAdapter()
    sb = Sandbox()
    adapter.write_inputs(sb, ["f"], [coords], [state], params, [seed])
    [(parsed_params, parsed_state, parsed_seed, back_coords)] = (
        adapter.read_tasks(sb, ["f"])
    )
    assert parsed_params.n_steps == params.n_steps
    assert parsed_seed == seed
    assert parsed_state.temperature == pytest.approx(
        state.temperature, abs=1e-5
    )
    assert len(parsed_state.restraints) == len(state.restraints)
    for orig, back in zip(state.restraints, parsed_state.restraints):
        assert back.angle == orig.angle
        assert back.center_deg == pytest.approx(orig.center_deg, abs=0.1)
    assert np.allclose(back_coords, coords, atol=1e-6)


@given(
    coords=coords_strategy,
    salts=st.lists(
        st.floats(min_value=0.0, max_value=5.0).map(lambda x: round(x, 3)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=80, deadline=None)
def test_amber_groupfile_energies_match_direct_evaluation(coords, salts):
    adapter = AmberAdapter()
    sb = Sandbox()
    states = [ThermodynamicState(salt_molar=c) for c in salts]
    adapter.write_groupfile(sb, "g", coords, states)
    energies = adapter.run_single_point_group(sb, "g")
    expected = [
        adapter.toymd.single_point_energy(coords, s) for s in states
    ]
    assert np.allclose(energies, expected, atol=1e-4)
    # and the staged row parses back identically
    row = amber_energy_row(sb, "g")
    assert np.allclose(row, energies, atol=1e-6)


@given(
    state=state_strategy,
    seed=seeds,
)
@settings(max_examples=50, deadline=None)
def test_amber_info_file_reports_run_energies(state, seed):
    adapter = AmberAdapter()
    sb = Sandbox()
    coords = np.radians([-63.0, -42.0])
    params = MDParams(n_steps=5, sample_stride=1)
    adapter.write_inputs(sb, ["r"], [coords], [state], params, [seed])
    result = adapter.run_md(sb, "r")
    [(info, _)] = adapter.read_outputs(sb, ["r"])
    assert info["potential_energy"] == pytest.approx(
        result.potential_energy, abs=0.01
    )
    assert info["restraint_energy"] == pytest.approx(
        result.restraint_energy, abs=0.01
    )
