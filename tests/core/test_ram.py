"""Tests for the remote application module (exchange procedures)."""

import numpy as np
import pytest

from repro.core import ram
from repro.core.exchange.pairing import GibbsPairing, NeighborPairing
from repro.core.exchange.temperature import TemperatureDimension
from repro.core.exchange.umbrella import UmbrellaDimension
from repro.core.replica import Replica
from repro.md.amber import AmberAdapter
from repro.md.namd import NAMDAdapter
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState


def make_group(dim_name, energies):
    group = []
    for i, e in enumerate(energies):
        r = Replica(
            rid=i, coords=np.zeros(2), param_indices={dim_name: i}
        )
        r.last_energies = {"potential_energy": e}
        group.append(r)
    return group


class TestComputeExchange:
    def test_proposals_follow_pairing(self, rng):
        dim = TemperatureDimension.geometric(273.0, 373.0, 4)
        group = make_group("temperature", [-10.0, -9.0, -8.0, -7.0])
        states = {
            r.rid: ThermodynamicState(float(dim.value(i)))
            for i, r in enumerate(group)
        }
        proposals = ram.compute_exchange(
            dim, group, states, NeighborPairing(), cycle=0, rng=rng
        )
        assert [(p.rid_i, p.rid_j) for p in proposals] == [(0, 1), (2, 3)]
        for p in proposals:
            assert p.dimension == "temperature"

    def test_gibbs_sequential_windows(self, rng):
        """Multi-sweep pairing uses the evolving window assignment."""
        dim = TemperatureDimension.geometric(300.0, 301.0, 4)  # ~always accept
        group = make_group("temperature", [-10.0, -10.0, -10.0, -10.0])
        states = {
            r.rid: ThermodynamicState(float(dim.value(i)))
            for i, r in enumerate(group)
        }
        proposals = ram.compute_exchange(
            dim, group, states, GibbsPairing(n_sweeps=4), cycle=0, rng=rng
        )
        windows = ram.final_windows(group, dim, proposals)
        # whatever happened, the window multiset is conserved
        assert sorted(windows.values()) == [0, 1, 2, 3]

    def test_final_windows_replay(self, rng):
        dim = TemperatureDimension.geometric(273.0, 373.0, 2)
        group = make_group("temperature", [-10.0, -10.0])  # equal: accept
        states = {
            r.rid: ThermodynamicState(float(dim.value(i)))
            for i, r in enumerate(group)
        }
        proposals = ram.compute_exchange(
            dim, group, states, NeighborPairing(), cycle=0, rng=rng
        )
        assert proposals[0].accepted  # delta == 0
        windows = ram.final_windows(group, dim, proposals)
        assert windows == {0: 1, 1: 0}

    def test_empty_group(self, rng):
        dim = TemperatureDimension.geometric(273.0, 373.0, 2)
        assert (
            ram.compute_exchange(
                dim, [], {}, NeighborPairing(), cycle=0, rng=rng
            )
            == []
        )


class TestMDExecution:
    def test_execute_and_read_roundtrip(self):
        adapter = AmberAdapter()
        sb = Sandbox()
        coords = np.radians([-63.0, -42.0])
        params = MDParams(n_steps=20)
        adapter.write_inputs(
            sb, ["m0"], [coords], [ThermodynamicState()], params, [3]
        )
        result = ram.execute_md(adapter, sb, "m0")
        [(energies, out_coords)] = ram.read_md_outputs(adapter, sb, ["m0"])
        assert energies["potential_energy"] == pytest.approx(
            result.potential_energy, abs=0.01
        )
        assert np.allclose(out_coords, result.final_coords, atol=1e-6)


class TestSinglePointGroup:
    def test_amber_supported(self):
        adapter = AmberAdapter()
        sb = Sandbox()
        states = [ThermodynamicState(salt_molar=c) for c in (0.0, 0.5)]
        row = ram.execute_single_point_group(
            adapter, sb, "sp0", np.zeros(2), states
        )
        assert row.shape == (2,)

    def test_namd_rejected(self):
        adapter = NAMDAdapter()
        sb = Sandbox()
        with pytest.raises(TypeError, match="group-file"):
            ram.execute_single_point_group(
                adapter, sb, "sp0", np.zeros(2), [ThermodynamicState()]
            )
