"""Tests for the NAMD-style adapter."""

import numpy as np
import pytest

from repro.md.engine import EngineError
from repro.md.forcefield import UmbrellaRestraint
from repro.md.namd import NAMDAdapter
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState


@pytest.fixture
def adapter():
    return NAMDAdapter()


@pytest.fixture
def sandbox():
    return Sandbox()


def write_basic(adapter, sandbox, tag="n0", **state_kwargs):
    state = ThermodynamicState(**state_kwargs)
    params = MDParams(n_steps=30, sample_stride=10)
    coords = np.radians([-120.0, 135.0])
    files = adapter.write_input(sandbox, tag, coords, state, params, seed=5)
    return files, state, params, coords


class TestInputFiles:
    def test_conf_contents(self, adapter, sandbox):
        write_basic(adapter, sandbox, temperature=310.0)
        conf = sandbox.read_text("n0.conf")
        assert "run                30" in conf
        assert "langevinTemp       310.0" in conf
        assert "seed               5" in conf

    def test_colvars_for_restraints(self, adapter, sandbox):
        restraints = (UmbrellaRestraint("psi", 135.0, 0.02),)
        files, *_ = write_basic(adapter, sandbox, restraints=restraints)
        assert "n0.colvars" in files
        colvars = sandbox.read_text("n0.colvars")
        assert "psi" in colvars
        assert "135.0" in colvars

    def test_salt_rejected(self, adapter, sandbox):
        with pytest.raises(EngineError, match="salt"):
            write_basic(adapter, sandbox, salt_molar=0.5)

    def test_bad_coords_rejected(self, adapter, sandbox):
        with pytest.raises(EngineError):
            adapter.write_input(
                sandbox, "x", np.zeros(1), ThermodynamicState(), MDParams(), 1
            )


class TestRoundTrip:
    def test_conf_parse(self, adapter, sandbox):
        restraints = (UmbrellaRestraint("phi", 45.0, 0.01),)
        _, _, _, written = write_basic(
            adapter, sandbox, temperature=340.0, restraints=restraints
        )
        params, state, seed, coords = adapter.read_task(sandbox, "n0")
        assert params.n_steps == 30
        assert np.allclose(coords, written, atol=1e-6)
        assert state.temperature == pytest.approx(340.0)
        assert seed == 5
        assert len(state.restraints) == 1
        assert state.restraints[0].angle == "phi"
        assert state.restraints[0].center_deg == pytest.approx(45.0)


class TestExecution:
    def test_run_writes_log_and_restart(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "n0")
        assert sandbox.exists("n0.log")
        assert sandbox.exists("n0.restart.coor")
        log = sandbox.read_text("n0.log")
        assert "ENERGY:" in log
        assert "ETITLE:" in log
        info = adapter.read_info(sandbox, "n0")
        assert info["potential_energy"] == pytest.approx(
            result.potential_energy, abs=0.01
        )
        assert info["torsional_energy"] == pytest.approx(
            result.torsional_energy, abs=0.02
        )

    def test_read_restart(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "n0")
        coords = adapter.read_restart(sandbox, "n0")
        assert np.allclose(coords, result.final_coords, atol=1e-6)

    def test_trajectory_roundtrip(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "n0")
        traj = adapter.read_trajectory(sandbox, "n0")
        assert traj.shape == result.trajectory.shape
        assert np.allclose(traj, result.trajectory, atol=1e-6)

    def test_empty_trajectory_safe(self, adapter, sandbox):
        sandbox.write_text("e.dcd.txt", "# header only\n")
        traj = adapter.read_trajectory(sandbox, "e")
        assert traj.shape == (0, 2)

    def test_missing_energy_lines_raise(self, adapter, sandbox):
        sandbox.write_text("empty.log", "Info: no energies here\n")
        with pytest.raises(EngineError, match="ENERGY"):
            adapter.read_info(sandbox, "empty")

    def test_info_file_is_log(self, adapter):
        assert adapter.info_file("x") == "x.log"


class TestCrossEngineConsistency:
    def test_same_physics_as_amber(self, sandbox):
        """Both adapters drive the same backend: identical seeds and state
        must give identical dynamics."""
        from repro.md.amber import AmberAdapter

        amber, namd = AmberAdapter(), NAMDAdapter()
        coords = np.radians([-63.0, -42.0])
        state = ThermodynamicState(temperature=300.0)
        params = MDParams(n_steps=25, sample_stride=5)
        sb_a, sb_n = Sandbox(), Sandbox()
        amber.write_input(sb_a, "a", coords, state, params, seed=123)
        namd.write_input(sb_n, "n", coords, state, params, seed=123)
        res_a = amber.run_md(sb_a, "a")
        res_n = namd.run_md(sb_n, "n")
        assert np.allclose(res_a.final_coords, res_n.final_coords, atol=1e-9)
