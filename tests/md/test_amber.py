"""Tests for the Amber-style adapter: file dialect round-trips + execution."""

from dataclasses import replace

import numpy as np
import pytest

from repro.md.amber import AmberAdapter
from repro.md.engine import EngineError
from repro.md.forcefield import UmbrellaRestraint
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState


@pytest.fixture
def adapter():
    return AmberAdapter()


@pytest.fixture
def sandbox():
    return Sandbox()


def write_basic(adapter, sandbox, tag="t0", **state_kwargs):
    state = ThermodynamicState(**state_kwargs)
    params = MDParams(n_steps=40, sample_stride=10)
    coords = np.radians([-63.0, -42.0])
    files = adapter.write_input(sandbox, tag, coords, state, params, seed=99)
    return files, state, params, coords


class TestInputFiles:
    def test_mdin_contents(self, adapter, sandbox):
        write_basic(adapter, sandbox, temperature=320.0, salt_molar=0.25)
        mdin = sandbox.read_text("t0.mdin")
        assert "nstlim = 40" in mdin
        assert "temp0 = 320.0" in mdin
        assert "saltcon = 0.25" in mdin
        assert "ig = 99" in mdin

    def test_no_disang_without_restraints(self, adapter, sandbox):
        files, *_ = write_basic(adapter, sandbox)
        assert "t0.RST" not in files
        assert "nmropt = 0" in sandbox.read_text("t0.mdin")

    def test_disang_written_with_restraints(self, adapter, sandbox):
        restraints = (UmbrellaRestraint("phi", 45.0, 0.02),)
        files, *_ = write_basic(adapter, sandbox, restraints=restraints)
        assert "t0.RST" in files
        rst = sandbox.read_text("t0.RST")
        assert "iat=5,7,9,15" in rst
        assert "r2=45.0" in rst
        mdin = sandbox.read_text("t0.mdin")
        assert "nmropt = 1" in mdin
        assert "DISANG=t0.RST" in mdin

    def test_psi_restraint_atoms(self, adapter, sandbox):
        restraints = (UmbrellaRestraint("psi", -120.0, 0.01),)
        write_basic(adapter, sandbox, restraints=restraints)
        assert "iat=7,9,15,17" in sandbox.read_text("t0.RST")

    def test_bad_coords_rejected(self, adapter, sandbox):
        with pytest.raises(EngineError):
            adapter.write_input(
                sandbox,
                "bad",
                np.zeros(3),
                ThermodynamicState(),
                MDParams(),
                1,
            )


class TestRoundTrip:
    def test_mdin_parse_matches_write(self, adapter, sandbox):
        restraints = (
            UmbrellaRestraint("phi", 45.0, 0.02),
            UmbrellaRestraint("psi", 90.0, 0.015),
        )
        write_basic(
            adapter,
            sandbox,
            temperature=350.0,
            salt_molar=0.4,
            restraints=restraints,
        )
        params, state, seed = adapter._parse_mdin(sandbox, "t0")
        assert params.n_steps == 40
        assert state.temperature == pytest.approx(350.0)
        assert state.salt_molar == pytest.approx(0.4)
        assert seed == 99
        assert len(state.restraints) == 2
        angles = {r.angle for r in state.restraints}
        assert angles == {"phi", "psi"}
        ks = sorted(r.k for r in state.restraints)
        assert ks == pytest.approx([0.015, 0.02])

    def test_coords_roundtrip(self, adapter, sandbox):
        coords = np.radians([123.456, -77.89])
        adapter._write_coords(sandbox, "c.inpcrd", coords)
        back = adapter._read_coords(sandbox, "c.inpcrd")
        assert np.allclose(back, coords, atol=1e-6)


class TestExecution:
    def test_run_md_produces_outputs(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "t0")
        assert sandbox.exists("t0.mdinfo")
        assert sandbox.exists("t0.rst")
        assert sandbox.exists("t0.mdcrd")
        assert result.n_steps == 40

    def test_read_info_matches_result(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "t0")
        info = adapter.read_info(sandbox, "t0")
        assert info["potential_energy"] == pytest.approx(
            result.potential_energy, abs=0.01
        )
        assert info["temperature"] == pytest.approx(300.0)

    def test_read_restart_matches_result(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "t0")
        coords = adapter.read_restart(sandbox, "t0")
        assert np.allclose(coords, result.final_coords, atol=1e-6)

    def test_trajectory_roundtrip(self, adapter, sandbox):
        write_basic(adapter, sandbox)
        result = adapter.run_md(sandbox, "t0")
        traj = adapter.read_trajectory(sandbox, "t0")
        assert traj.shape == result.trajectory.shape
        assert np.allclose(traj, result.trajectory, atol=1e-6)

    def test_deterministic_given_seed(self, adapter):
        sb1, sb2 = Sandbox(), Sandbox()
        write_basic(adapter, sb1)
        write_basic(adapter, sb2)
        r1 = adapter.run_md(sb1, "t0")
        r2 = adapter.run_md(sb2, "t0")
        assert np.allclose(r1.final_coords, r2.final_coords)

    def test_run_md_on_disk(self, adapter, tmp_path):
        sb = Sandbox(tmp_path)
        write_basic(adapter, sb)
        result = adapter.run_md(sb, "t0")
        assert (tmp_path / "t0.mdinfo").is_file()
        info = adapter.read_info(sb, "t0")
        assert info["potential_energy"] == pytest.approx(
            result.potential_energy, abs=0.01
        )

    def test_non_brownian_task_is_rejected(self, adapter, sandbox):
        """Only the Brownian integrator is batched: a task naming another
        fails instead of being integrated as Brownian."""
        write_basic(adapter, sandbox)
        read_task = adapter.read_task

        def baoab_task(sb, tag):
            params, state, seed, coords = read_task(sb, tag)
            return replace(params, integrator="baoab"), state, seed, coords

        adapter.read_task = baoab_task
        with pytest.raises(EngineError, match="only the Brownian"):
            adapter.run_md(sandbox, "t0")
        assert not sandbox.exists("t0.mdinfo")


class TestSinglePointGroup:
    def test_groupfile_and_energies(self, adapter, sandbox):
        coords = np.radians([-63.0, -42.0])
        states = [
            ThermodynamicState(salt_molar=c) for c in (0.0, 0.5, 1.0)
        ]
        files = adapter.write_groupfile(sandbox, "g0", coords, states)
        assert "g0.groupfile" in files
        group = sandbox.read_text("g0.groupfile")
        assert len(group.strip().splitlines()) == 3

        energies = adapter.run_single_point_group(sandbox, "g0")
        assert energies.shape == (3,)
        expected = [
            adapter.toymd.single_point_energy(coords, s) for s in states
        ]
        assert np.allclose(energies, expected)

    def test_energy_row_staged(self, adapter, sandbox):
        coords = np.radians([0.0, 0.0])
        states = [ThermodynamicState(salt_molar=c) for c in (0.0, 1.0)]
        adapter.write_groupfile(sandbox, "g1", coords, states)
        energies = adapter.run_single_point_group(sandbox, "g1")
        row = adapter.read_energy_row(sandbox, "g1")
        assert np.allclose(row, energies)

    def test_restrained_single_points(self, adapter, sandbox):
        coords = np.radians([10.0, 0.0])
        r = UmbrellaRestraint("phi", 0.0, 0.01)
        states = [
            ThermodynamicState(restraints=(r,)),
            ThermodynamicState(),
        ]
        adapter.write_groupfile(sandbox, "g2", coords, states)
        energies = adapter.run_single_point_group(sandbox, "g2")
        assert energies[0] - energies[1] == pytest.approx(
            0.01 * 100.0, abs=1e-6
        )


class TestDefaults:
    def test_executables(self, adapter):
        assert adapter.default_executable(1) == "sander"
        assert adapter.default_executable(16) == "pmemd.MPI"
