"""Tests for the Application Management Module."""

import numpy as np
import pytest

from repro.core.amm import ApplicationManager
from repro.core.config import DimensionSpec, ResourceSpec, SimulationConfig
from repro.md.perfmodel import deterministic_model
from repro.pilot.cluster import get_cluster
from repro.pilot.unit import ComputeUnit

from tests.conftest import small_tremd_config


def make_amm(config=None, cluster_name="supermic"):
    config = config or small_tremd_config()
    return ApplicationManager(
        config, get_cluster(cluster_name), perf=deterministic_model()
    )


class TestCreateReplicas:
    def test_lattice_count(self):
        cfg = small_tremd_config(
            dimensions=[
                DimensionSpec("temperature", 3, 273.0, 373.0),
                DimensionSpec("salt", 4, 0.0, 1.0),
            ],
            resource=ResourceSpec("supermic", cores=12),
        )
        amm = make_amm(cfg)
        reps = amm.create_replicas()
        assert len(reps) == 12
        combos = {
            (r.window("temperature"), r.window("salt")) for r in reps
        }
        assert len(combos) == 12

    def test_umbrella_replicas_start_at_window_center(self):
        cfg = small_tremd_config(
            dimensions=[
                DimensionSpec("umbrella", 4, 0.0, 360.0, angle="phi")
            ],
            resource=ResourceSpec("supermic", cores=4),
        )
        amm = make_amm(cfg)
        for rep in amm.create_replicas():
            center = float(
                amm.dimensions[0].value(rep.window("umbrella_phi"))
            )
            phi_deg = np.degrees(rep.coords[0]) % 360.0
            assert abs(phi_deg - center % 360.0) < 1e-6

    def test_deterministic_per_seed(self):
        a = make_amm().create_replicas()
        b = make_amm().create_replicas()
        for ra, rb in zip(a, b):
            assert np.allclose(ra.coords, rb.coords)


class TestStateOf:
    def test_state_composition(self):
        cfg = small_tremd_config(
            dimensions=[
                DimensionSpec("temperature", 2, 273.0, 373.0),
                DimensionSpec("salt", 2, 0.0, 1.0),
                DimensionSpec("umbrella", 2, 0.0, 360.0, angle="psi"),
            ],
            resource=ResourceSpec("supermic", cores=8),
        )
        amm = make_amm(cfg)
        rep = amm.create_replicas()[-1]  # all windows at max index
        state = amm.state_of(rep)
        assert state.temperature == pytest.approx(373.0)
        assert state.salt_molar == pytest.approx(1.0)
        assert len(state.restraints) == 1


class TestMDTask:
    def test_duration_matches_perf_anchor(self):
        amm = make_amm()
        rep = amm.create_replicas()[0]
        desc = amm.md_tasks([rep], 0)[0]
        # supermic speed factor 1.0, sander anchor
        assert desc.duration == pytest.approx(139.6 + 1.5, abs=0.5)

    def test_stampede_speed_factor_applied(self):
        cfg = small_tremd_config(resource=ResourceSpec("stampede", cores=4))
        amm = make_amm(cfg, cluster_name="stampede")
        rep = amm.create_replicas()[0]
        desc = amm.md_tasks([rep], 0)[0]
        assert desc.duration == pytest.approx(1.18 * (139.6 + 1.5), abs=1.0)

    def test_input_files_written(self):
        amm = make_amm()
        rep = amm.create_replicas()[0]
        amm.md_tasks([rep], 0)
        tag = amm.md_tag(rep, 0)
        assert amm.sandbox.exists(f"{tag}.mdin")
        assert amm.sandbox.exists(f"{tag}.inpcrd")

    def test_metadata(self):
        amm = make_amm()
        rep = amm.create_replicas()[2]
        desc = amm.md_tasks([rep], 3)[0]
        assert desc.metadata == {"phase": "md", "rid": 2, "cycle": 3}

    def test_work_runs_engine(self):
        amm = make_amm()
        rep = amm.create_replicas()[0]
        desc = amm.md_tasks([rep], 0)[0]
        result = desc.work()
        assert result.n_steps == amm.config.effective_numeric_steps

    def test_staging_directives_present(self):
        amm = make_amm()
        rep = amm.create_replicas()[0]
        desc = amm.md_tasks([rep], 0)[0]
        assert len(desc.input_staging) >= 2
        assert len(desc.output_staging) == 2


class TestProcessOutput:
    def _run_one(self, amm, rep, cycle=0):
        desc = amm.md_tasks([rep], cycle)[0]
        unit = ComputeUnit(desc)
        # drive the unit through its states by hand
        from repro.pilot.unit import UnitState

        unit.advance(UnitState.SCHEDULING, 0.0)
        unit.advance(UnitState.STAGING_INPUT, 0.1)
        unit.advance(UnitState.AGENT_EXECUTING_PENDING, 0.2)
        unit.advance(UnitState.EXECUTING, 0.3)
        unit.result = desc.work()
        unit.advance(UnitState.STAGING_OUTPUT, 10.0)
        unit.advance(UnitState.DONE, 10.1)
        return unit

    def test_success_updates_replica(self):
        amm = make_amm()
        rep = amm.create_replicas()[0]
        before = rep.coords.copy()
        unit = self._run_one(amm, rep)
        ok = amm.process_md_outputs([rep], [unit], 0, "temperature")
        assert ok == [True]
        assert not np.allclose(rep.coords, before)
        assert "potential_energy" in rep.last_energies
        assert rep.cycle == 1
        assert len(rep.history) == 1
        assert rep.history[0].trajectory is not None

    def test_failure_keeps_coords(self):
        amm = make_amm()
        rep = amm.create_replicas()[0]
        desc = amm.md_tasks([rep], 0)[0]
        unit = ComputeUnit(desc)
        from repro.pilot.unit import UnitState

        unit.advance(UnitState.SCHEDULING, 0.0)
        unit.advance(UnitState.STAGING_INPUT, 0.1)
        unit.advance(UnitState.AGENT_EXECUTING_PENDING, 0.2)
        unit.advance(UnitState.EXECUTING, 0.3)
        unit.advance(UnitState.FAILED, 5.0)
        before = rep.coords.copy()
        ok = amm.process_md_outputs([rep], [unit], 0, "temperature")
        assert ok == [False]
        assert np.allclose(rep.coords, before)
        assert rep.n_failures == 1
        assert rep.history[0].failed


class TestExchangeTask:
    def test_exchange_unit_shape(self):
        amm = make_amm()
        reps = amm.create_replicas()
        # give replicas energies as if MD ran
        for r in reps:
            r.last_energies = {"potential_energy": -100.0 - r.rid}
        desc = amm.exchange_task(reps, amm.dimensions[0], cycle=0)
        assert desc.cores == 1
        assert desc.metadata["phase"] == "exchange"
        proposals = desc.work()
        assert len(proposals) == 2  # 4 replicas, even pairing

    def test_apply_proposals_swaps_and_counts(self):
        amm = make_amm()
        reps = amm.create_replicas()
        for r in reps:
            r.last_energies = {"potential_energy": -100.0}
            r.history.append(
                __import__(
                    "repro.core.replica", fromlist=["CycleRecord"]
                ).CycleRecord(
                    0, "temperature", dict(r.param_indices), -100.0, 0.0
                )
            )
        from repro.core.exchange.base import SwapProposal

        p = SwapProposal(
            rid_i=0, rid_j=1, dimension="temperature", delta=-1.0,
            accepted=True,
        )
        amm.apply_proposals(reps, amm.dimensions[0], [p])
        assert reps[0].window("temperature") == 1
        assert reps[1].window("temperature") == 0
        stats = amm.exchange_stats["temperature"]
        assert stats.attempted == 1 and stats.accepted == 1
        assert reps[0].history[-1].partner == 1
        assert reps[0].history[-1].accepted


class TestSinglePointTasks:
    def test_one_task_per_replica_with_neighbor_states(self):
        cfg = small_tremd_config(
            dimensions=[DimensionSpec("salt", 4, 0.0, 1.0)],
            resource=ResourceSpec("supermic", cores=4),
        )
        amm = make_amm(cfg)
        reps = amm.create_replicas()
        descs = amm.single_point_tasks(reps, amm.dimensions[0], cycle=0)
        assert len(descs) == 4
        # edge replicas have 2 candidate windows, middle ones 3
        assert descs[0].cores == 2
        assert descs[1].cores == 3
        assert descs[-1].cores == 2
        assert all(d.metadata["phase"] == "single_point" for d in descs)

    def test_sp_work_returns_window_to_energy(self):
        cfg = small_tremd_config(
            dimensions=[DimensionSpec("salt", 3, 0.0, 1.0)],
            resource=ResourceSpec("supermic", cores=3),
        )
        amm = make_amm(cfg)
        reps = amm.create_replicas()
        descs = amm.single_point_tasks(reps, amm.dimensions[0], cycle=0)
        row = descs[1].work()  # middle replica
        assert set(row) == {0, 1, 2}
        for e in row.values():
            assert np.isfinite(e)
