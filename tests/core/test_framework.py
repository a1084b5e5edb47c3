"""Tests for the RepEx facade."""

import pytest

from repro.core import RepEx, run_simulation
from repro.core.config import DimensionSpec, EngineSpec, ResourceSpec
from repro.pilot.pilot import PilotState

from tests.conftest import small_tremd_config


class TestFacade:
    def test_run_simulation_wrapper(self):
        res = run_simulation(small_tremd_config())
        assert res.n_replicas == 4
        assert res.title == "test-tremd"

    def test_pilot_cancelled_after_run(self):
        r = RepEx(small_tremd_config())
        r.run()
        assert r.pilot.state in (PilotState.CANCELED, PilotState.DONE)

    def test_a_repex_runs_once(self):
        repex = RepEx(small_tremd_config())
        repex.run()
        now, fired = repex.session.now, repex.session.clock.n_fired
        with pytest.raises(RuntimeError, match="already run"):
            repex.run()
        # refused before the session was touched
        assert repex.session.now == now
        assert repex.session.clock.n_fired == fired

    def test_pilot_cancelled_on_error(self):
        cfg = small_tremd_config(
            dimensions=[DimensionSpec("salt", 4, 0.0, 1.0)],
        )
        r = RepEx(cfg)
        # async salt is unsupported; force it to raise
        cfg.pattern.kind = "asynchronous"
        from repro.core.emm import AsynchronousEMM

        r.emm = AsynchronousEMM(cfg, r.amm, r.session, r.pilot)
        with pytest.raises(NotImplementedError):
            r.run()
        assert r.pilot.state is PilotState.CANCELED

    def test_namd_engine_selection(self):
        cfg = small_tremd_config(engine=EngineSpec(name="namd"))
        r = RepEx(cfg)
        assert r.amm.adapter.name == "namd"
        res = r.run()
        assert len(res.cycle_timings) == 2

    def test_unknown_engine_raises(self):
        cfg = small_tremd_config(engine=EngineSpec(name="gromacs"))
        with pytest.raises(KeyError, match="unknown MD engine"):
            RepEx(cfg)

    def test_unknown_cluster_raises(self):
        cfg = small_tremd_config(resource=ResourceSpec("summit", cores=8))
        with pytest.raises(KeyError, match="unknown cluster"):
            RepEx(cfg)

    def test_result_metadata(self):
        res = run_simulation(small_tremd_config())
        assert res.type_string == "T"
        assert res.pattern == "synchronous"
        assert res.execution_mode == "I"
        assert res.pilot_cores == 4
        assert res.steps_per_cycle == 6000
