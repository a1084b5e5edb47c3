"""Tests for the internal salt single-point path (future-work option)."""

import numpy as np
import pytest

from repro.core import RepEx
from repro.core.config import DimensionSpec, ResourceSpec
from repro.core.exchange.salt import SaltDimension
from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState

from tests.conftest import small_tremd_config


def salt_config(internal, n=4, **over):
    return small_tremd_config(
        dimensions=[
            DimensionSpec("salt", n, 0.0, 1.0, internal_sp=internal)
        ],
        resource=ResourceSpec("supermic", cores=n),
        **over,
    )


class TestDimensionFlag:
    def test_requires_single_point_toggles(self):
        assert SaltDimension.linear(0, 1, 4).requires_single_point
        assert not SaltDimension.linear(
            0, 1, 4, internal=True
        ).requires_single_point

    def test_internal_without_evaluator_raises(self):
        d = SaltDimension.linear(0.0, 1.0, 2, internal=True)
        r0 = Replica(rid=0, coords=np.zeros(2), param_indices={"salt": 0})
        r1 = Replica(rid=1, coords=np.zeros(2), param_indices={"salt": 1})
        states = {0: ThermodynamicState(), 1: ThermodynamicState()}
        with pytest.raises(ValueError):
            d.batch_exchange_deltas(
                [(r0, r1)], window_of={0: 0, 1: 1}, states=states
            )

    def test_internal_with_evaluator_computes(self):
        d = SaltDimension.linear(0.0, 1.0, 2, internal=True)
        d.evaluator = lambda coords, salt: salt * 10.0  # toy energies
        r0 = Replica(rid=0, coords=np.zeros(2), param_indices={"salt": 0})
        r1 = Replica(rid=1, coords=np.ones(2), param_indices={"salt": 1})
        states = {
            0: ThermodynamicState(300.0),
            1: ThermodynamicState(300.0),
        }
        [delta] = d.batch_exchange_deltas(
            [(r0, r1)], window_of={0: 0, 1: 1}, states=states
        )
        # energies depend only on salt here: all cross terms equal -> 0
        assert delta == pytest.approx(0.0)


class TestEndToEnd:
    def test_no_single_point_tasks_spawned(self):
        r = RepEx(salt_config(internal=True))
        res = r.run()
        # with no SP tasks, exchange core-seconds are tiny
        assert res.exchange_core_seconds < 20.0
        assert res.exchange_stats["salt"].attempted > 0

    def test_matches_external_path_decisions(self):
        res_int = RepEx(salt_config(internal=True)).run()
        res_ext = RepEx(salt_config(internal=False)).run()
        assert (
            res_int.exchange_stats["salt"].accepted
            == res_ext.exchange_stats["salt"].accepted
        )
        assert [r.window("salt") for r in res_int.replicas] == [
            r.window("salt") for r in res_ext.replicas
        ]

    def test_internal_exchange_billed_more_per_task(self):
        r_int = RepEx(salt_config(internal=True))
        desc = r_int.amm.exchange_task(
            r_int.amm.create_replicas(), r_int.amm.dimensions[0], 0
        )
        r_ext = RepEx(salt_config(internal=False))
        reps = r_ext.amm.create_replicas()
        desc_ext = r_ext.amm.exchange_task(
            reps, r_ext.amm.dimensions[0], 0, energy_matrix={}
        )
        assert desc.duration > desc_ext.duration
