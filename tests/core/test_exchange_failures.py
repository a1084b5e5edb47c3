"""Failure handling in the exchange phase (not just MD).

The paper's fault-tolerance story covers replica tasks generally; here we
verify the framework survives failures of the exchange computation itself
and of the S-REMD single-point tasks.
"""

import numpy as np
import pytest

from repro.core import RepEx
from repro.core.config import DimensionSpec, ResourceSpec
from repro.pilot import FailureModel, Session

from tests.conftest import small_tremd_config


def run_with_phase_failures(phase, config):
    session = Session(
        failure_model=FailureModel(
            probability=1.0,
            rng=np.random.default_rng(0),
            only_phase=phase,
        )
    )
    return RepEx(config, session=session).run()


class TestExchangeTaskFailure:
    def test_failed_exchange_keeps_simulation_alive(self):
        res = run_with_phase_failures("exchange", small_tremd_config())
        # every cycle completed, but no swaps were applied
        assert len(res.cycle_timings) == 2
        assert res.exchange_stats["temperature"].attempted == 0
        # windows untouched
        assert [r.window("temperature") for r in res.replicas] == [
            0, 1, 2, 3,
        ]

    def test_md_still_progresses(self):
        res = run_with_phase_failures("exchange", small_tremd_config())
        for rep in res.replicas:
            assert len(rep.history) == 2
            assert not any(rec.failed for rec in rep.history)


class TestSinglePointFailure:
    def _salt_config(self):
        return small_tremd_config(
            dimensions=[DimensionSpec("salt", 4, 0.0, 1.0)],
            resource=ResourceSpec("supermic", cores=4),
        )

    def test_all_sp_failed_drops_all_proposals(self):
        res = run_with_phase_failures("single_point", self._salt_config())
        # with no energy rows the exchange task raises on its first pass,
        # so its unit fails and no swap is applied
        assert res.exchange_stats["salt"].attempted == 0
        assert [r.window("salt") for r in res.replicas] == [0, 1, 2, 3]

    def test_sp_success_path_differs(self):
        res = RepEx(self._salt_config()).run()
        assert res.exchange_stats["salt"].attempted > 0
