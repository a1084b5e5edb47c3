"""Regression tests: two sessions in one process must not interfere.

Historically the stack leaned on process-global state — one default
metrics registry and module-level pilot uid counters — which was fine
while a process hosted exactly one session, and fatal once the campaign
arbiter made sessions co-resident.  These tests pin the isolation
contract: every ``RepEx`` records into a registry of its own, so it is a
*value*, and any number of them can be built and run in one process, in
any interleaving, with bit-identical results.
"""

import pytest

from repro.core import RepEx
from repro.core.config import DimensionSpec, ResourceSpec, SimulationConfig
from repro.obs.metrics import MetricsRegistry
from repro.pilot.session import Session
from tests.conftest import small_tremd_config


def config_a():
    return small_tremd_config(title="co-a", seed=11)


def config_b():
    return SimulationConfig(
        title="co-b",
        dimensions=[DimensionSpec("temperature", 3, 290.0, 350.0)],
        resource=ResourceSpec("small-cluster", cores=6),
        n_cycles=3,
        steps_per_cycle=400,
        numeric_steps=2,
        sample_stride=0,
        seed=77,
    )


def solo_metrics(config):
    """The metrics snapshot of ``config`` run alone in a fresh registry."""
    registry = MetricsRegistry()
    result = RepEx(config, registry=registry).run()
    return result.manifest.metrics, result


class TestCoResidentSessions:
    def test_interleaved_runs_match_solo_runs(self):
        expected_a, _ = solo_metrics(config_a())
        expected_b, _ = solo_metrics(config_b())
        # interleave construction and execution of two private-registry
        # simulations in one process
        repex_a = RepEx(config_a(), registry=MetricsRegistry())
        repex_b = RepEx(config_b(), registry=MetricsRegistry())
        result_a = repex_a.run()
        result_b = repex_b.run()
        assert result_a.manifest.metrics == expected_a
        assert result_b.manifest.metrics == expected_b

    def test_manifests_are_byte_identical_across_coresident_runs(self):
        first = RepEx(config_a(), registry=MetricsRegistry()).run()
        second = RepEx(config_a(), registry=MetricsRegistry()).run()
        assert first.manifest.to_jsonl() == second.manifest.to_jsonl()

    def test_runtime_counters_land_in_the_owning_registry(self):
        # the exchange task counts its decisions while the run executes:
        # they must land in the running RepEx's registry — and only there
        bystander = RepEx(config_b())
        before = bystander.registry.snapshot()
        registry = MetricsRegistry()
        RepEx(config_a(), registry=registry).run()
        mine = registry.snapshot()["counters"]
        assert mine.get("exchange.attempted", 0) > 0
        assert bystander.registry.snapshot() == before

    def test_second_session_does_not_clobber_first_results(self):
        registry_a = MetricsRegistry()
        repex_a = RepEx(config_a(), registry=registry_a)
        result_a = repex_a.run()
        snapshot_after_a = registry_a.snapshot()
        # running an unrelated simulation afterwards must leave the
        # first registry (and the manifest built from it) untouched
        RepEx(config_b(), registry=MetricsRegistry()).run()
        assert registry_a.snapshot() == snapshot_after_a
        assert result_a.manifest.metrics["counters"] == (
            snapshot_after_a["counters"]
        )


class TestSessionScopedUids:
    def test_first_pilot_is_always_pilot_0000(self):
        # module-counter era: the second session's first pilot would have
        # been pilot.0001, leaking process history into manifests
        uids = []
        for _ in range(2):
            session = Session(registry=MetricsRegistry())
            from repro.pilot.pilot import PilotDescription

            pilot = session.submit_pilot(
                PilotDescription(resource="small-cluster", cores=4)
            )
            uids.append(pilot.uid)
            session.close()
        assert uids == ["pilot.0000", "pilot.0000"]

    def test_pilot_uids_increment_within_a_session(self):
        from repro.pilot.pilot import PilotDescription

        session = Session(registry=MetricsRegistry())
        uids = [
            session.submit_pilot(
                PilotDescription(resource="small-cluster", cores=2)
            ).uid
            for _ in range(3)
        ]
        session.close()
        assert uids == ["pilot.0000", "pilot.0001", "pilot.0002"]
