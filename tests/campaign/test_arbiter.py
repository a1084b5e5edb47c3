"""Unit tests for the campaign arbiter's scheduling policies."""

import pytest

from repro.campaign.arbiter import Arbiter, SessionRequest, SessionState
from tests.campaign_stubs import stub_runner
from repro.campaign.spec import (
    CampaignError,
    DatacenterSpec,
    FaultSpec,
    TenantSpec,
)


def make_arbiter(tenants=None, *, nodes=4, cores_per_node=8, **kwargs):
    if tenants is None:
        tenants = [TenantSpec(name="a"), TenantSpec(name="b")]
    return Arbiter(
        DatacenterSpec(nodes=nodes, cores_per_node=cores_per_node),
        tenants,
        **kwargs,
    )


def req(uid, tenant="a", cores=8):
    return SessionRequest(uid=uid, tenant=tenant, cores=cores)


def audit_events(arbiter, kind):
    return [e for e in arbiter.audit if e["event"] == kind]


class TestAdmission:
    def test_infeasible_cores_rejected(self):
        arb = make_arbiter(nodes=1, cores_per_node=4)
        record = arb.submit(req("a-0", cores=8))
        assert record.state is SessionState.REJECTED
        assert "datacenter has 4" in record.reject_reason

    def test_over_quota_request_rejected_outright(self):
        arb = make_arbiter([TenantSpec(name="a", quota_cores=4)])
        record = arb.submit(req("a-0", cores=8))
        assert record.state is SessionState.REJECTED
        assert "quota" in record.reject_reason

    def test_bounded_queue_rejects_overflow(self):
        arb = make_arbiter(
            [TenantSpec(name="a", quota_sessions=1)],
            nodes=1, queue_limit=2,
        )
        arb.prepare(stub_runner(default_s=10.0))
        arb.submit(req("a-0"))  # runs immediately
        arb.submit(req("a-1"))  # queued (quota_sessions=1)
        arb.submit(req("a-2"))  # queued
        rejected = arb.submit(req("a-3"))
        assert rejected.state is SessionState.REJECTED
        assert rejected.reject_reason == "queue full"
        arb.run(stub_runner(default_s=10.0))
        states = {r.request.uid: r.state for r in arb.records}
        assert states["a-1"] is SessionState.DONE
        assert states["a-2"] is SessionState.DONE

    def test_unknown_tenant_raises(self):
        arb = make_arbiter()
        with pytest.raises(CampaignError, match="unknown tenant"):
            arb.submit(req("x-0", tenant="nobody"))

    def test_duplicate_uid_raises(self):
        arb = make_arbiter()
        arb.submit(req("a-0"))
        with pytest.raises(CampaignError, match="duplicate session uid"):
            arb.submit(req("a-0"))


class TestQuotas:
    def test_quota_cores_never_exceeded(self):
        arb = make_arbiter(
            [TenantSpec(name="a", quota_cores=16)], nodes=8
        )
        for i in range(6):
            arb.submit(req(f"a-{i}", cores=8))
        concurrent = []
        base = stub_runner(default_s=50.0)

        def watcher(request):
            # the dispatched request's own record is already RUNNING
            running = sum(
                r.request.cores
                for r in arb.records
                if r.state is SessionState.RUNNING
            )
            concurrent.append(running)
            return base(request)

        arb.run(watcher)
        assert all(r.state is SessionState.DONE for r in arb.records)
        assert max(concurrent) <= 16

    def test_quota_sessions_serializes(self):
        arb = make_arbiter([TenantSpec(name="a", quota_sessions=1)])
        arb.submit(req("a-0"))
        arb.submit(req("a-1"))
        arb.run(stub_runner(default_s=30.0))
        r0, r1 = arb.records
        # strictly sequential: the second starts when the first ends
        assert r1.attempts[0][0] == pytest.approx(r0.attempts[0][1])


class TestFairShare:
    def test_least_weighted_usage_wins(self):
        # one node: sessions run one at a time, so every dispatch is a
        # fair-share decision between backlogged tenants
        arb = make_arbiter(
            [TenantSpec(name="a", weight=1.0), TenantSpec(name="b", weight=1.0)],
            nodes=1,
        )
        for i in range(3):
            arb.submit(req(f"a-{i}", tenant="a"))
            arb.submit(req(f"b-{i}", tenant="b"))
        arb.run(stub_runner(default_s=100.0))
        starts = [e for e in arb.audit if e["event"] == "start"]
        tenants = [e["tenant"] for e in starts]
        # equal weights, equal sessions: strict alternation
        assert tenants == ["a", "b", "a", "b", "a", "b"]

    def test_weight_skews_the_share(self):
        arb = make_arbiter(
            [TenantSpec(name="a", weight=2.0), TenantSpec(name="b", weight=1.0)],
            nodes=1,
        )
        for i in range(8):
            arb.submit(req(f"a-{i}", tenant="a"))
            arb.submit(req(f"b-{i}", tenant="b"))
        arb.run(stub_runner(default_s=100.0))
        first_six = [
            e["tenant"] for e in arb.audit if e["event"] == "start"
        ][:6]
        # weight 2 tenant gets ~2 of every 3 dispatches
        assert first_six.count("a") == 4
        assert first_six.count("b") == 2

    def test_priority_breaks_ties(self):
        arb = make_arbiter(
            [TenantSpec(name="lo", priority=0), TenantSpec(name="hi", priority=5)],
            nodes=1,
        )
        arb.submit(req("lo-0", tenant="lo"))
        arb.submit(req("hi-0", tenant="hi"))
        arb.run(stub_runner(default_s=10.0))
        starts = [e["tenant"] for e in arb.audit if e["event"] == "start"]
        assert starts[0] == "hi"

    def test_every_start_chose_a_minimal_eligible_tenant(self):
        arb = make_arbiter(nodes=2)
        for i in range(4):
            arb.submit(req(f"a-{i}", tenant="a"))
            arb.submit(req(f"b-{i}", tenant="b"))
        arb.run(stub_runner(default_s=60.0))
        for start in audit_events(arb, "start"):
            eligible = start["eligible"]
            assert eligible[start["tenant"]] == min(eligible.values())


class TestPlacementIsolation:
    def test_nodes_never_cohost_two_tenants(self):
        arb = make_arbiter(nodes=2, cores_per_node=8)
        # 4-core sessions: two fit per node, forcing co-placement choices
        for i in range(4):
            arb.submit(req(f"a-{i}", tenant="a", cores=4))
            arb.submit(req(f"b-{i}", tenant="b", cores=4))

        violations = []
        base = stub_runner(default_s=40.0)

        def watcher(request):
            holders = {}
            for r in arb.records:
                if r.state is SessionState.RUNNING:
                    for node in r.allocation:
                        holders.setdefault(node, set()).add(r.request.tenant)
            for node, tenants in holders.items():
                if len(tenants) > 1:
                    violations.append((node, tenants))
            return base(request)

        arb.run(watcher)
        assert not violations

    def test_same_tenant_packs_partial_nodes_first(self):
        arb = make_arbiter(nodes=4, cores_per_node=8)
        arb.prepare(stub_runner(default_s=100.0))
        arb.submit(req("a-0", cores=4))
        arb.submit(req("a-1", cores=4))
        r0, r1 = arb.records
        assert r0.allocation == {0: 4}
        assert r1.allocation == {0: 4}  # co-filled, not spread

    def test_request_spans_nodes(self):
        arb = make_arbiter(nodes=3, cores_per_node=8)
        arb.prepare(stub_runner(default_s=10.0))
        arb.submit(req("a-0", cores=20))
        assert arb.records[0].allocation == {0: 8, 1: 8, 2: 4}


class TestFaults:
    def crash_arbiter(self, relaunch_limit=2):
        return Arbiter(
            DatacenterSpec(nodes=2, cores_per_node=8, repair_s=50.0),
            [TenantSpec(name="a"), TenantSpec(name="b")],
            faults=FaultSpec(node_crashes=[[30.0, 0]]),
            relaunch_limit=relaunch_limit,
        )

    def test_crash_kills_only_the_owner(self):
        arb = self.crash_arbiter()
        arb.prepare(stub_runner(default_s=100.0))
        arb.submit(req("a-0", tenant="a", cores=8))  # node 0
        arb.submit(req("b-0", tenant="b", cores=8))  # node 1
        arb.run(stub_runner(default_s=100.0))
        (crash,) = audit_events(arb, "crash")
        assert crash["owner"] == "a"
        assert crash["killed"] == ["a-0"]
        a0, b0 = arb.records
        assert a0.relaunches == 1 and a0.state is SessionState.DONE
        # bystander tenant ran through undisturbed
        assert b0.relaunches == 0
        assert b0.attempts == [[0.0, 100.0]]

    def test_killed_after_relaunch_budget(self):
        arb = Arbiter(
            DatacenterSpec(nodes=1, cores_per_node=8, repair_s=10.0),
            [TenantSpec(name="a")],
            faults=FaultSpec(node_crashes=[[30.0, 0], [50.0, 0], [70.0, 0]]),
            relaunch_limit=1,
        )
        arb.submit(req("a-0", cores=8))
        arb.run(stub_runner(default_s=100.0))
        record = arb.records[0]
        assert record.state is SessionState.KILLED
        assert record.relaunches == 1
        assert len(audit_events(arb, "killed")) == 1

    def test_quarantine_blocks_placement_until_repair(self):
        arb = Arbiter(
            DatacenterSpec(nodes=1, cores_per_node=8, repair_s=50.0),
            [TenantSpec(name="a")],
            faults=FaultSpec(node_crashes=[[30.0, 0]]),
            relaunch_limit=2,
        )
        arb.submit(req("a-0", cores=8))
        arb.submit(req("a-1", cores=8))
        arb.run(stub_runner(default_s=20.0))
        r0, r1 = arb.records
        assert r0.attempts == [[0.0, 20.0]]
        # a-1 starts at 20, dies in the crash at 30, and its relaunch
        # must wait out the quarantine: restart at repair time 30+50
        assert r1.attempts == [[20.0, 30.0], [80.0, 100.0]]
        assert r1.state is SessionState.DONE
        (repair,) = audit_events(arb, "repair")
        assert repair["t"] == pytest.approx(80.0)

    def test_crash_on_idle_node_kills_nobody(self):
        arb = Arbiter(
            DatacenterSpec(nodes=2, cores_per_node=8, repair_s=50.0),
            [TenantSpec(name="a")],
            faults=FaultSpec(node_crashes=[[30.0, 1]]),
        )
        arb.submit(req("a-0", cores=8))  # placed on node 0; node 1 idle
        arb.run(stub_runner(default_s=100.0))
        (crash,) = audit_events(arb, "crash")
        assert crash["owner"] is None and crash["killed"] == []
        assert arb.records[0].attempts == [[0.0, 100.0]]

    def test_crash_accrues_partial_usage(self):
        arb = self.crash_arbiter(relaunch_limit=0)
        arb.submit(req("a-0", tenant="a", cores=8))
        arb.run(stub_runner(default_s=100.0))
        record = arb.records[0]
        assert record.state is SessionState.KILLED
        # 8 cores for the 30 s before the crash
        assert record.core_seconds == pytest.approx(240.0)
        assert arb.busy_core_seconds == pytest.approx(240.0)


class TestSlowNodes:
    """Gray degradation: inferred slow-node quarantine."""

    def slow_arbiter(self, n_sessions=8, **fault_over):
        faults = dict(slow_nodes=[[0, 4.0]])
        faults.update(fault_over)
        arb = Arbiter(
            DatacenterSpec(nodes=2, cores_per_node=8, repair_s=50.0),
            [TenantSpec(name="a")],
            faults=FaultSpec(**faults),
        )
        for i in range(n_sessions):
            arb.submit(req(f"a-{i}", cores=8))
        return arb

    def test_completion_dilated_by_slow_node(self):
        arb = self.slow_arbiter(n_sessions=1)
        arb.run(stub_runner(default_s=50.0))
        record = arb.records[0]
        # placed on (4x-slow) node 0: occupies 200 s, reports 50 s
        assert record.attempts == [[0.0, 200.0]]
        assert record.state is SessionState.DONE
        assert record.outcome.duration_s == pytest.approx(50.0)

    def test_quarantined_after_min_samples_and_never_repaired(self):
        arb = self.slow_arbiter()
        arb.run(stub_runner(default_s=50.0))
        assert all(r.state is SessionState.DONE for r in arb.records)
        (event,) = audit_events(arb, "slow_quarantine")
        assert event["node"] == 0
        assert event["samples"] == 2
        assert event["ratio"] == pytest.approx(4.0)
        # permanent: no repair ever fires for a slow quarantine
        assert audit_events(arb, "repair") == []
        # every attempt started after the quarantine ran at full speed,
        # i.e. landed on the healthy node
        for record in arb.records:
            for t0, t1 in record.attempts:
                if t0 >= event["t"]:
                    assert t1 - t0 == pytest.approx(50.0)

    def test_below_threshold_never_samples(self):
        arb = self.slow_arbiter(n_sessions=4, slow_nodes=[[0, 1.2]])
        arb.run(stub_runner(default_s=50.0))
        assert audit_events(arb, "slow_quarantine") == []
        assert arb._slow_samples == [0, 0]

    def test_crash_repair_cannot_revive_slow_quarantine(self):
        arb = self.slow_arbiter(n_sessions=0)
        arb._slow_samples[0] = 2
        arb._quarantined[0] = True
        arb._repair_node(0)
        assert arb._quarantined[0] is True
        # an ordinary crash quarantine still heals
        arb._quarantined[1] = True
        arb._repair_node(1)
        assert arb._quarantined[1] is False


class TestAccounting:
    def test_tenant_usage_sums_to_datacenter_busy(self):
        arb = make_arbiter(nodes=2)
        for i in range(3):
            arb.submit(req(f"a-{i}", tenant="a"))
            arb.submit(req(f"b-{i}", tenant="b"))
        arb.run(stub_runner(default_s=70.0))
        usage = arb.tenant_usage()
        assert sum(usage.values()) == pytest.approx(arb.busy_core_seconds)
        assert usage["a"] == pytest.approx(3 * 8 * 70.0)

    def test_failed_runner_outcome_marks_failed(self):
        arb = make_arbiter()
        arb.submit(req("a-0"))
        arb.run(stub_runner(default_s=10.0, fail={"a-0": True}))
        assert arb.records[0].state is SessionState.FAILED

    def test_raising_runner_is_contained(self):
        arb = make_arbiter()
        arb.submit(req("a-0"))
        arb.submit(req("a-1"))

        def runner(request):
            if request.uid == "a-0":
                raise RuntimeError("inner sim exploded")
            return stub_runner(default_s=10.0)(request)

        arb.run(runner)
        states = {r.request.uid: r.state for r in arb.records}
        assert states["a-0"] is SessionState.FAILED
        assert states["a-1"] is SessionState.DONE
        assert audit_events(arb, "runner_error")


class TestFinishCheck:
    def test_done_reads_grow_linearly_with_sessions(self, monkeypatch):
        """``run`` checks for the end after every event; it must not rescan
        the sessions that already finished (quadratic on long campaigns)."""
        from repro.campaign.arbiter import SessionRecord

        reads = 0
        done = SessionRecord.done.fget

        def counted(record):
            nonlocal reads
            reads += 1
            return done(record)

        monkeypatch.setattr(SessionRecord, "done", property(counted))
        arb = make_arbiter()
        n_sessions = 160
        for i in range(n_sessions):
            arb.submit(req(f"{'ab'[i % 2]}-{i}"))
        records = arb.run(stub_runner(default_s=10.0))
        assert all(r.state is SessionState.DONE for r in records)
        assert reads < 10 * n_sessions
