"""Property-based tests for the campaign arbiter's invariants.

Randomized campaigns — tenants with arbitrary weights/quotas, session
mixes, durations and crash schedules — are driven through the arbiter
with scripted stub runners, and four invariants must hold on every one:

1. quotas are never exceeded at any instant,
2. every dispatch picks a tenant with minimal weighted usage among the
   then-eligible tenants (the bounded fair-share rule), and no node ever
   co-hosts two tenants,
3. a node crash kills only sessions of the node's owner (no cross-tenant
   fault leakage), and
4. the same campaign replays to the identical audit log (deterministic
   replay).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.campaign.arbiter import Arbiter, SessionRequest, SessionState
from repro.campaign.spec import DatacenterSpec, FaultSpec, TenantSpec

# -- campaign-shape strategies -------------------------------------------------

tenant_names = ("t0", "t1", "t2", "t3")

tenants_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),  # weight
        st.integers(min_value=0, max_value=3),                     # priority
        st.sampled_from([0, 8, 16, 32]),                           # quota_cores
        st.integers(min_value=0, max_value=3),                     # quota_sessions
    ),
    min_size=1,
    max_size=4,
)

sessions_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),            # tenant index
        st.sampled_from([1, 2, 4, 8, 12]),                # cores
        st.floats(min_value=1.0, max_value=500.0,
                  allow_nan=False, allow_infinity=False),  # duration
    ),
    min_size=1,
    max_size=12,
)

crashes_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=800.0,
                  allow_nan=False, allow_infinity=False),  # time
        st.integers(min_value=0, max_value=3),             # node
    ),
    max_size=4,
)

campaign_strategy = st.fixed_dictionaries(
    {
        "nodes": st.integers(min_value=1, max_value=4),
        "cores_per_node": st.sampled_from([4, 8]),
        "repair_s": st.floats(min_value=10.0, max_value=300.0,
                              allow_nan=False),
        "tenants": tenants_strategy,
        "sessions": sessions_strategy,
        "crashes": crashes_strategy,
        "queue_limit": st.sampled_from([0, 2, 6]),
        "relaunch_limit": st.integers(min_value=0, max_value=2),
    }
)


def build_campaign(shape):
    """Instantiate an arbiter + request list + scripted runner from a draw."""
    tenants = [
        TenantSpec(
            name=tenant_names[i],
            weight=weight,
            priority=priority,
            quota_cores=quota_cores,
            quota_sessions=quota_sessions,
        )
        for i, (weight, priority, quota_cores, quota_sessions) in enumerate(
            shape["tenants"]
        )
    ]
    crashes = [
        [t, node % shape["nodes"]] for t, node in shape["crashes"]
    ]
    arbiter = Arbiter(
        DatacenterSpec(
            nodes=shape["nodes"],
            cores_per_node=shape["cores_per_node"],
            repair_s=shape["repair_s"],
        ),
        tenants,
        faults=FaultSpec(node_crashes=crashes),
        queue_limit=shape["queue_limit"],
        relaunch_limit=shape["relaunch_limit"],
    )
    requests, durations = [], {}
    for i, (tenant_idx, cores, duration) in enumerate(shape["sessions"]):
        tenant = tenants[tenant_idx % len(tenants)]
        uid = f"{tenant.name}-{i:03d}"
        requests.append(
            SessionRequest(uid=uid, tenant=tenant.name, cores=cores)
        )
        durations[uid] = duration
    return arbiter, requests, durations


def drive(arbiter, requests, durations, observer=None):
    """Submit everything and run with a scripted (optionally spied) runner."""
    from tests.campaign_stubs import stub_runner

    base = stub_runner(durations)

    def runner(request):
        if observer is not None:
            observer(request)
        return base(request)

    arbiter.prepare(runner)
    for request in requests:
        arbiter.submit(request)
    return arbiter.run(runner)


@settings(max_examples=60, deadline=None)
@given(shape=campaign_strategy)
def test_quotas_never_exceeded(shape):
    arbiter, requests, durations = build_campaign(shape)
    limits = {
        tenant_names[i]: (quota_cores, quota_sessions)
        for i, (_, _, quota_cores, quota_sessions) in enumerate(
            shape["tenants"]
        )
    }

    def check(_request):
        held_cores = {}
        held_sessions = {}
        for record in arbiter.records:
            if record.state is SessionState.RUNNING:
                tenant = record.request.tenant
                held_cores[tenant] = (
                    held_cores.get(tenant, 0) + record.request.cores
                )
                held_sessions[tenant] = held_sessions.get(tenant, 0) + 1
        for tenant, (quota_cores, quota_sessions) in limits.items():
            if quota_cores:
                assert held_cores.get(tenant, 0) <= quota_cores
            if quota_sessions:
                assert held_sessions.get(tenant, 0) <= quota_sessions

    records = drive(arbiter, requests, durations, observer=check)
    assert all(r.done for r in records)


@settings(max_examples=60, deadline=None)
@given(shape=campaign_strategy)
def test_fair_share_rule_and_node_exclusivity(shape):
    arbiter, requests, durations = build_campaign(shape)

    def check(_request):
        holders = {}
        for record in arbiter.records:
            if record.state is SessionState.RUNNING:
                for node in record.allocation:
                    holders.setdefault(node, set()).add(record.request.tenant)
        for node, tenants in holders.items():
            assert len(tenants) == 1, (
                f"node {node} co-hosts {sorted(tenants)}"
            )

    drive(arbiter, requests, durations, observer=check)
    # the audit records the weighted-usage basis of every dispatch:
    # the chosen tenant must have been minimal among the eligible
    for entry in arbiter.audit:
        if entry["event"] != "start":
            continue
        eligible = entry["eligible"]
        assert entry["tenant"] in eligible
        assert eligible[entry["tenant"]] <= min(eligible.values()) + 1e-9


@settings(max_examples=60, deadline=None)
@given(shape=campaign_strategy)
def test_no_cross_tenant_fault_leakage(shape):
    arbiter, requests, durations = build_campaign(shape)
    drive(arbiter, requests, durations)
    tenant_of = {r.request.uid: r.request.tenant for r in arbiter.records}
    for entry in arbiter.audit:
        if entry["event"] != "crash":
            continue
        killed_tenants = {tenant_of[uid] for uid in entry["killed"]}
        if entry["owner"] is None:
            assert not killed_tenants
        else:
            assert killed_tenants <= {entry["owner"]}


@settings(max_examples=40, deadline=None)
@given(shape=campaign_strategy)
def test_deterministic_replay(shape):
    first_arbiter, requests, durations = build_campaign(shape)
    drive(first_arbiter, requests, durations)
    second_arbiter, requests2, durations2 = build_campaign(shape)
    drive(second_arbiter, requests2, durations2)
    assert first_arbiter.audit == second_arbiter.audit
    assert first_arbiter.tenant_usage() == second_arbiter.tenant_usage()
    assert (
        first_arbiter.busy_core_seconds == second_arbiter.busy_core_seconds
    )


@settings(max_examples=60, deadline=None)
@given(shape=campaign_strategy)
def test_accounting_sums_and_final_states(shape):
    arbiter, requests, durations = build_campaign(shape)
    records = drive(arbiter, requests, durations)
    assert all(r.done for r in records)
    usage = arbiter.tenant_usage()
    assert sum(usage.values()) == pytest.approx(
        arbiter.busy_core_seconds, abs=1e-6
    )
    # per-record attempts reproduce the tenant totals exactly
    recomputed = {}
    for record in records:
        total = sum(
            record.request.cores * (end - start)
            for start, end in record.attempts
        )
        tenant = record.request.tenant
        recomputed[tenant] = recomputed.get(tenant, 0.0) + total
    for tenant, total in usage.items():
        assert total == pytest.approx(recomputed.get(tenant, 0.0), abs=1e-6)
