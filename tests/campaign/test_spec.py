"""Tests for campaign spec validation and JSON round-trips."""

import pytest

from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    DatacenterSpec,
    FaultSpec,
    TenantSpec,
)


def minimal_spec(**overrides):
    kwargs = dict(
        tenants=[TenantSpec(name="a"), TenantSpec(name="b", weight=2.0)],
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_defaults_build(self):
        spec = minimal_spec()
        assert spec.datacenter.total_cores == 256
        assert [t.name for t in spec.tenants] == ["a", "b"]

    def test_needs_a_tenant(self):
        with pytest.raises(CampaignError, match="at least one tenant"):
            CampaignSpec(tenants=[])

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate tenant"):
            minimal_spec(tenants=[TenantSpec(name="a"), TenantSpec(name="a")])

    @pytest.mark.parametrize(
        "field,value",
        [("weight", 0.0), ("weight", -1.0), ("quota_cores", -1),
         ("quota_sessions", -2), ("repeat", 0)],
    )
    def test_bad_tenant_fields(self, field, value):
        with pytest.raises(CampaignError):
            TenantSpec(name="t", **{field: value})

    def test_empty_grid_values_rejected(self):
        with pytest.raises(CampaignError, match="non-empty list"):
            TenantSpec(name="t", grid={"n_cycles": []})

    @pytest.mark.parametrize(
        "kwargs",
        [dict(nodes=0), dict(cores_per_node=0), dict(repair_s=0.0)],
    )
    def test_bad_datacenter(self, kwargs):
        with pytest.raises(CampaignError):
            DatacenterSpec(**kwargs)

    def test_crash_on_unknown_node_rejected(self):
        with pytest.raises(CampaignError, match="only 2 nodes"):
            minimal_spec(
                datacenter=DatacenterSpec(nodes=2),
                faults=FaultSpec(node_crashes=[[10.0, 5]]),
            )

    def test_bad_crash_entries(self):
        with pytest.raises(CampaignError, match="node_crashes entries"):
            FaultSpec(node_crashes=[[-1.0, 0]])


class TestRoundTrip:
    def test_json_round_trip(self):
        spec = minimal_spec(
            title="rt",
            seed=7,
            queue_limit=5,
            faults=FaultSpec(node_crash_rate=0.5, node_crashes=[[9.0, 1]]),
            tenants=[
                TenantSpec(
                    name="x",
                    weight=3.0,
                    priority=1,
                    quota_cores=32,
                    base={"n_cycles": 2},
                    grid={"seed": [1, 2]},
                )
            ],
        )
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign keys"):
            CampaignSpec.from_dict({"tenants": [{"name": "a"}], "typo": 1})

    def test_unknown_tenant_key_rejected(self):
        with pytest.raises(CampaignError, match="bad tenant"):
            CampaignSpec.from_dict({"tenants": [{"name": "a", "wieght": 2}]})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(CampaignError, match="bad 'datacenter'"):
            CampaignSpec.from_dict(
                {"tenants": [{"name": "a"}], "datacenter": {"nodse": 4}}
            )

    @pytest.mark.parametrize(
        "key,value",
        [("horizon_s", 3600.0), ("slow_node_threshold", 1.5),
         ("slow_min_samples", 2)],
    )
    def test_unknown_fault_key_rejected(self, key, value):
        # arbiter constants, not spec knobs
        with pytest.raises(CampaignError, match=f"bad 'faults'.*{key}"):
            CampaignSpec.from_dict(
                {"tenants": [{"name": "a"}], "faults": {key: value}}
            )

    def test_invalid_json_is_campaign_error(self):
        with pytest.raises(CampaignError, match="invalid JSON"):
            CampaignSpec.from_json("{nope")

    def test_non_object_top_level_rejected(self):
        with pytest.raises(CampaignError, match="top-level"):
            CampaignSpec.from_json("[1, 2]")
