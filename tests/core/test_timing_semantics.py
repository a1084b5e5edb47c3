"""Tests pinning the Eq. 1 timing-decomposition semantics."""

import pytest

from repro.core import RepEx
from repro.core.config import DimensionSpec, ResourceSpec

from tests.conftest import small_tremd_config


class TestModeISemantics:
    def test_md_span_close_to_md_exec_in_mode_i(self):
        """With all replicas concurrent, the MD phase span exceeds the
        slowest task only by staging + launch stagger."""
        res = RepEx(small_tremd_config()).run()
        for c in res.cycle_timings:
            assert c.t_md_span >= c.t_md
            assert c.t_md_span - c.t_md < 5.0

    def test_eq1_terms_roughly_cover_span(self):
        """The Eq. 1 sum approximates the cycle span (terms overlap across
        tasks, so it need not be exact, but it must be the right size)."""
        res = RepEx(small_tremd_config()).run()
        for c in res.cycle_timings:
            assert 0.7 * c.span < c.tc < 1.3 * c.span

    def test_t_rp_is_launch_overhead(self):
        """T_RP grows with concurrently launched tasks (paper Sec. 4.1)."""
        small = RepEx(small_tremd_config()).run()
        big = RepEx(
            small_tremd_config(
                dimensions=[
                    DimensionSpec("temperature", 32, 273.0, 373.0)
                ],
                resource=ResourceSpec("supermic", cores=32),
            )
        ).run()
        assert big.mean_component("t_rp") > small.mean_component("t_rp")

    def test_t_data_includes_exchange_staging_for_salt(self):
        """S-REMD stages energy-matrix rows: its T_data beats T-REMD's."""
        t_res = RepEx(small_tremd_config()).run()
        s_res = RepEx(
            small_tremd_config(
                dimensions=[DimensionSpec("salt", 4, 0.0, 1.0)]
            )
        ).run()
        assert s_res.mean_component("t_data") > t_res.mean_component(
            "t_data"
        )


class TestModeIISemantics:
    def test_md_span_counts_waves(self):
        """In Mode II the span is ~waves x the per-task time."""
        res = RepEx(
            small_tremd_config(
                dimensions=[
                    DimensionSpec("temperature", 8, 273.0, 373.0)
                ],
                resource=ResourceSpec("supermic", cores=2),
                n_cycles=1,
            )
        ).run()
        c = res.cycle_timings[0]
        # 4 waves of ~141 s each
        assert c.t_md_span > 3.5 * c.t_md
        # per-task execution time is unchanged by the batching
        assert 135.0 < c.t_md < 160.0

    def test_wave_penalty_charged(self):
        """Mode II cycles include the MPI re-layout gap: eight MD tasks
        on a 4-core pilot run in two waves, and the second is submitted
        12 s + 0.18 s x 4 cores after the first one's last unit ends."""
        from repro.core.execution_modes import (
            MODE2_PER_CORE_WAVE_GAP_S,
            MODE2_WAVE_GAP_S,
        )

        res = RepEx(
            small_tremd_config(
                dimensions=[
                    DimensionSpec("temperature", 8, 273.0, 373.0)
                ],
                resource=ResourceSpec("supermic", cores=4),
                n_cycles=1,
            )
        ).run()
        times = {
            u["rid"]: [t for t in u["t"] if t is not None]
            for u in res.manifest.units
            if u["phase"] == "md"
        }
        first_ends = max(times[rid][-1] for rid in range(4))
        second_starts = min(times[rid][0] for rid in range(4, 8))
        gap = MODE2_WAVE_GAP_S + MODE2_PER_CORE_WAVE_GAP_S * 4
        assert gap == pytest.approx(12.72)
        assert second_starts - first_ends == pytest.approx(gap)


class TestDeterminism:
    def test_timings_bit_identical_across_runs(self):
        a = RepEx(small_tremd_config()).run()
        b = RepEx(small_tremd_config()).run()
        for ca, cb in zip(a.cycle_timings, b.cycle_timings):
            assert ca.t_md == cb.t_md
            assert ca.t_ex == cb.t_ex
            assert ca.span == cb.span
