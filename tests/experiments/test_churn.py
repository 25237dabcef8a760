"""Tests for the control-plane churn experiment."""

import pytest

from repro.core.deployments import DEPLOYMENT_KEYS
from repro.experiments.churn import (DEADLINE_MS, EXPERIMENT,
                                     FAULT_DEPLOYMENT, FAULT_SCENARIOS,
                                     MODES, WARMED_DEPLOYMENTS)


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(queries=40, seed=42)


class TestChurnGrid:
    def test_grid_covers_every_cell(self, result):
        # 6 churn-only deployment cells + 3 fault scenarios x 2 modes.
        assert len(result.rows) == 12
        assert {row.scenario for row in result.rows} == \
            {"churn-only", *FAULT_SCENARIOS}
        churn_only = {row.deployment for row in result.rows
                      if row.scenario == "churn-only"}
        assert churn_only == set(DEPLOYMENT_KEYS)

    def test_row_lookup(self, result):
        row = result.row("mec-partition", FAULT_DEPLOYMENT, "baseline")
        assert row.mode == "baseline"
        with pytest.raises(KeyError):
            result.row("churn-only", "no-such-deployment", "resilient")

    def test_shape_claims_hold_at_full_fidelity(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_every_cell_sees_the_full_schedule_and_handover(self, result):
        for row in result.rows:
            assert row.updates == 3
            assert row.handoffs == 1
            assert row.post_handoff_lookups > 0

    def test_integrated_design_beats_warmed_resolvers(self, result):
        integrated = result.row("churn-only", FAULT_DEPLOYMENT,
                                "resilient")
        for deployment in WARMED_DEPLOYMENTS:
            warmed = result.row("churn-only", deployment, "resilient")
            assert warmed.misloc_rate > integrated.misloc_rate
            assert warmed.max_staleness_ms > integrated.max_staleness_ms

    def test_serve_stale_during_churn_needs_resilience(self, result):
        for scenario in FAULT_SCENARIOS:
            baseline = result.row(scenario, FAULT_DEPLOYMENT, "baseline")
            assert baseline.stale_during_churn == 0

    def test_partition_forces_axfr_fallback(self, result):
        for mode in MODES:
            row = result.row("mec-partition", FAULT_DEPLOYMENT, mode)
            assert row.axfr_fallbacks >= 1

    def test_render_is_complete(self, result):
        text = result.render()
        for token in ("churn-only", "cdns-crash", "mec-partition",
                      "origin-brownout", "misloc", "stale ms", "prop ms",
                      "rfc8767", "axfr-fb", "ho-mis",
                      f"deadline {DEADLINE_MS:.0f} ms"):
            assert token in text

    def test_rates_are_fractions(self, result):
        for row in result.rows:
            assert 0.0 <= row.availability <= 1.0
            assert 0.0 <= row.misloc_rate <= 1.0
            assert row.answered <= row.queries
            assert row.mislocalized_in_window <= row.lookups_in_window
            assert row.mislocalized_after_handoff <= \
                row.post_handoff_lookups


class TestDeterminism:
    def test_replay_digests_match_byte_for_byte(self, result):
        assert result.replays
        for first, second in result.replays.values():
            assert first == second

    def test_identical_seeds_reproduce_the_whole_grid(self):
        first = EXPERIMENT.run_serial(queries=4, seed=9)
        second = EXPERIMENT.run_serial(queries=4, seed=9)
        assert first.timelines == second.timelines
        assert first.rows == second.rows

    def test_different_seeds_change_measurements(self):
        first = EXPERIMENT.run_serial(queries=4, seed=9)
        second = EXPERIMENT.run_serial(queries=4, seed=10)
        assert first.rows != second.rows
