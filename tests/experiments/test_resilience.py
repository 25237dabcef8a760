"""Tests for the fault-injection (chaos) experiment."""

import pytest

from repro.experiments.resilience import (DEADLINE_MS, EXPERIMENT, MODES,
                                          SCENARIOS)


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(queries=40, seed=42)


class TestResilienceGrid:
    def test_grid_covers_every_cell(self, result):
        # 6 deployments x 2 modes for the crash, 2 cells each for the
        # partition and burst-loss scenarios.
        assert len(result.rows) == 16
        assert {row.scenario for row in result.rows} == set(SCENARIOS)
        assert {row.mode for row in result.rows} == set(MODES)

    def test_row_lookup(self, result):
        row = result.row("cdns-crash", "mec-ldns-mec-cdns", "resilient")
        assert row.mode == "resilient"
        with pytest.raises(KeyError):
            result.row("cdns-crash", "no-such-deployment", "baseline")

    def test_shape_claims_hold_at_full_fidelity(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_stale_answers_only_in_resilient_cells(self, result):
        for row in result.rows:
            if row.mode == "baseline":
                assert row.stale_answers == 0

    def test_faulted_cells_recorded_timelines(self, result):
        assert result.timelines[
            "cdns-crash/mec-ldns-mec-cdns/baseline"] != []
        assert result.timelines[
            "mec-partition/mec-ldns-mec-cdns/baseline"] != []
        # The warmed-resolver deployments have no C-DNS to crash: their
        # timeline is empty by design, not by omission.
        assert result.timelines["cdns-crash/google-dns/baseline"] == []

    def test_render_is_complete(self, result):
        text = result.render()
        for token in ("cdns-crash", "mec-partition", "lte-burst-loss",
                      "avail", "stale", "fallback",
                      f"deadline {DEADLINE_MS:.0f} ms"):
            assert token in text

    def test_availability_is_a_fraction(self, result):
        for row in result.rows:
            assert 0.0 <= row.availability <= 1.0
            assert row.answered <= row.queries


class TestDeterminism:
    def test_replay_digests_match_byte_for_byte(self, result):
        assert result.replays  # the run replays at least one cell
        for first, second in result.replays.values():
            assert first == second

    def test_identical_seeds_reproduce_the_whole_grid(self):
        first = EXPERIMENT.run_serial(queries=5, seed=7)
        second = EXPERIMENT.run_serial(queries=5, seed=7)
        assert first.timelines == second.timelines
        assert first.rows == second.rows

    def test_different_seeds_change_measurements(self):
        first = EXPERIMENT.run_serial(queries=5, seed=7)
        second = EXPERIMENT.run_serial(queries=5, seed=8)
        assert first.rows != second.rows
