"""Tests for the paper-artifact experiment modules.

These run the experiments at reduced trial counts (shape checks are
margin-based, so they still hold) and verify both the structured results
and the rendered output.
"""

import pytest

from repro.experiments import (
    run_ecs,
    run_figure2,
    run_figure3,
    run_figure5,
    run_table1,
    run_table2,
)
from repro.experiments import ecs as ecs_mod
from repro.experiments import figure2 as f2_mod
from repro.experiments import figure3 as f3_mod
from repro.experiments import figure5 as f5_mod
from repro.experiments.report import format_bar, format_table


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [("1", "2")])

    def test_format_table_title(self):
        text = format_table(["a"], [("1",)], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_bar(self):
        assert format_bar(0.5, width=10) == "#####....."
        assert format_bar(0.0, width=4) == "...."
        assert format_bar(1.5, width=4) == "####"  # clamped


class TestTable1:
    def test_five_rows_with_paper_domains(self):
        result = run_table1()
        assert len(result.rows) == 5
        domains = {row.domain for row in result.rows}
        assert "a0.muscache.com" in domains
        assert "q-cf.bstatic.com" in domains

    def test_rows_are_the_papers_sites_and_domains(self):
        rows = {row.site: row.domain for row in run_table1().rows}
        assert rows == {
            "Airbnb": "a0.muscache.com",
            "Booking.com": "q-cf.bstatic.com",
            "TripAdvisor": "static.tacdn.com",
            "Agoda": "cdn0.agoda.net",
            "Expedia": "a.cdn.intentmedia.net",
        }

    def test_render(self):
        text = run_table1().render()
        assert "Airbnb" in text
        assert "cdn0.agoda.net" in text


class TestTable2:
    def test_seven_roles(self):
        result = run_table2()
        assert len(result.rows) == 7
        entities = {row.entity for row in result.rows}
        assert "MEC Provider" in entities
        assert "CDN Brokers" in entities

    def test_entities_are_the_papers(self):
        assert {row.entity for row in run_table2().rows} == {
            "Cellular Providers", "CDN Providers", "DNS Provider",
            "Web Provider", "Cloud Provider", "CDN Brokers", "MEC Provider",
        }

    def test_multi_role_entities_consistent(self):
        result = run_table2()
        assert "Verizon" in result.multi_role
        assert "Cellular Providers" in result.multi_role["Verizon"]

    def test_render_includes_module_mapping(self):
        text = run_table2().render()
        assert "repro.cdn.broker" in text
        assert "Verizon" in text


@pytest.fixture(scope="module")
def figure2_result():
    return run_figure2(trials=14, seed=5)


class TestFigure2:
    def test_fifteen_bars(self, figure2_result):
        assert len(figure2_result.rows) == 15  # 5 domains x 3 networks

    def test_shape_claims_hold(self, figure2_result):
        assert f2_mod.check_shape(figure2_result) == []

    def test_minimum_twelve_tests(self, figure2_result):
        assert all(row.stats.count >= 12 for row in figure2_result.rows)

    def test_render(self, figure2_result):
        text = figure2_result.render()
        assert "cellular-mobile" in text
        assert "Figure 2" in text

    def test_bars_accessor(self, figure2_result):
        bars = figure2_result.bars()
        assert ("Airbnb", "wired-campus") in bars


@pytest.fixture(scope="module")
def figure3_result():
    return run_figure3(trials=30, seed=5)


class TestFigure3:
    def test_shape_claims_hold(self, figure3_result):
        assert f3_mod.check_shape(figure3_result) == []

    def test_answers_only_from_deployment_pools(self, figure3_result):
        assert all(row.unmatched == 0 for row in figure3_result.rows)

    def test_multi_provider_domains_spread(self, figure3_result):
        distribution = figure3_result.distribution_for(
            "TripAdvisor", "cellular-mobile")
        providers = {label.split(" (")[0] for label in distribution}
        assert len(providers) >= 2

    def test_render(self, figure3_result):
        text = figure3_result.render()
        assert "Akamai (23.55.124.0/24)" in text
        assert "%" in text


@pytest.fixture(scope="module")
def figure5_result():
    return run_figure5(queries=20, seed=42)


class TestFigure5:
    def test_six_bars_in_paper_order(self, figure5_result):
        assert [row.key for row in figure5_result.rows] == list(
            f5_mod.DEPLOYMENT_KEYS)

    def test_shape_claims_hold(self, figure5_result):
        assert f5_mod.check_shape(figure5_result) == []

    def test_means_near_paper_values(self, figure5_result):
        # Calibration check: within 20% of every published mean.
        for row in figure5_result.rows:
            assert row.latency.mean == pytest.approx(row.paper_mean, rel=0.2)

    def test_render_shows_paper_column(self, figure5_result):
        text = figure5_result.render()
        assert "paper ms" in text
        assert "MEC L-DNS w/ MEC C-DNS" in text

    def test_row_lookup(self, figure5_result):
        assert figure5_result.row("lan-ldns").label == "LAN L-DNS"
        with pytest.raises(KeyError):
            figure5_result.row("nope")


class TestEcs:
    def test_ratios_and_correctness(self):
        result = run_ecs(queries=15, seed=42)
        assert ecs_mod.check_shape(result) == []
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.always_correct_cache

    def test_render(self):
        result = run_ecs(queries=10, seed=1)
        text = result.render()
        assert "ratio" in text
        assert "correct cache" in text
