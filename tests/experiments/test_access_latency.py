"""Tests for the end-to-end access-latency experiment."""

import pytest

from repro.experiments.access_latency import EXPERIMENT


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(rounds=6, seed=42)


class TestAccessLatency:
    def test_shape_claims_hold(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_all_deployments_measured(self, result):
        assert len(result.rows) == 6

    def test_fetch_leg_is_flat(self, result):
        fetches = [row.fetch_ms for row in result.rows]
        assert max(fetches) - min(fetches) < 0.3 * max(fetches)

    def test_gap_is_dns_dominated(self, result):
        mec = result.row("mec-ldns-mec-cdns")
        cloudflare = result.row("cloudflare-dns")
        dns_gap = cloudflare.dns_ms - mec.dns_ms
        total_gap = cloudflare.total_ms - mec.total_ms
        assert dns_gap == pytest.approx(total_gap, rel=0.15)

    def test_every_fetch_hits_warmed_edge(self, result):
        assert all(row.cache_hit_rate == 1.0 for row in result.rows)

    def test_totals_are_component_sums(self, result):
        for row in result.rows:
            assert row.total_ms == pytest.approx(row.dns_ms + row.fetch_ms)

    def test_render(self, result):
        text = result.render()
        assert "edge hits" in text
        assert "MEC L-DNS w/ MEC C-DNS" in text

    def test_row_lookup_unknown(self, result):
        with pytest.raises(KeyError):
            result.row("smoke-signals")
