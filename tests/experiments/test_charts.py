"""Tests for the ASCII chart renderers."""

import pytest

from repro.experiments.figure2 import EXPERIMENT as FIGURE2
from repro.experiments.figure5 import EXPERIMENT as FIGURE5


@pytest.fixture(scope="module")
def figure5():
    return FIGURE5.run_serial(queries=8, seed=42)


@pytest.fixture(scope="module")
def figure2():
    return FIGURE2.run_serial(trials=12, seed=5)


class TestFigure5Chart:
    def test_one_bar_per_deployment(self, figure5):
        chart = figure5.render_chart()
        assert chart.count(" ms") == 6

    def test_wireless_and_resolver_segments(self, figure5):
        chart = figure5.render_chart()
        assert "=" in chart and "#" in chart
        # The MEC bar is wireless-dominated: its line has more '=' than '#'.
        mec_line = next(line for line in chart.splitlines()
                        if line.startswith("MEC L-DNS w/ MEC C-DNS"))
        assert mec_line.count("=") > mec_line.count("#")

    def test_longest_bar_is_cloudflare(self, figure5):
        chart = figure5.render_chart()
        lengths = {line.split()[0]: line.count("=") + line.count("#")
                   for line in chart.splitlines() if " ms" in line}
        assert max(lengths, key=lengths.get) == "Cloudflare"

    def test_width_respected(self, figure5):
        for line in figure5.render_chart(width=30).splitlines():
            if " ms" in line:
                bar = line[len("MEC L-DNS w/ MEC C-DNS "):-len(" 999.9 ms")]
                assert len(bar) <= 32


class TestFigure2Chart:
    def test_grouped_by_domain(self, figure2):
        chart = figure2.render_chart()
        assert chart.count("---") == 2 * 5  # five domain headers
        assert chart.count(" ms") == 15

    def test_cellular_bar_longest_per_domain(self, figure2):
        chart = figure2.render_chart()
        blocks = chart.split("---")
        for block in blocks[1:]:
            if "cellular" not in block:
                continue
            lengths = {}
            for line in block.splitlines():
                if " ms" in line:
                    lengths[line.split()[0]] = line.count("#")
            if len(lengths) == 3:
                assert max(lengths, key=lengths.get) == "cellular-mobile"
