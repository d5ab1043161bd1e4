"""Tests for the SVG chart renderer."""

import pytest

from repro.core.telemetry import RunResult
from repro.experiments.figures import FigureResult
from repro.experiments.runner import SweepPoint
from repro.experiments.svg import render_panel_svg, save_figure_svg


def result(energy):
    return RunResult(
        policy="P", end_time=10.0, foreground_time=10.0,
        disk_energy=energy / 2, wnic_energy=energy / 2, requests=1,
        device_requests={}, device_bytes={}, cache_hit_ratio=0.0,
        disk_spinups=0, disk_spindowns=0, wnic_wakeups=0)


def curves():
    points_a = [SweepPoint(policy="A", latency=l, bandwidth_bps=1.375e6,
                           result=result(100 + 10 * i))
                for i, l in enumerate((0.0, 0.01, 0.02))]
    points_b = [SweepPoint(policy="B", latency=l, bandwidth_bps=1.375e6,
                           result=result(220 - 5 * i))
                for i, l in enumerate((0.0, 0.01, 0.02))]
    return {"A": points_a, "B": points_b}


class TestRenderPanel:
    def test_valid_svg_document(self):
        svg = render_panel_svg(curves(), title="demo", x_axis="latency")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert svg.count("<polyline") == 2     # one per policy
        assert "demo" in svg
        assert "WNIC latency (ms)" in svg

    def test_bandwidth_axis(self):
        svg = render_panel_svg(curves(), title="t", x_axis="bandwidth")
        assert "WNIC bandwidth (Mbps)" in svg

    def test_legend_contains_policies(self):
        svg = render_panel_svg(curves(), title="t", x_axis="latency")
        assert ">A</text>" in svg
        assert ">B</text>" in svg

    def test_title_is_escaped(self):
        svg = render_panel_svg(curves(), title="<&>", x_axis="latency")
        assert "&lt;&amp;&gt;" in svg

    def test_errors(self):
        with pytest.raises(ValueError):
            render_panel_svg(curves(), title="t", x_axis="frequency")
        with pytest.raises(ValueError):
            render_panel_svg({}, title="t", x_axis="latency")


class TestSaveFigure:
    def test_writes_one_file_per_panel(self, tmp_path):
        fig = FigureResult(figure_id="figX", title="t", workload="w",
                           by_latency=curves(), by_bandwidth=curves())
        paths = save_figure_svg(fig, tmp_path)
        assert [p.name for p in paths] == ["figXa.svg", "figXb.svg"]
        for p in paths:
            assert p.read_text().startswith("<svg")

    def test_skips_missing_panels(self, tmp_path):
        fig = FigureResult(figure_id="figY", title="t", workload="w",
                           by_latency=curves())
        paths = save_figure_svg(fig, tmp_path)
        assert [p.name for p in paths] == ["figYa.svg"]
