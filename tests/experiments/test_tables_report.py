"""Unit tests for table builders and report rendering."""

import pytest

from repro.experiments.report import render_figure, render_table, sweep_to_csv
from repro.experiments.runner import SweepPoint
from repro.experiments.tables import table1, table2, table3


class TestTable1:
    def test_values_match_paper(self):
        t = table1()
        values = {row[0]: row[2] for row in t.rows}
        assert values["P_active"] == "2.0W"
        assert values["P_idle"] == "1.6W"
        assert values["P_standby"] == "0.15W"
        assert values["E_spinup"] == "5.0J"
        assert values["E_spindown"] == "2.94J"
        assert values["T_spinup"] == "1.6sec"
        assert values["T_spindown"] == "2.3sec"


class TestTable2:
    def test_values_match_paper(self):
        t = table2()
        values = dict(t.rows)
        assert values["PSM (idle/recv/send)"] == "0.39W / 1.42W / 2.48W"
        assert values["CAM (idle/recv/send)"] == "1.41W / 2.61W / 3.69W"
        assert values["CAM to PSM (Delay/Energy)"] == "0.41sec / 0.53J"
        assert values["PSM to CAM (Delay/Energy)"] == "0.40sec / 0.51J"


class TestTable3:
    def test_rows_match_reference(self):
        t = table3(seed=7)
        for row in t.rows:
            name, _desc, files, mb, ref_files, ref_mb = row
            assert files == ref_files, name
            assert float(mb) == pytest.approx(float(ref_mb), abs=0.05)

    def test_all_six_apps_present(self):
        names = {row[0] for row in table3(seed=7).rows}
        assert names == {"thunderbird", "make", "grep", "xmms",
                         "mplayer", "acroread"}


class TestRendering:
    def test_render_table(self):
        text = render_table(table1())
        assert "Hitachi" in text
        assert "2.0W" in text
        # header + separator + 7 rows
        assert len(text.splitlines()) == 10

    def test_render_figure_and_csv(self):
        from repro.core.telemetry import RunResult
        from repro.experiments.figures import FigureResult

        def result(energy):
            return RunResult(
                policy="P", end_time=10.0, foreground_time=10.0,
                disk_energy=energy / 2, wnic_energy=energy / 2,
                requests=1, device_requests={}, device_bytes={},
                cache_hit_ratio=0.0, disk_spinups=0, disk_spindowns=0,
                wnic_wakeups=0)

        points = [SweepPoint(policy="P", latency=l, bandwidth_bps=1e6,
                             result=result(100.0 + i))
                  for i, l in enumerate((0.0, 0.01))]
        fig = FigureResult(figure_id="figX", title="demo",
                           workload="w", by_latency={"P": points})
        text = render_figure(fig)
        assert "figX" in text
        assert "latency(ms)" in text
        assert "100.0" in text and "101.0" in text

        csv = sweep_to_csv({"P": points})
        lines = csv.strip().splitlines()
        assert lines[0] == "policy,latency_ms,bandwidth_mbps,energy_j,time_s"
        assert len(lines) == 3
