"""ASCII rendering and CSV export of experiment results.

The harness has no plotting dependency; figures render as aligned
energy tables (one row per sweep point, one column per policy) — enough
to read off every ordering and crossover the paper reports — and can be
exported as CSV for external plotting.
"""

from __future__ import annotations

import io
from collections.abc import Sequence

from repro.experiments.figures import FaultPanelResult, FigureResult
from repro.experiments.runner import SweepPoint
from repro.experiments.tables import TableData


def _render_grid(header: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Minimal aligned-column table."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        pairs = zip(cells, widths, strict=True)
        return "  ".join(c.ljust(w) for c, w in pairs).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_table(table: TableData) -> str:
    """Render a :class:`TableData` with its title."""
    return f"{table.title}\n{_render_grid(table.header, table.rows)}"


def _panel_rows(curves: dict[str, list[SweepPoint]],
                x_label: str) -> tuple[list[str], list[list[str]]]:
    policies = list(curves)
    any_curve = curves[policies[0]]
    header = [x_label] + [f"{p} (J)" for p in policies]
    rows: list[list[str]] = []
    for i, point in enumerate(any_curve):
        if x_label.startswith("latency"):
            x = f"{point.latency * 1e3:.0f}"
        else:
            x = f"{point.bandwidth_bps * 8 / 1e6:.1f}"
        row = [x]
        for p in policies:
            row.append(f"{curves[p][i].energy:.1f}")
        rows.append(row)
    return header, rows


def render_figure(figure: FigureResult) -> str:
    """Render both panels of a figure as aligned energy tables."""
    out = io.StringIO()
    out.write(f"=== {figure.figure_id}: {figure.title} ===\n")
    out.write(f"workload: {figure.workload}\n")
    if figure.by_latency:
        header, rows = _panel_rows(figure.by_latency, "latency(ms)")
        out.write(f"\n(a) energy vs WNIC latency @ 11 Mbps\n")
        out.write(_render_grid(header, rows) + "\n")
    if figure.by_bandwidth:
        header, rows = _panel_rows(figure.by_bandwidth, "bandwidth(Mbps)")
        out.write(f"\n(b) energy vs WNIC bandwidth @ 1 ms\n")
        out.write(_render_grid(header, rows) + "\n")
    return out.getvalue()


def render_fault_panel(panel: FaultPanelResult) -> str:
    """Render the fault panel: energy (and failovers) vs outage rate."""
    policies = list(panel.curves)
    header = ["outage(/s)"] + [f"{p} (J)" for p in policies]
    rows: list[list[str]] = []
    for i, rate in enumerate(panel.rates):
        row = [f"{rate:g}"]
        for p in policies:
            point = panel.curves[p][i]
            failovers = sum(point.result.fault_failovers.values())
            cell = f"{point.energy:.1f}"
            if failovers:
                cell += f" ({failovers} fo)"
            row.append(cell)
        rows.append(row)
    out = io.StringIO()
    out.write("=== fault panel: energy vs wireless outage rate ===\n")
    out.write(f"workload: {panel.workload}"
              "   (fo = mid-run device failovers)\n\n")
    out.write(_render_grid(header, rows) + "\n")
    return out.getvalue()


def fault_panel_to_csv(panel: FaultPanelResult) -> str:
    """CSV export of the fault panel."""
    out = io.StringIO()
    out.write("policy,outage_rate,energy_j,time_s,failovers,retries,"
              "spinup_failures\n")
    for policy, points in panel.curves.items():
        for rate, p in zip(panel.rates, points, strict=True):
            r = p.result
            out.write(f"{policy},{rate:g},{p.energy:.3f},"
                      f"{p.time:.3f},{sum(r.fault_failovers.values())},"
                      f"{sum(r.fault_retries.values())},"
                      f"{r.disk_spinup_failures}\n")
    return out.getvalue()


def sweep_to_csv(curves: dict[str, list[SweepPoint]]) -> str:
    """CSV export: policy,latency_ms,bandwidth_mbps,energy_j,time_s."""
    out = io.StringIO()
    out.write("policy,latency_ms,bandwidth_mbps,energy_j,time_s\n")
    for policy, points in curves.items():
        for p in points:
            out.write(f"{policy},{p.latency * 1e3:.3f},"
                      f"{p.bandwidth_bps * 8 / 1e6:.3f},"
                      f"{p.energy:.3f},{p.time:.3f}\n")
    return out.getvalue()
