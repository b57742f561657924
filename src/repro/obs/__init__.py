"""Observability: spans, counters, gauges, vitals, and exporters.

Usage at an instrumentation site (all no-ops while telemetry is off)::

    from repro import obs

    with obs.span("gemm"):
        rows, contenders, idsum = active_backend().step_products(reach, coins)
    obs.count("engine.resolve_step_calls")

Usage at a collection site::

    with obs.capture() as tel:
        run_trials(...)
    manifest["telemetry"] = tel.snapshot()

See :mod:`repro.obs.telemetry` for the merge contract and
:mod:`repro.obs.export` for rendering.
"""

from .export import (
    chrome_trace_events,
    render_telemetry,
    stage_rows,
    write_chrome_trace,
)
from .telemetry import (
    SPAN_STAGES,
    Telemetry,
    active,
    capture,
    count,
    empty_snapshot,
    enabled,
    gauge_max,
    merge_snapshots,
    peak_rss_kb,
    span,
    start,
    stop,
)

__all__ = [
    "SPAN_STAGES",
    "Telemetry",
    "active",
    "capture",
    "chrome_trace_events",
    "count",
    "empty_snapshot",
    "enabled",
    "gauge_max",
    "merge_snapshots",
    "peak_rss_kb",
    "render_telemetry",
    "span",
    "stage_rows",
    "start",
    "stop",
    "write_chrome_trace",
]
