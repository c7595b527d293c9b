"""Unified instrumentation layer: counters, events, self-profiling.

Four pieces (see docs/OBSERVABILITY.md):

* :class:`StatsRegistry` — hierarchical counter/gauge/histogram
  registry both engines dump into under one naming scheme
  (``core.*`` shared, ``diag.*`` / ``ooo.*`` / ``mem.*`` specific),
  with OpenMetrics text exposition (:func:`openmetrics_flat`).
* :class:`EventTracer` — ring-buffer-bounded structured event tracer
  with a Chrome ``trace_event`` exporter (opens in Perfetto).
* :class:`PhaseProfiler` — wall-clock self-profiling of the simulator.
* :mod:`repro.obs.telemetry` — the campaign-level JSONL run-event bus
  feeding the live ``--progress`` renderer
  (:mod:`repro.obs.progress`), the merged campaign Chrome trace, and
  the ``--metrics-port`` HTTP exposition.

The harness threads all of it through ``RunRecord.stats`` and the
telemetry stream so figure suites, sweeps and fault campaigns report
from the same counters.
"""

from repro.obs import telemetry

from repro.obs.bridge import (
    SHARED_CORE_COUNTERS,
    attach_tracer_names,
    collect_diag,
    collect_hierarchy,
    collect_iss,
    collect_ooo,
)
from repro.obs.events import EVENT_NAMES, EventTracer
from repro.obs.profile import (PhaseProfiler, export_iss_throughput,
                               export_throughput, gc_totals)
from repro.obs.progress import (
    CampaignProgress,
    MetricsServer,
    ProgressRenderer,
)
from repro.obs.registry import (
    HOST_STAT_PREFIXES,
    OPENMETRICS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    StatsRegistry,
    deterministic_view,
    format_flat,
    merge_flat,
    openmetrics_flat,
)
from repro.obs.telemetry import (
    TelemetryBus,
    campaign_trace,
    read_events,
)
from repro.obs.resilience import (
    resilience,
    resilience_snapshot,
    resilience_summary,
    reset_resilience,
)

__all__ = [
    "CampaignProgress",
    "Counter",
    "EVENT_NAMES",
    "EventTracer",
    "Gauge",
    "HOST_STAT_PREFIXES",
    "Histogram",
    "MetricsServer",
    "OPENMETRICS_CONTENT_TYPE",
    "PhaseProfiler",
    "ProgressRenderer",
    "SHARED_CORE_COUNTERS",
    "StatsRegistry",
    "TelemetryBus",
    "campaign_trace",
    "deterministic_view",
    "merge_flat",
    "openmetrics_flat",
    "read_events",
    "telemetry",
    "attach_tracer_names",
    "collect_diag",
    "collect_hierarchy",
    "collect_iss",
    "collect_ooo",
    "export_iss_throughput",
    "export_throughput",
    "format_flat",
    "gc_totals",
    "reset_resilience",
    "resilience",
    "resilience_snapshot",
    "resilience_summary",
]
