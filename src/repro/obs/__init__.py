"""repro.obs — structured observability for the verification stack.

Three cooperating pieces, all optional and all off by default:

* **Metrics** (:class:`MetricsRegistry`): counters, gauges and timing
  histograms with p50/p95/max, snapshot/merge-able across the fork-pool
  worker boundary;
* **Tracing** (:func:`get_recorder` / ``rec.span(...)`` /
  ``rec.event(...)``): span and point events streamed to a JSONL file,
  summarized by ``repro stats``;
* **Progress** (:class:`CampaignProgress`): the campaign's one-line
  rate/ETA/verdict report, a printing view of the live telemetry fold
  (:class:`CampaignSnapshot`) fed by the ``cell.finished`` events.

The recorder is the one event stream: ``rec.event(name, **fields)``
writes ``{"ts", "kind": "event", "name", **fields}`` to the trace and
hands the same dict to every subscriber — the progress line and the
live telemetry (:class:`LiveTelemetry`: ``status.json``,
``events.jsonl``, ``repro watch``, ``/metrics``) — so they all count
the same events.

On top of those sit the cross-run pieces (PR 3): the **ledger**
(:mod:`repro.obs.ledger` — durable per-run records under
``.repro/runs/``), the **HTML dashboard**
(:func:`render_html_report`, ``repro report``) and **regression
comparison** (:func:`compare_records`, ``repro compare`` and the CI
gate in ``benchmarks/regression.py``).

The default recorder is a shared no-op whose calls cost a couple of
attribute lookups, so the instrumentation threaded through
:mod:`repro.core`, :mod:`repro.ode` and :mod:`repro.verify` is free
unless a real :class:`Recorder` is installed (``set_recorder`` /
``use_recorder``). The CLI installs one for every campaign, since the
run summary's cell times come from its metrics; only ``--trace-out``
makes it write a trace file.
"""

from .ledger import (
    RunRecord,
    git_revision,
    latest_run,
    ledger_root,
    list_runs,
    load_run,
    new_run_id,
    phases_from_metrics,
    query_runs,
    record_from_report,
    record_run,
)
from .live import (
    CampaignSnapshot,
    HeartbeatReporter,
    LiveStatusWriter,
    LiveTelemetry,
    MetricsServer,
    NodeState,
    TelemetrySettings,
    format_eta,
    list_live_runs,
    live_root,
    prune_stale_runs,
    read_status,
    render_prometheus,
    render_watch,
    write_status_atomic,
)
from .metrics import MetricsRegistry, TimingHistogram
from .progress import CampaignProgress
from .regression import (
    Comparison,
    PhaseDelta,
    compare_records,
    render_comparison,
)
from .report_html import (
    render_flamegraph_svg,
    render_html_report,
    render_phase_share_svg,
)
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
    worker_trace_path,
)
from .stats import (
    PHASE_SPANS,
    TraceSummary,
    render_stats,
    summarize_trace,
    summarize_trace_file,
)
from .trace import merge_traces, read_trace, write_events

__all__ = [
    "CampaignProgress",
    "CampaignSnapshot",
    "Comparison",
    "HeartbeatReporter",
    "LiveStatusWriter",
    "LiveTelemetry",
    "MetricsRegistry",
    "MetricsServer",
    "NodeState",
    "NULL_RECORDER",
    "NullRecorder",
    "PHASE_SPANS",
    "PhaseDelta",
    "Recorder",
    "RunRecord",
    "TelemetrySettings",
    "TimingHistogram",
    "TraceSummary",
    "compare_records",
    "format_eta",
    "get_recorder",
    "git_revision",
    "latest_run",
    "ledger_root",
    "list_live_runs",
    "list_runs",
    "live_root",
    "load_run",
    "merge_traces",
    "new_run_id",
    "phases_from_metrics",
    "prune_stale_runs",
    "query_runs",
    "read_status",
    "read_trace",
    "record_from_report",
    "record_run",
    "render_comparison",
    "render_flamegraph_svg",
    "render_html_report",
    "render_phase_share_svg",
    "render_prometheus",
    "render_stats",
    "render_watch",
    "set_recorder",
    "summarize_trace",
    "summarize_trace_file",
    "use_recorder",
    "worker_trace_path",
    "write_events",
    "write_status_atomic",
]
