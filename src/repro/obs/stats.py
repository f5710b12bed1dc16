"""Trace/metrics summarization backing the ``repro stats`` subcommand.

Reads a JSONL trace (and optionally a metrics snapshot) and answers the
operational questions a long campaign raises: where did the time go
(per-phase breakdown with p50/p95), which cells were slowest, how much
joining/refinement happened, did the artifact cache actually hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .metrics import TimingHistogram

#: Span names that constitute the per-step phase breakdown, in display
#: order (matching the reach loop: integrate -> controller -> join, and
#: the runner's refinement recursion).
PHASE_SPANS = ("integrate", "controller", "join", "refine")


@dataclass
class TraceSummary:
    """Aggregated view of one trace."""

    events: int = 0
    spans: dict[str, TimingHistogram] = field(default_factory=dict)
    event_counts: dict[str, int] = field(default_factory=dict)
    #: (duration, cell_id) of "cell" spans, slowest first.
    slowest_cells: list[tuple[float, str]] = field(default_factory=list)
    first_ts: float | None = None
    last_ts: float | None = None
    #: Malformed/torn JSONL lines skipped while reading the file.
    malformed_lines: int = 0

    @property
    def wall_seconds(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return self.last_ts - self.first_ts


def summarize_trace(events: Iterable[dict], top_cells: int = 10) -> TraceSummary:
    """Fold a stream of trace events into a :class:`TraceSummary`."""
    summary = TraceSummary()
    cells: list[tuple[float, str]] = []
    for event in events:
        summary.events += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if summary.first_ts is None or ts < summary.first_ts:
                summary.first_ts = float(ts)
            if summary.last_ts is None or ts > summary.last_ts:
                summary.last_ts = float(ts)
        name = event.get("name", "?")
        if event.get("kind") == "span":
            duration = float(event.get("dur", 0.0))
            hist = summary.spans.get(name)
            if hist is None:
                hist = summary.spans[name] = TimingHistogram()
            hist.observe(duration)
            if name == "cell":
                cells.append((duration, str(event.get("cell_id", "?"))))
        else:
            summary.event_counts[name] = summary.event_counts.get(name, 0) + 1
    cells.sort(reverse=True)
    summary.slowest_cells = cells[:top_cells]
    return summary


def summarize_trace_file(path: str | Path, top_cells: int = 10) -> TraceSummary:
    """Summarize a trace file, counting (not crashing on) malformed
    lines — partially-written traces from killed campaigns are normal."""
    from .trace import read_trace

    dropped = [0]

    def count(_lineno, _line):
        dropped[0] += 1

    summary = summarize_trace(
        read_trace(path, on_malformed=count), top_cells=top_cells
    )
    summary.malformed_lines = dropped[0]
    return summary


def _cache_hit_rates(counters: dict[str, float]) -> list[tuple[str, float, float, float]]:
    """(name, hits, misses, rate) for every ``*.hit``/``*.miss`` pair."""
    rows = []
    prefixes = {
        name[: -len(".hit")] for name in counters if name.endswith(".hit")
    } | {name[: -len(".miss")] for name in counters if name.endswith(".miss")}
    for prefix in sorted(prefixes):
        hits = counters.get(prefix + ".hit", 0.0)
        misses = counters.get(prefix + ".miss", 0.0)
        total = hits + misses
        rows.append((prefix, hits, misses, hits / total if total else 0.0))
    return rows


def render_stats(
    summary: TraceSummary,
    metrics_snapshot: dict | None = None,
) -> str:
    """Human-readable report: phases, slowest cells, counters."""
    lines: list[str] = []

    lines.append(f"events: {summary.events}")
    if summary.malformed_lines:
        lines.append(
            f"malformed lines skipped: {summary.malformed_lines} "
            "(torn/partial writes are tolerated)"
        )
    if summary.wall_seconds:
        lines.append(f"trace wall time: {summary.wall_seconds:.2f}s")

    # Phase breakdown: the canonical phases first, then anything else.
    named = [p for p in PHASE_SPANS if p in summary.spans]
    other = sorted(n for n in summary.spans if n not in PHASE_SPANS)
    ordered = named + other
    if ordered:
        total_time = sum(summary.spans[n].total for n in ordered)
        lines.append("")
        lines.append("phase breakdown (span time):")
        header = (
            f"  {'phase':<12} {'count':>8} {'total s':>10} {'share':>6} "
            f"{'p50 ms':>9} {'p95 ms':>9} {'max ms':>9}"
        )
        lines.append(header)
        for name in ordered:
            hist = summary.spans[name]
            share = 100.0 * hist.total / total_time if total_time else 0.0
            lines.append(
                f"  {name:<12} {hist.count:>8} {hist.total:>10.3f} "
                f"{share:>5.1f}% {hist.p50 * 1e3:>9.3f} "
                f"{hist.p95 * 1e3:>9.3f} {hist.max_value * 1e3:>9.3f}"
            )

    if summary.slowest_cells:
        lines.append("")
        lines.append("slowest cells:")
        for duration, cell_id in summary.slowest_cells:
            lines.append(f"  {duration:>9.3f}s  {cell_id}")

    recovery = [
        ("worker.crash", "worker crashes"),
        ("worker.respawn", "worker respawns"),
        ("worker.killed", "workers killed (stuck past budget)"),
        ("cell.timeout", "cells timed out"),
        ("cell.error", "cells aborted on exception"),
        ("campaign.interrupted", "campaign interruptions"),
        ("metrics.corrupt_payload", "corrupt metric payloads dropped"),
        ("journal.malformed_line", "malformed journal lines skipped"),
    ]
    recovery_rows = [
        (label, summary.event_counts[name])
        for name, label in recovery
        if summary.event_counts.get(name)
    ]
    if recovery_rows:
        lines.append("")
        lines.append("fault recovery:")
        for label, count in recovery_rows:
            lines.append(f"  {label}: {count}")

    if summary.event_counts:
        lines.append("")
        lines.append("events by name:")
        for name in sorted(summary.event_counts):
            lines.append(f"  {name}: {summary.event_counts[name]}")

    if metrics_snapshot:
        counters = metrics_snapshot.get("counters", {})
        if counters:
            lines.append("")
            lines.append("counters:")
            for name in sorted(counters):
                value = counters[name]
                rendered = f"{value:g}"
                lines.append(f"  {name}: {rendered}")
            cache_rows = _cache_hit_rates(counters)
            if cache_rows:
                lines.append("")
                lines.append("cache hit rates:")
                for prefix, hits, misses, rate in cache_rows:
                    lines.append(
                        f"  {prefix}: {rate:.1%} ({hits:g} hit / {misses:g} miss)"
                    )
        histograms = metrics_snapshot.get("histograms", {})
        if histograms:
            lines.append("")
            lines.append("metric histograms:")
            for name in sorted(histograms):
                hist = TimingHistogram.from_dict(histograms[name])
                lines.append(
                    f"  {name}: n={hist.count} mean={hist.mean:.6f} "
                    f"p50={hist.p50:.6f} p95={hist.p95:.6f} max={hist.max_value:.6f}"
                )
    return "\n".join(lines)
