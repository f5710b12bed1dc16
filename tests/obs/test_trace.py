"""Trace robustness and the cross-process merge path.

Covers the PR-1 pieces that shipped with thin coverage: worker trace
merging (timestamp ordering) and worker metric deltas, plus the
malformed-line accounting that `repro stats`/`report` rely on.
"""

import json

from repro.obs import (
    MetricsRegistry,
    merge_traces,
    read_trace,
    render_stats,
    summarize_trace_file,
    write_events,
)


def write_jsonl(path, events):
    with open(path, "w") as out:
        for event in events:
            out.write(json.dumps(event) + "\n")


class TestReadTraceRobustness:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_trace(tmp_path / "nope.jsonl")) == []

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as out:
            out.write(json.dumps({"ts": 1.0, "kind": "event", "name": "a"}) + "\n")
            out.write("{broken json\n")
            out.write("[1, 2, 3]\n")  # valid JSON, but not an event object
            out.write(json.dumps({"ts": 2.0, "kind": "event", "name": "b"}) + "\n")
            out.write('{"ts": 3.0, "kind": "ev')  # torn final line
        dropped = []
        events = list(read_trace(path, on_malformed=lambda n, s: dropped.append(n)))
        assert [e["name"] for e in events] == ["a", "b"]
        assert dropped == [2, 3, 5]

    def test_summarize_counts_malformed_and_render_mentions_them(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as out:
            out.write(json.dumps(
                {"ts": 1.0, "kind": "span", "name": "integrate", "dur": 0.1}
            ) + "\n")
            out.write("half a li")
        summary = summarize_trace_file(path)
        assert summary.events == 1
        assert summary.malformed_lines == 1
        assert "malformed lines skipped: 1" in render_stats(summary)

    def test_empty_file_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        summary = summarize_trace_file(path)
        assert summary.events == 0
        assert summary.malformed_lines == 0

    def test_undecodable_bytes_do_not_crash(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'\xff\xfe{"ts": 1}\n' + json.dumps(
            {"ts": 2.0, "kind": "event", "name": "ok"}
        ).encode() + b"\n")
        events = list(read_trace(path))
        assert any(e.get("name") == "ok" for e in events)


class TestMergeTraces:
    def test_merge_orders_globally_by_timestamp(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_jsonl(a, [{"ts": t, "kind": "event", "name": "a"} for t in (1.0, 4.0)])
        write_jsonl(b, [{"ts": t, "kind": "event", "name": "b"} for t in (2.0, 3.0)])
        target = tmp_path / "merged.jsonl"
        count = merge_traces(target, [a, b])
        assert count == 4
        stamps = [e["ts"] for e in read_trace(target)]
        assert stamps == sorted(stamps) == [1.0, 2.0, 3.0, 4.0]

    def test_merge_appends_to_existing_target(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        write_jsonl(target, [{"ts": 0.5, "kind": "event", "name": "parent"}])
        worker = tmp_path / "w.jsonl"
        write_jsonl(worker, [{"ts": 1.5, "kind": "event", "name": "w"}])
        merge_traces(target, [worker])
        assert [e["name"] for e in read_trace(target)] == ["parent", "w"]

    def test_target_lines_join_the_merge(self, tmp_path):
        """The parent's own lines are merged too, so the result never
        steps back in ``ts``; the count is the sources' events."""
        target = tmp_path / "trace.jsonl"
        write_jsonl(target, [{"ts": t, "kind": "event", "name": "parent"} for t in (1.0, 3.0)])
        worker = tmp_path / "w.jsonl"
        write_jsonl(worker, [{"ts": 2.0, "kind": "event", "name": "w"}])
        assert merge_traces(target, [worker]) == 1
        assert [e["ts"] for e in read_trace(target)] == [1.0, 2.0, 3.0]

    def test_delete_sources(self, tmp_path):
        worker = tmp_path / "w.jsonl"
        write_jsonl(worker, [{"ts": 1.0, "kind": "event", "name": "w"}])
        merge_traces(tmp_path / "out.jsonl", [worker], delete_sources=True)
        assert not worker.exists()

    def test_merge_tolerates_malformed_source_lines(self, tmp_path):
        worker = tmp_path / "w.jsonl"
        with open(worker, "w") as out:
            out.write("garbage\n")
            out.write(json.dumps({"ts": 1.0, "kind": "event", "name": "ok"}) + "\n")
        count = merge_traces(tmp_path / "out.jsonl", [worker])
        assert count == 1

    def test_write_events_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "t.jsonl"
        assert write_events(target, [{"ts": 1.0}]) == 1
        assert target.exists()


class TestWorkerMetricDeltas:
    """The drain/merge protocol the fork-pool workers use."""

    def test_drained_deltas_are_disjoint_and_merge_to_totals(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.inc("reach.integrations", 5)
        worker.observe("cell.seconds", 0.25)
        parent.merge_snapshot(worker.drain())
        # Second cell on the same worker: the drain reset means no
        # double counting when the parent folds the next payload in.
        worker.inc("reach.integrations", 3)
        worker.observe("cell.seconds", 0.5)
        parent.merge_snapshot(worker.drain())
        assert parent.counters["reach.integrations"] == 8
        hist = parent.histograms["cell.seconds"]
        assert hist.count == 2
        assert hist.total == 0.75

    def test_empty_drain_merges_as_noop(self):
        worker = MetricsRegistry()
        worker.drain()
        parent = MetricsRegistry()
        parent.inc("x", 1)
        parent.merge_snapshot(worker.drain())
        assert parent.counters == {"x": 1.0}
