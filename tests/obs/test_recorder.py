"""Recorder semantics: no-op default, spans, JSONL traces, merging."""

import json

from repro.obs import (
    NULL_RECORDER,
    Recorder,
    get_recorder,
    merge_traces,
    read_trace,
    set_recorder,
    summarize_trace,
    use_recorder,
    worker_trace_path,
)


class TestNullRecorder:
    def test_default_recorder_is_noop(self):
        rec = get_recorder()
        assert rec is NULL_RECORDER
        assert not rec.enabled

    def test_noop_calls_are_inert(self):
        rec = NULL_RECORDER
        with rec.span("anything", step=3):
            pass
        rec.event("e", a=1)
        rec.inc("c")
        rec.observe("h", 1.0)
        rec.set_gauge("g", 2.0)
        rec.flush()
        # No state anywhere: the null recorder has no metrics registry.
        assert not hasattr(rec, "metrics")

    def test_span_reuses_singleton(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b", x=1)


class TestRecorder:
    def test_span_records_metric_and_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        with rec.span("integrate", step=4, command=2):
            pass
        rec.event("cache.corrupt", path="x.npz")
        rec.close()

        events = list(read_trace(trace))
        assert len(events) == 2
        span = events[0]
        assert span["kind"] == "span"
        assert span["name"] == "integrate"
        assert span["step"] == 4
        assert span["dur"] >= 0.0
        assert events[1]["name"] == "cache.corrupt"
        assert rec.metrics.histograms["integrate.seconds"].count == 1

    def test_metrics_only_recorder_writes_no_file(self, tmp_path):
        rec = Recorder()
        with rec.span("x"):
            pass
        rec.inc("n")
        assert rec.metrics.counters["n"] == 1
        rec.close()

    def test_use_recorder_scopes_and_restores(self):
        rec = Recorder()
        with use_recorder(rec):
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous(self):
        rec = Recorder()
        previous = set_recorder(rec)
        try:
            assert previous is NULL_RECORDER
            assert get_recorder() is rec
        finally:
            set_recorder(None)
        assert get_recorder() is NULL_RECORDER


class TestTraceRoundtripAndMerge:
    def test_jsonl_roundtrip_skips_torn_tail(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        rec = Recorder(trace_path=trace)
        for i in range(5):
            with rec.span("step", i=i):
                pass
        rec.close()
        # Simulate a torn final write from a killed process.
        with open(trace, "a") as out:
            out.write('{"ts": 1.0, "kind": "span", "na')
        events = list(read_trace(trace))
        assert len(events) == 5
        assert [e["i"] for e in events] == list(range(5))

    def test_parent_merges_worker_files(self, tmp_path):
        parent = tmp_path / "trace.jsonl"
        with open(parent, "w") as out:
            out.write(json.dumps({"ts": 1.0, "kind": "event", "name": "parent"}) + "\n")
        workers = []
        for pid in (111, 222):
            wpath = worker_trace_path(parent, pid)
            with open(wpath, "w") as out:
                out.write(
                    json.dumps(
                        {"ts": 2.0 + pid, "kind": "span", "name": "cell", "dur": 0.1,
                         "pid": pid}
                    )
                    + "\n"
                )
            workers.append(wpath)

        merged = merge_traces(parent, workers, delete_sources=True)
        assert merged == 2
        assert not any(w.exists() for w in workers)
        events = list(read_trace(parent))
        assert len(events) == 3
        pids = {e.get("pid") for e in events if e.get("kind") == "span"}
        assert pids == {111, 222}

    def test_summarize_trace_phases(self):
        events = [
            {"ts": 0.0, "kind": "span", "name": "integrate", "dur": 0.2},
            {"ts": 0.5, "kind": "span", "name": "integrate", "dur": 0.4},
            {"ts": 1.0, "kind": "span", "name": "controller", "dur": 0.1},
            {"ts": 1.5, "kind": "span", "name": "cell", "dur": 0.9, "cell_id": "c-7"},
            {"ts": 2.0, "kind": "event", "name": "cache.corrupt"},
        ]
        summary = summarize_trace(events)
        assert summary.events == 5
        assert summary.spans["integrate"].count == 2
        assert summary.spans["integrate"].total == 0.6000000000000001
        assert summary.slowest_cells == [(0.9, "c-7")]
        assert summary.event_counts["cache.corrupt"] == 1
        assert summary.wall_seconds == 2.0
