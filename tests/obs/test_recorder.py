"""Recorder semantics: no-op default, spans, JSONL traces, merging,
and the event subscribers (the campaign's one event stream)."""

import json
import sys
import threading
import time

import pytest

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


class TestEventSubscribers:
    def test_event_stamps_ts_kind_and_name(self, tmp_path):
        """A subscriber gets the trace's event dict: the same object the
        trace line serializes."""
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        seen = []
        rec.subscribe(seen.append)
        rec.event("cell.finished", worker=1, verdict_class="proved")
        rec.close()
        assert len(seen) == 1
        event = seen[0]
        assert event["kind"] == "event"
        assert event["name"] == "cell.finished"
        assert event["worker"] == 1
        assert event["ts"] == pytest.approx(time.time(), abs=5.0)
        assert trace.read_text() == json.dumps(event) + "\n"

    def test_fan_out_in_subscription_order(self):
        rec = Recorder()
        calls = []
        rec.subscribe(lambda event: calls.append(("first", event["name"])))
        rec.subscribe(lambda event: calls.append(("second", event["name"])))
        rec.event("a")
        rec.event("b")
        assert calls == [("first", "a"), ("second", "a"), ("first", "b"), ("second", "b")]

    def test_raising_subscriber_dropped_not_propagated(self):
        rec = Recorder()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        rec.subscribe(bad)
        rec.subscribe(seen.append)
        rec.event("a")
        rec.event("b")
        assert [e["name"] for e in seen] == ["a", "b"]
        assert rec.dropped_subscribers == 1

    def test_unsubscribe(self):
        rec = Recorder()
        seen = []
        rec.subscribe(seen.append)
        rec.unsubscribe(seen.append)
        rec.event("a")
        assert seen == []

    def test_concurrent_emitters_deliver_in_timestamp_order(self, tmp_path, monkeypatch):
        """An emitter parked between its timestamp and its write must
        not let a later-stamped event overtake it (a heartbeat thread and
        the main thread share one event stream)."""
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        seen = []
        queued = threading.Event()
        written = threading.Event()
        stamped = threading.Event()

        def subscriber(event):
            seen.append(event)
            if event["name"] == "second":
                written.set()

        rec.subscribe(subscriber)
        first = threading.Thread(target=rec.event, args=("first",))
        second = threading.Thread(target=rec.event, args=("second",))
        inner = rec._lock
        owner = []

        class TrackedLock:
            def __enter__(self):
                if threading.current_thread() is second:
                    queued.set()
                inner.acquire()
                owner.append(threading.get_ident())

            def __exit__(self, *exc):
                owner.pop()
                inner.release()

        class Clock:
            def __getattr__(self, name):
                return getattr(time, name)

            def time(self):
                if threading.current_thread() is second:
                    return 2.0
                if threading.current_thread() is not first:
                    return time.time()
                stamped.set()
                # Park until the second emitter has written, or, if this
                # thread stamps under the recorder lock (so the second
                # cannot write first), until the second is queued on it.
                holds_lock = bool(owner) and owner[-1] == threading.get_ident()
                assert (queued if holds_lock else written).wait(10.0)
                return 1.0

        rec._lock = TrackedLock()
        monkeypatch.setattr("repro.obs.recorder.time", Clock())
        first.start()
        assert stamped.wait(10.0)
        second.start()
        first.join(10.0)
        second.join(10.0)
        assert not first.is_alive() and not second.is_alive()
        rec._lock = inner
        rec.close()
        assert [(e["name"], e["ts"]) for e in seen] == [("first", 1.0), ("second", 2.0)]
        assert [(e["name"], e["ts"]) for e in read_trace(trace)] == [
            ("first", 1.0), ("second", 2.0),
        ]


    def test_many_emitters_share_one_ordered_stream(self, tmp_path):
        """More emitting threads than cores, switching often: no event
        is lost or torn, and the trace and a subscriber see the same
        events in the same, timestamp-ordered sequence."""
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        seen = []
        rec.subscribe(seen.append)
        threads, per_thread = 6, 300

        def emit(worker):
            for i in range(per_thread):
                rec.event("cell.dispatched", worker=worker, seq=i)
                with rec.span("tick", worker=worker):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=emit, args=(w,)) for w in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        rec.close()
        written = list(read_trace(trace))
        assert len(written) == 2 * threads * per_thread
        assert all(a["ts"] <= b["ts"] for a, b in zip(written, written[1:]))
        events = [e for e in written if e["kind"] == "event"]
        assert events == seen
        for worker in range(threads):
            mine = [e["seq"] for e in seen if e["worker"] == worker]
            assert mine == list(range(per_thread))


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

    def test_merge_trace_keeps_appending(self, tmp_path):
        """A recorder folds worker files into its own trace and goes on
        writing to the merged file."""
        parent = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=parent)
        worker = worker_trace_path(parent, 111)
        with open(worker, "w") as out:
            out.write(json.dumps({"ts": time.time(), "kind": "event", "name": "w"}) + "\n")
        rec.event("before")
        assert rec.merge_trace([worker]) == 1
        rec.event("after")
        rec.close()
        assert not worker.exists()
        events = list(read_trace(parent))
        assert [e["name"] for e in events] == ["w", "before", "after"]

    def test_heartbeats_reach_subscribers_not_the_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        seen = []
        rec.subscribe(seen.append)
        rec.event("worker.heartbeat", worker=0)
        rec.event("node.heartbeat", node="node-0")
        rec.event("cell.finished", worker=0)
        rec.close()
        assert [e["name"] for e in seen] == [
            "worker.heartbeat", "node.heartbeat", "cell.finished",
        ]
        assert [e["name"] for e in read_trace(trace)] == ["cell.finished"]

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
