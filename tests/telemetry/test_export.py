"""Unit tests for the Chrome trace exporter, inspect, and the collector."""

from repro.telemetry.collector import RingCollector, Telemetry
from repro.telemetry.export import (
    chrome_trace,
    inspect_summary,
    load_chrome_trace,
    spans_to_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.ringbuf import EventRing
from repro.telemetry.spans import Span


def _span(name="w", cat="compute", ts=100.0, dur=0.5, tid=0, **args):
    return Span(name=name, cat=cat, ts=ts, dur=dur, pid=0, tid=tid, args=args)


# ------------------------------------------------------------- trace schema
def test_spans_to_events_rebases_to_earliest_and_sorts():
    events = spans_to_events(
        [_span(ts=105.0), _span(ts=100.0)],
        instants=[(102.0, 1, "mark", {"superstep": 3})],
    )
    assert [e["ts"] for e in events] == [0.0, 2e6, 5e6]
    mark = events[1]
    assert mark["ph"] == "i" and mark["s"] == "g"
    assert mark["args"] == {"superstep": 3}


def test_chrome_trace_merges_prebuilt_events():
    pre = {"name": "v", "cat": "compute", "ph": "X", "ts": 1.0, "dur": 2.0,
           "pid": 0, "tid": 0, "args": {}}
    trace = chrome_trace([_span()], events=[pre], metadata={"k": "v"})
    assert trace["metadata"]["k"] == "v"
    assert {e["name"] for e in trace["traceEvents"]} == {"w", "v"}
    assert validate_chrome_trace(trace) == []


def test_validate_catches_schema_violations():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    assert "traceEvents is empty" in validate_chrome_trace({"traceEvents": []})
    bad = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0.0, "pid": 0, "tid": 0},  # no dur
        {"name": "b", "ph": "?", "ts": 0.0, "pid": 0, "tid": 0},  # bad phase
        {"name": "c", "ph": "i", "ts": "soon", "pid": 0, "tid": 0},  # bad ts
    ]}
    errors = validate_chrome_trace(bad)
    assert any("without dur" in e for e in errors)
    assert any("unknown phase" in e for e in errors)
    assert any("non-numeric ts" in e for e in errors)


def test_write_and_load_round_trip(tmp_path):
    trace = chrome_trace([_span()], metadata={"source": "t"})
    path = write_chrome_trace(tmp_path / "t.json", trace)
    loaded = load_chrome_trace(path)
    assert loaded["metadata"]["source"] == "t"
    assert validate_chrome_trace(loaded) == []


def test_numpy_args_serialize(tmp_path):
    import numpy as np

    trace = chrome_trace([_span(records=np.int64(7), t=np.float64(0.5))])
    path = write_chrome_trace(tmp_path / "t.json", trace)
    args = load_chrome_trace(path)["traceEvents"][0]["args"]
    assert args["records"] == 7


# ------------------------------------------------------------------ inspect
def test_inspect_summary_buckets_and_warns():
    trace = chrome_trace(
        [
            _span("compute", "compute", ts=0.0, dur=1.0, tid=0),
            _span("exchange.write", "exchange", ts=1.0, dur=0.25, tid=0),
            _span("barrier.wait", "barrier", ts=1.25, dur=0.75, tid=0),
            _span("mp.run", "run", ts=0.0, dur=2.0, tid=-1),
        ],
        instants=[(0.5, 0, "recovery #1 from scratch", {"superstep": 3, "mark": True})],
        metadata={"dropped_events": 5},
    )
    text = inspect_summary(trace)
    assert "2 lanes" in text
    assert "tid -1 = coordinator" in text
    assert "barrier wait is 42.9%" in text  # 0.75 / (1.0 + 0.75)
    assert "warning: 5 telemetry events dropped" in text
    assert "mark @ superstep 3: recovery #1 from scratch" in text


def test_inspect_summary_empty_trace():
    assert "no duration events" in inspect_summary({"traceEvents": []})


def test_inspect_summary_rss_trajectory():
    trace = chrome_trace(
        [
            _span("compute", "compute", ts=0.0, dur=1.0, tid=0, rss_bytes=50e6),
            _span("compute", "compute", ts=1.0, dur=1.0, tid=0, rss_bytes=75e6),
            _span("compute", "compute", ts=0.0, dur=1.0, tid=1, rss_bytes=60e6),
            _span("mp.step", "run", ts=0.0, dur=2.0, tid=-1),  # no sample
        ]
    )
    text = inspect_summary(trace)
    # first and peak per lane; lanes without samples are simply absent
    assert "rss per lane (first->peak): 0: 50->75 MB, 1: 60->60 MB" in text


def test_inspect_summary_omits_rss_line_without_samples():
    trace = chrome_trace([_span("compute", "compute", ts=0.0, dur=1.0, tid=0)])
    assert "rss per lane" not in inspect_summary(trace)


# ------------------------------------------------------- collector plumbing
def test_collector_merges_ring_events_once():
    ring = EventRing(slots=64, slot_bytes=2048)
    try:
        worker = Telemetry.for_worker(ring, rank=2)
        with worker.span("compute", cat="compute", tid=2, superstep=1):
            pass
        worker.mark("respawned", superstep=1)
        assert worker.spans.spans == []  # shipped, not kept worker-side

        master = Telemetry()
        col = RingCollector(ring)
        col.drain()
        col.merge_into(master)
        assert [(s.name, s.tid, s.args) for s in master.spans.spans] == [
            ("compute", 2, {"superstep": 1})
        ]
        assert [name for _, _, name, _ in master.spans.instants] == ["respawned"]
        assert master.marks == [(1, "respawned")]
        col.merge_into(master)  # idempotent: nothing left to fold
        assert len(master.spans.spans) == 1
        assert len(master.spans.instants) == 1
        assert master.dropped_events == 0
    finally:
        ring.close()


def test_collector_counts_drops_and_torn_cells():
    ring = EventRing(slots=4, slot_bytes=256)
    try:
        worker = Telemetry.for_worker(ring, rank=0)
        for i in range(6):  # 2 evictions on a 4-slot ring
            worker.instant(f"e{i}")
        ring.put(b"not pickle")  # a torn cell (evicts one more instant)
        master = Telemetry()
        RingCollector(ring).merge_into(master)
        assert master.dropped_events == 4  # 3 evicted + 1 undecodable
        assert len(master.spans.instants) == 3
        assert master.to_chrome_trace()["metadata"]["dropped_events"] == 4
    finally:
        ring.close()
