"""Unit tests for span recording and the zero-overhead disabled path."""

import time

from repro.telemetry.spans import (
    NULL_SPAN,
    NullSpanRecorder,
    Span,
    SpanRecorder,
    proc_rss_bytes,
)


def test_span_records_name_cat_tid_args():
    rec = SpanRecorder(source="t")
    with rec.span("work", cat="compute", tid=3, superstep=7):
        pass
    (s,) = rec.spans
    assert s.name == "work"
    assert s.cat == "compute"
    assert s.tid == 3
    assert s.args == {"superstep": 7}
    assert s.dur >= 0.0


def test_nested_spans_close_inner_first():
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner", cat="compute"):
            pass
    assert [s.name for s in rec.spans] == ["inner", "outer"]
    outer = rec.spans[1]
    inner = rec.spans[0]
    assert outer.ts <= inner.ts
    assert outer.ts + outer.dur >= inner.ts + inner.dur


def test_span_duration_measures_wall_time():
    rec = SpanRecorder()
    with rec.span("sleep"):
        time.sleep(0.02)
    assert rec.spans[0].dur >= 0.02


def test_note_attaches_args_mid_span():
    rec = SpanRecorder()
    with rec.span("step", records=0) as sp:
        sp.note(records=42, virtual_s=0.5)
    assert rec.spans[0].args == {"records": 42, "virtual_s": 0.5}


def test_manual_enter_exit_protocol():
    # engines use this for large loop bodies
    rec = SpanRecorder()
    sp = rec.span("step", cat="superstep", tid=-1)
    sp.__enter__()
    sp.note(total=9)
    sp.__exit__(None, None, None)
    assert rec.spans[0].args == {"total": 9}


def test_span_survives_exception_in_body():
    rec = SpanRecorder()
    try:
        with rec.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert [s.name for s in rec.spans] == ["boom"]


def test_sink_receives_spans_and_keep_false_drops_local():
    shipped = []
    rec = SpanRecorder(sink=shipped.append, keep=False)
    with rec.span("a"):
        pass
    assert rec.spans == []
    assert [s.name for s in shipped] == ["a"]


def test_instants_and_totals():
    rec = SpanRecorder()
    rec.instant("recovery", tid=1, superstep=4)
    with rec.span("a", cat="compute"):
        pass
    with rec.span("b", cat="barrier"):
        pass
    assert len(rec.instants) == 1
    assert rec.instants[0][2] == "recovery"
    assert rec.total() == rec.total("compute") + rec.total("barrier")
    assert set(rec.by_cat()) == {"compute", "barrier"}


def test_to_event_schema():
    s = Span(name="w", cat="compute", ts=10.0, dur=0.5, pid=1, tid=2, args={"k": 1})
    ev = s.to_event(t0=10.0)
    assert ev == {
        "name": "w", "cat": "compute", "ph": "X",
        "ts": 0.0, "dur": 0.5e6, "pid": 1, "tid": 2, "args": {"k": 1},
    }


# ------------------------------------------------------------- disabled path
def test_null_recorder_hands_out_the_shared_singleton():
    rec = NullSpanRecorder()
    a = rec.span("x", cat="compute", tid=1, arg=1)
    b = rec.span("y")
    assert a is NULL_SPAN and b is NULL_SPAN  # no per-call allocation


def test_null_span_supports_full_protocol():
    with NULL_SPAN as sp:
        sp.note(anything=1)  # must be accepted and ignored


def test_null_recorder_accumulates_nothing():
    rec = NullSpanRecorder()
    with rec.span("x"):
        pass
    rec.instant("mark")
    rec.add(Span("a", "b", 0, 0, 0, 0))
    assert rec.spans == []
    assert rec.instants == []
    assert rec.total() == 0.0
    assert rec.by_cat() == {}
    assert rec.enabled is False


# ------------------------------------------------------------- process rss
def test_proc_rss_bytes_is_plausible_and_monotone_under_allocation():
    before = proc_rss_bytes()
    assert 1 << 20 < before < 1 << 42  # more than 1 MB, less than 4 TB
    ballast = bytearray(32 << 20)  # touch 32 MB so it is actually resident
    ballast[::4096] = b"x" * len(ballast[::4096])
    after = proc_rss_bytes()
    del ballast
    assert after >= before
