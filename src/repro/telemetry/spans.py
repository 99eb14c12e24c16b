"""Nestable wall-clock spans with a zero-overhead disabled path.

A *span* is one timed region of execution — a superstep, a barrier wait, a
checkpoint write — with a name, a category (used by the exporters and the
``repro inspect`` summariser to bucket time), a thread lane (``tid``, by
convention the BSP rank), and free-form args.  Spans nest; the recorder does
not track parentage explicitly because Chrome's trace viewer reconstructs
nesting from containment on the same ``(pid, tid)`` lane.

Timestamps are ``time.monotonic()`` — on Linux a single system-wide clock,
so spans recorded in different worker processes line up on one timeline
without cross-process clock agreement.

The disabled path matters more than the enabled one: telemetry defaults to
*off* everywhere, and the instrumentation sits inside superstep loops.  The
no-op recorder hands out one shared reusable context manager whose
``__enter__``/``__exit__`` do nothing — no allocation, no clock read, no
branch in user code — so a disabled run is indistinguishable from an
uninstrumented one (gated by ``benchmarks/bench_hotpaths.py``).

Examples
--------
>>> rec = SpanRecorder(source="demo")
>>> with rec.span("outer", cat="run"):
...     with rec.span("inner", cat="compute", tid=3, step=1):
...         pass
>>> [s.name for s in rec.spans]   # completion order: inner closes first
['inner', 'outer']
>>> rec.spans[0].tid, rec.spans[0].args["step"]
(3, 1)
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Span", "SpanRecorder", "NullSpanRecorder", "NULL_SPAN", "proc_rss_bytes"]


def proc_rss_bytes() -> int:
    """Current resident-set size of this process, in bytes.

    Reads ``/proc/self/statm`` (Linux; one small read, no allocation worth
    naming) and falls back to ``ru_maxrss`` — the *peak*, the closest
    portable notion — elsewhere.  The engines note it as ``rss_bytes`` on
    one span per superstep (bsp ``superstep``, mp worker ``compute``) and
    on the mp coordinator's ``job.collect``, which is how ``repro inspect``
    shows a run's memory trajectory per lane.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes
        return peak if sys.platform == "darwin" else peak * 1024


@dataclass
class Span:
    """One completed timed region."""

    name: str
    cat: str
    ts: float  # monotonic start, seconds
    dur: float  # duration, seconds
    pid: int
    tid: int
    args: dict[str, Any] = field(default_factory=dict)

    def to_event(self, t0: float = 0.0, scale: float = 1e6) -> dict:
        """Chrome trace-event ``"X"`` dict (timestamps in microseconds)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": (self.ts - t0) * scale,
            "dur": self.dur * scale,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }


class _LiveSpan:
    """Context manager for one in-flight span (one per ``with`` statement)."""

    __slots__ = ("_rec", "_name", "_cat", "_tid", "_args", "_t0")

    def __init__(self, rec: "SpanRecorder", name: str, cat: str, tid: int, args: dict):
        self._rec = rec
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        self._t0 = time.monotonic()
        return self

    def note(self, **args: Any) -> None:
        """Attach args discovered while the span is open (e.g. totals)."""
        self._args.update(args)

    def __exit__(self, *exc: Any) -> None:
        t1 = time.monotonic()
        self._rec._finish(
            Span(
                name=self._name,
                cat=self._cat,
                ts=self._t0,
                dur=t1 - self._t0,
                pid=self._rec.pid,
                tid=self._tid,
                args=self._args,
            )
        )


class SpanRecorder:
    """Collect completed spans (and instant events) for one process.

    Parameters
    ----------
    source:
        Free-form origin label (``"coordinator"``, ``"rank3"``), carried in
        exported metadata.
    sink:
        Optional callable invoked with each completed :class:`Span` *instead
        of* (when ``keep=False``) or *in addition to* local retention.  The
        mp workers use a sink that publishes spans into the shared-memory
        event ring the moment they close, so a crashed worker's history
        survives it.
    keep:
        Retain spans in :attr:`spans` (the default).  Workers publishing via
        ``sink`` switch this off so their local list cannot grow unbounded.
    """

    enabled = True

    def __init__(
        self,
        source: str = "",
        sink: Callable[[Span], None] | None = None,
        keep: bool = True,
    ) -> None:
        self.source = source
        self.sink = sink
        self.keep = keep
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: instant events: ``(monotonic_ts, tid, name, args)``
        self.instants: list[tuple[float, int, str, dict]] = []

    def span(self, name: str, cat: str = "run", tid: int = 0, **args: Any):
        """Open a timed region; use as ``with rec.span(...):``."""
        return _LiveSpan(self, name, cat, tid, args)

    def instant(self, name: str, tid: int = 0, **args: Any) -> None:
        """Record a zero-duration timeline event (e.g. a recovery mark)."""
        self.instants.append((time.monotonic(), tid, name, args))

    def add(self, span: Span) -> None:
        """Adopt an externally produced span (collector drain path)."""
        self.spans.append(span)

    def _finish(self, span: Span) -> None:
        if self.keep:
            self.spans.append(span)
        if self.sink is not None:
            self.sink(span)

    # ------------------------------------------------------------- reporting
    def total(self, cat: str | None = None) -> float:
        """Sum of span durations, optionally restricted to one category."""
        return sum(s.dur for s in self.spans if cat is None or s.cat == cat)

    def by_cat(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.cat] = out.get(s.cat, 0.0) + s.dur
        return out


class _NullSpan:
    """The shared do-nothing context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def note(self, **args: Any) -> None:
        return None


#: The singleton no-op span — reused by every disabled ``span()`` call.
NULL_SPAN = _NullSpan()


class NullSpanRecorder:
    """Recorder whose every operation is a no-op (the disabled path)."""

    enabled = False
    pid = 0
    source = ""
    spans: list[Span] = []  # intentionally shared & never appended to
    instants: list[tuple[float, int, str, dict]] = []

    def span(self, name: str, cat: str = "run", tid: int = 0, **args: Any) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, tid: int = 0, **args: Any) -> None:
        return None

    def add(self, span: Span) -> None:
        return None

    def total(self, cat: str | None = None) -> float:
        return 0.0

    def by_cat(self) -> dict[str, float]:
        return {}
