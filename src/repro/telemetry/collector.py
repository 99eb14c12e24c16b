"""The :class:`Telemetry` facade and the cross-process collector.

One :class:`Telemetry` object represents one *observed run*: a metrics
registry, a span recorder, recovery marks, and a drop counter.  The
coordinator (or any in-process engine) writes into it directly; mp workers
get a derived instance (:meth:`Telemetry.for_worker`) whose spans and
cumulative metric snapshots are published into a shared-memory
:class:`~repro.telemetry.ringbuf.EventRing` the moment they happen, and a
:class:`RingCollector` on the coordinator side drains the ring — during the
run and after it — and folds everything back into the master object.

Crash-robustness falls out of the layering: the coordinator owns the ring,
workers publish *cumulative* metric snapshots (so latest-wins per source,
no double counting, and a lost snapshot only costs freshness), and spans are
published as they close — a ``SIGKILL``-ed worker's timeline survives up to
its last completed span.

Everything here is observation-only by construction: no RNG is touched, no
message content inspected, no scheduling decision taken.  The test-suite
asserts generation output is bit-identical with telemetry on and off on
every engine and every exchange.

Examples
--------
>>> tel = Telemetry()
>>> with tel.span("superstep", cat="superstep", step=1):
...     tel.counter("supersteps_total").inc()
>>> tel.counter("supersteps_total").total()
1.0
>>> len(tel.spans.spans)
1
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.telemetry.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.telemetry.ringbuf import EventRing
from repro.telemetry.spans import NULL_SPAN, NullSpanRecorder, Span, SpanRecorder

__all__ = ["Telemetry", "NullTelemetry", "NOOP_TELEMETRY", "RingCollector"]


class Telemetry:
    """Unified observability handle for one run.

    Pass an instance to :func:`repro.generate` (``telemetry=``), an engine
    constructor, or a :class:`~repro.mpsim.supervisor.Supervisor`; after the
    run it holds the merged spans and metrics of every participating process
    and can export them (:meth:`to_chrome_trace`, :meth:`to_prometheus`,
    :meth:`to_jsonl`).
    """

    enabled = True

    def __init__(self, source: str = "coordinator") -> None:
        self.source = source
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(source=source)
        #: recovery / lifecycle annotations: ``(superstep, label)`` pairs
        self.marks: list[tuple[int, str]] = []
        #: events lost in the cross-process ring (overflow/oversize)
        self.dropped_events = 0
        #: free-form run metadata stamped into exports
        self.meta: dict[str, Any] = {}
        self._ring: EventRing | None = None

    # -------------------------------------------------------------- recording
    def span(self, name: str, cat: str = "run", tid: int = 0, **args: Any):
        return self.spans.span(name, cat=cat, tid=tid, **args)

    def instant(self, name: str, tid: int = 0, **args: Any) -> None:
        self.spans.instant(name, tid=tid, **args)
        if self._ring is not None:
            self._publish(("instant", self.spans.instants[-1]))

    def mark(self, label: str, superstep: int = 0) -> None:
        """Annotate the run timeline (recoveries, respawns, phase changes)."""
        self.marks.append((int(superstep), str(label)))
        self.instant(label, superstep=int(superstep), mark=True)

    def counter(self, name: str, help: str = ""):
        return self.registry.counter(name, help)

    def gauge(self, name: str, help: str = ""):
        return self.registry.gauge(name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        return self.registry.histogram(name, help, buckets)

    # ------------------------------------------------------- worker publishing
    @classmethod
    def for_worker(cls, ring: EventRing, rank: int) -> "Telemetry":
        """A worker-process instance publishing into ``ring``.

        Spans are shipped as they close (and not retained locally, so a
        long job cannot grow worker memory); metrics stay in the worker's
        registry and travel as cumulative snapshots on :meth:`flush`.
        """
        tel = cls(source=f"rank{rank}")
        tel._ring = ring
        tel.spans = SpanRecorder(
            source=tel.source,
            sink=lambda span: tel._publish(("span", span)),
            keep=False,
        )
        return tel

    def _publish(self, event: tuple) -> None:
        if self._ring is None:
            return
        try:
            self._ring.put(pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:  # pragma: no cover - ring torn down under us
            pass

    def flush(self) -> None:
        """Publish this process's cumulative metric snapshot (workers only)."""
        if self._ring is not None:
            self._publish(("metrics", self.source, self.registry.snapshot()))

    # ------------------------------------------------------------- reporting
    def record(self) -> dict:
        """One merged, JSON-able run record (used by the JSONL exporter)."""
        from repro.telemetry.export import _jsonable, spans_to_events

        return {
            "schema": "repro-telemetry/v1",
            "source": self.source,
            "meta": dict(self.meta),
            "dropped_events": int(self.dropped_events),
            "marks": [[s, label] for s, label in self.marks],
            "metrics": _jsonable(self.registry.snapshot()),
            "events": spans_to_events(self.spans.spans, self.spans.instants),
        }

    def to_chrome_trace(self, path: str | None = None) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto trace-event JSON."""
        from repro.telemetry.export import chrome_trace, write_chrome_trace

        trace = chrome_trace(
            self.spans.spans,
            self.spans.instants,
            metadata={
                "source": self.source,
                "dropped_events": int(self.dropped_events),
                "marks": [[s, label] for s, label in self.marks],
                **self.meta,
            },
        )
        if path is not None:
            write_chrome_trace(path, trace)
        return trace

    def to_prometheus(self, path: str | None = None) -> str:
        """Prometheus text exposition of the merged metrics."""
        from repro.telemetry.export import prometheus_text

        text = prometheus_text(self.registry.snapshot())
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_jsonl(self, path: str) -> None:
        """Append this run's record as one JSON line."""
        from repro.telemetry.export import append_jsonl

        append_jsonl(path, self.record())


class _NullMetric:
    """Accepts every metric operation and does nothing."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        return None

    def set(self, value: float, **labels: Any) -> None:
        return None

    def add(self, delta: float, **labels: Any) -> None:
        return None

    def observe(self, value: float, **labels: Any) -> None:
        return None

    def value(self, **labels: Any) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0


_NULL_METRIC = _NullMetric()


class NullTelemetry:
    """The disabled path: every operation is a no-op, nothing allocates.

    Engines store ``telemetry or NOOP_TELEMETRY`` so instrumentation sites
    need no ``if`` guards; the shared :data:`~repro.telemetry.spans.NULL_SPAN`
    context manager makes ``with tel.span(...):`` free.
    """

    enabled = False
    dropped_events = 0
    marks: list[tuple[int, str]] = []
    meta: dict[str, Any] = {}
    spans = NullSpanRecorder()
    _ring = None

    def span(self, name: str, cat: str = "run", tid: int = 0, **args: Any):
        return NULL_SPAN

    def instant(self, name: str, tid: int = 0, **args: Any) -> None:
        return None

    def mark(self, label: str, superstep: int = 0) -> None:
        return None

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> _NullMetric:
        return _NULL_METRIC

    def flush(self) -> None:
        return None


#: Shared disabled instance — the default for every ``telemetry=`` parameter.
NOOP_TELEMETRY = NullTelemetry()


def resolve(telemetry: Any) -> Any:
    """Normalise a ``telemetry=`` argument: ``None`` means disabled."""
    return NOOP_TELEMETRY if telemetry is None else telemetry


class RingCollector:
    """Coordinator-side drain: fold ring events into a master Telemetry.

    Create one per :class:`~repro.telemetry.ringbuf.EventRing`; call
    :meth:`drain` opportunistically while the run progresses (the mp
    coordinator does so from its liveness-poll loop) and
    :meth:`merge_into` once the run — or the attempt, for supervised
    crash-recovery runs — is over.  Surviving a worker crash needs no
    special handling: whatever the victim published is already in the ring
    or in this collector.
    """

    def __init__(self, ring: EventRing) -> None:
        self.ring = ring
        self._spans: list[Span] = []
        self._instants: list[tuple[float, int, str, dict]] = []
        #: latest cumulative metrics snapshot per source (rank), so re-merges
        #: cannot double-count
        self._metrics: dict[str, dict] = {}
        self._undecodable = 0
        self._dropped_seen = 0

    def drain(self) -> int:
        """Pull every pending ring event; returns how many were consumed."""
        blobs = self.ring.drain()
        for blob in blobs:
            try:
                kind, *rest = pickle.loads(blob)
                if kind == "span":
                    self._spans.append(rest[0])
                elif kind == "metrics":
                    self._metrics[rest[0]] = rest[1]
                elif kind == "instant":
                    self._instants.append(rest[0])
                else:
                    self._undecodable += 1
            except Exception:
                # a torn or half-written cell (writer died mid-publish);
                # telemetry must never take the run down with it
                self._undecodable += 1
        return len(blobs)

    def merge_into(self, telemetry: Telemetry) -> None:
        """Drain once more, then fold everything into ``telemetry``."""
        self.drain()
        if not getattr(telemetry, "enabled", False):
            return
        for span in self._spans:
            telemetry.spans.add(span)
        telemetry.spans.instants.extend(self._instants)
        self._spans = []
        self._instants = []
        for snapshot in self._metrics.values():
            telemetry.registry.merge(snapshot)
        self._metrics.clear()
        dropped = self.ring.dropped
        new_drops = (dropped - self._dropped_seen) + self._undecodable
        self._dropped_seen = dropped
        self._undecodable = 0
        if new_drops:
            telemetry.dropped_events += new_drops
            telemetry.counter(
                "telemetry_dropped_events_total",
                "ring events lost to overflow, oversize, or torn writes",
            ).inc(new_drops)
