"""The :class:`Telemetry` facade and the cross-process collector.

One :class:`Telemetry` object represents one *observed run*: a span
recorder (spans and instants, recovery marks among the instants), run
metadata, and a drop counter.  The coordinator (or any in-process engine)
writes into it directly; mp workers get a derived instance (:meth:`Telemetry.for_worker`)
whose spans and instants are published into a shared-memory
:class:`~repro.telemetry.ringbuf.EventRing` the moment they happen, and a
:class:`RingCollector` on the coordinator side drains the ring — during the
run and after it — and folds everything back into the master object.

Crash-robustness falls out of the layering: the coordinator owns the ring
and spans are published as they close, so a ``SIGKILL``-ed worker's
timeline survives up to its last completed span.

Counts a run's reader needs (supersteps, simulated time, recoveries) live
on :class:`~repro.core.generator.GenerationResult`; telemetry records
*when* things happened and how long they took.

Everything here is observation-only by construction: no RNG is touched, no
message content inspected, no scheduling decision taken.  The test-suite
asserts generation output is bit-identical with telemetry on and off on
every engine.

Examples
--------
>>> tel = Telemetry()
>>> with tel.span("superstep", cat="superstep", step=1) as sp:
...     sp.note(records=3)
>>> tel.mark("recovery #1", superstep=1)
>>> [(s.name, s.args) for s in tel.spans.spans]
[('superstep', {'step': 1, 'records': 3})]
>>> tel.marks
[(1, 'recovery #1')]
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.telemetry.ringbuf import EventRing
from repro.telemetry.spans import NULL_SPAN, NullSpanRecorder, Span, SpanRecorder

__all__ = ["Telemetry", "NullTelemetry", "NOOP_TELEMETRY", "RingCollector"]


class Telemetry:
    """Unified observability handle for one run.

    Pass an instance to :func:`repro.generate` (``telemetry=``), an engine
    constructor, or a :class:`~repro.mpsim.supervisor.Supervisor`; after the
    run it holds the merged spans, instants and marks of every participating
    process and exports them as a Chrome trace (:meth:`to_chrome_trace`).
    """

    enabled = True

    def __init__(self, source: str = "coordinator") -> None:
        self.source = source
        self.spans = SpanRecorder(source=source)
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
        self.instant(str(label), superstep=int(superstep), mark=True)

    @property
    def marks(self) -> list[tuple[int, str]]:
        """``(superstep, label)`` of every :meth:`mark`, read off the
        instants — so a worker's marks arrive through the ring like its
        other instants."""
        return [
            (args["superstep"], name)
            for _, _, name, args in self.spans.instants
            if args.get("mark")
        ]

    # ------------------------------------------------------- worker publishing
    @classmethod
    def for_worker(cls, ring: EventRing, rank: int) -> "Telemetry":
        """A worker-process instance publishing into ``ring``.

        Spans are shipped as they close (and not retained locally, so a
        long job cannot grow worker memory); instants as they happen.
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

    # ------------------------------------------------------------- reporting
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
        dropped = self.ring.dropped
        new_drops = (dropped - self._dropped_seen) + self._undecodable
        self._dropped_seen = dropped
        self._undecodable = 0
        telemetry.dropped_events += new_drops
