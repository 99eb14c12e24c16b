"""repro.telemetry — cross-process spans, marks, and trace export.

The repo's observability subsystem.  The paper's evaluation is built on
per-rank load and message accounting (Section 4.6, Figure 7); those counts
are on :class:`~repro.core.generator.GenerationResult`.  This package shows
*when* each rank spent its time — related generators report that
communication *imbalance*, not compute, is what kills scaling:

* :mod:`~repro.telemetry.spans` — nestable wall-clock spans with a
  zero-overhead no-op path when telemetry is disabled, and the
  ``proc_rss_bytes`` sampler the engines note on their spans;
* :mod:`~repro.telemetry.ringbuf` — a fixed-slot shared-memory event ring
  with drop-oldest-and-count semantics, so mp workers publish without ever
  blocking the hot path;
* :mod:`~repro.telemetry.collector` — the :class:`Telemetry` facade (spans,
  instants and marks, ``meta``, ``dropped_events``) and the
  coordinator-side drain that merges worker spans into one run record,
  surviving worker crashes mid-run;
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON and the
  ``repro inspect`` summary.

Quick start::

    from repro import Telemetry, generate

    tel = Telemetry()
    result = generate(n=100_000, ranks=8, seed=42, engine="mp", telemetry=tel)
    tel.to_chrome_trace("run.trace.json")     # open in chrome://tracing

or from the CLI::

    repro-pa generate -n 100000 -P 8 --engine mp --trace-out run.trace.json
    repro-pa inspect run.trace.json

See ``docs/observability.md`` for the subsystem design.
"""

from repro.telemetry.collector import (
    NOOP_TELEMETRY,
    NullTelemetry,
    RingCollector,
    Telemetry,
)
from repro.telemetry.export import (
    chrome_trace,
    inspect_summary,
    load_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.ringbuf import EventRing
from repro.telemetry.spans import Span, SpanRecorder

__all__ = [
    "EventRing",
    "NOOP_TELEMETRY",
    "NullTelemetry",
    "RingCollector",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "chrome_trace",
    "inspect_summary",
    "load_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
