"""Trace export: Chrome trace-event JSON and its ``repro inspect`` summary.

:func:`chrome_trace` builds the trace-event JSON — open it in
``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_ for an
interactive per-rank timeline.  Both the real engines' wall-clock spans and
the simulated engine's virtual-time
:meth:`~repro.mpsim.trace.Tracer.to_chrome_trace` emit this same schema, so
simulated and real runs open in the same viewer.

:func:`inspect_summary` renders the per-rank utilisation / barrier-wait
table behind the ``repro inspect <trace>`` CLI subcommand, and
:func:`validate_chrome_trace` is the schema check the CI telemetry smoke
job runs on freshly generated traces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.spans import Span

__all__ = [
    "spans_to_events",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "inspect_summary",
]

#: categories the inspector buckets a rank's time into
_BUSY_CATS = ("compute",)
_WAIT_CATS = ("barrier",)
_COMM_CATS = ("exchange",)


def spans_to_events(
    spans: Sequence[Span],
    instants: Sequence[tuple[float, int, str, dict]] = (),
    t0: float | None = None,
) -> list[dict]:
    """Convert spans + instant events to trace-event dicts (ts in us).

    Timestamps are rebased to the earliest event so traces start near zero
    regardless of machine uptime (spans use the monotonic clock).
    """
    if t0 is None:
        starts = [s.ts for s in spans] + [ts for ts, *_ in instants]
        t0 = min(starts) if starts else 0.0
    events = [s.to_event(t0=t0) for s in spans]
    for ts, tid, name, args in instants:
        events.append(
            {
                "name": name,
                "cat": "mark",
                "ph": "i",
                "ts": (ts - t0) * 1e6,
                "pid": 0,
                "tid": tid,
                "s": "g",  # global-scope instant: draws a full-height line
                "args": dict(args),
            }
        )
    events.sort(key=lambda e: e["ts"])
    return events


def chrome_trace(
    spans: Sequence[Span] = (),
    instants: Sequence[tuple[float, int, str, dict]] = (),
    events: Iterable[Mapping] | None = None,
    metadata: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble the trace-event JSON object.

    Either pass :class:`Span` objects (``spans``/``instants``) or pre-built
    event dicts (``events`` — the virtual-time ``Tracer`` path); both may be
    combined.
    """
    all_events = spans_to_events(spans, instants)
    if events is not None:
        all_events.extend(dict(e) for e in events)
        all_events.sort(key=lambda e: e.get("ts", 0.0))
    return {
        "traceEvents": all_events,
        "displayTimeUnit": "ms",
        "metadata": dict(metadata or {}),
    }


def write_chrome_trace(path: str | Path, trace: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, default=_json_default) + "\n")
    return path


def _json_default(obj: Any) -> Any:
    """Last-resort JSON coercion for numpy scalars and exotic args."""
    for attr in ("item",):  # numpy scalars
        if hasattr(obj, attr):
            return getattr(obj, attr)()
    return str(obj)


def load_chrome_trace(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def validate_chrome_trace(trace: Mapping[str, Any]) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        errors.append("traceEvents is empty")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                errors.append(f"event {i} ({ev.get('name', '?')}): missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "i", "B", "E", "C", "M"):
            errors.append(f"event {i}: unknown phase {ph!r}")
        if ph == "X" and "dur" not in ev:
            errors.append(f"event {i} ({ev.get('name', '?')}): X event without dur")
        ts = ev.get("ts")
        if ts is not None and not isinstance(ts, (int, float)):
            errors.append(f"event {i}: non-numeric ts {ts!r}")
    return errors


# --------------------------------------------------------------------- inspect
def inspect_summary(trace: Mapping[str, Any]) -> str:
    """Per-rank utilisation / barrier-wait summary of a trace-event file.

    Works on any trace following this package's conventions (``tid`` = rank,
    categories ``compute`` / ``exchange`` / ``barrier``), which covers the
    mp engine's wall-clock traces *and* the simulated engine's virtual-time
    traces — the units differ (wall vs virtual seconds), the shape doesn't.
    """
    events = trace.get("traceEvents", [])
    xs = [e for e in events if e.get("ph") == "X"]
    marks = [e for e in events if e.get("ph") == "i"]
    if not xs:
        return "(no duration events in trace)"

    lanes: dict[int, dict[str, float]] = {}
    t_min, t_max = float("inf"), float("-inf")
    for ev in xs:
        tid = int(ev.get("tid", 0))
        cat = ev.get("cat", "other")
        lane = lanes.setdefault(tid, {})
        lane[cat] = lane.get(cat, 0.0) + float(ev.get("dur", 0.0))
        t_min = min(t_min, float(ev["ts"]))
        t_max = max(t_max, float(ev["ts"]) + float(ev.get("dur", 0.0)))
    window_s = max((t_max - t_min) / 1e6, 1e-12)

    def bucket(lane: dict[str, float], cats: Sequence[str]) -> float:
        return sum(lane.get(c, 0.0) for c in cats) / 1e6

    header = (
        f"{'lane':>6} {'busy_s':>10} {'exchange_s':>11} {'barrier_s':>10} "
        f"{'other_s':>9} {'util%':>6}"
    )
    lines = [
        f"trace: {len(xs)} spans across {len(lanes)} lanes, "
        f"window {window_s:.3f}s (lane = rank; tid -1 = coordinator)",
        header,
        "-" * len(header),
    ]
    tracked = set(_BUSY_CATS) | set(_WAIT_CATS) | set(_COMM_CATS)
    total_busy = total_wait = 0.0
    for tid in sorted(lanes):
        lane = lanes[tid]
        busy = bucket(lane, _BUSY_CATS)
        comm = bucket(lane, _COMM_CATS)
        wait = bucket(lane, _WAIT_CATS)
        other = bucket(lane, [c for c in lane if c not in tracked])
        util = 100.0 * busy / window_s
        total_busy += busy
        total_wait += wait
        lines.append(
            f"{tid:>6} {busy:>10.4f} {comm:>11.4f} {wait:>10.4f} "
            f"{other:>9.4f} {util:>5.1f}%"
        )
    if total_busy + total_wait > 0:
        lines.append(
            f"barrier wait is {100.0 * total_wait / (total_busy + total_wait):.1f}% "
            "of busy+wait time (imbalance cost)"
        )
    # memory trajectory: spans annotated with rss_bytes (one sample per
    # superstep from every engine process — see telemetry.spans.proc_rss_bytes)
    rss_by_lane: dict[int, tuple[float, float]] = {}
    for ev in xs:
        rss = ev.get("args", {}).get("rss_bytes")
        if rss is None:
            continue
        tid = int(ev.get("tid", 0))
        first, peak = rss_by_lane.get(tid, (float(rss), 0.0))
        rss_by_lane[tid] = (first, max(peak, float(rss)))
    if rss_by_lane:
        parts = [
            f"{tid}: {first / 1e6:.0f}->{peak / 1e6:.0f} MB"
            for tid, (first, peak) in sorted(rss_by_lane.items())
        ]
        lines.append("rss per lane (first->peak): " + ", ".join(parts))
    meta = trace.get("metadata", {})
    dropped = meta.get("dropped_events", 0)
    if dropped:
        lines.append(f"warning: {dropped} telemetry events dropped (ring overflow)")
    for mk in marks:
        args = mk.get("args", {})
        at = ""
        if "superstep" in args:
            at = f" @ superstep {args['superstep']}"
        lines.append(f"mark{at}: {mk.get('name', '?')}")
    return "\n".join(lines)
