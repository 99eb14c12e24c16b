"""Fixed-slot shared-memory event ring: workers publish, coordinator drains.

The mp workers live in their own address spaces; their telemetry has to
cross a process boundary to reach the coordinator.  Sending it down the job
pipes would put observability on the critical path (and lose everything a
``SIGKILL``-ed worker had buffered).  :class:`EventRing` is the alternative:
one anonymous ``MAP_SHARED`` mapping holding ``slots`` fixed-size cells plus
a tiny header, created by the coordinator *before* forking and inherited by
every worker.  The mapping has no name, so it is gone with the last process
that maps it: a killed run leaks none.

Semantics — chosen for the hot path, in this order:

1. **A writer never blocks on a full ring.**  When ``head`` catches up to
   ``tail + slots``, the oldest unread event is overwritten (``tail``
   advances) and the shared ``dropped`` counter increments.  Telemetry
   degrades by forgetting history, never by stalling a superstep.
2. **A crashed writer loses only its unwritten events.**  Slots are written
   under a short mutex held for one memcpy; the coordinator maps the
   ring too, so everything published before a death remains drainable.
3. **Bounded everything.**  Events larger than ``slot_bytes`` are counted
   dropped and skipped (no resizing, no spillover); mutex acquisition is
   bounded by ``timeout`` so a pathologically wedged peer costs a dropped
   event, not a hang.

The payload is opaque bytes; encoding lives in
:mod:`repro.telemetry.collector`.

Examples
--------
>>> ring = EventRing(slots=4, slot_bytes=64)
>>> all(ring.put(bytes([i])) for i in range(6))   # 2 oldest fall out
True
>>> [b[0] for b in ring.drain()], ring.dropped
([2, 3, 4, 5], 2)
>>> ring.close()
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import struct
from typing import Any

__all__ = ["EventRing"]

#: header layout: head, tail, dropped — three little-endian int64s
_HEADER = struct.Struct("<qqq")
#: per-slot prefix: payload length
_SLOT_LEN = struct.Struct("<q")


class EventRing:
    """A multi-producer single-consumer ring of fixed-size event cells.

    Create in the coordinator before forking workers; the inherited object
    is shared.  Producers call :meth:`put`, the coordinator :meth:`drain`.
    The coordinator calls :meth:`close` once the workers are gone.

    Parameters
    ----------
    slots:
        Number of event cells.
    slot_bytes:
        Capacity of one cell's payload; larger events are dropped (counted).
    timeout:
        Mutex acquisition bound in seconds.  A producer that cannot take the
        mutex within it drops the event instead of stalling the superstep.
    """

    def __init__(
        self, slots: int = 8192, slot_bytes: int = 2048, timeout: float = 0.25
    ) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if slot_bytes <= 0:
            raise ValueError(f"slot_bytes must be positive, got {slot_bytes}")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self.timeout = timeout
        self._cell = _SLOT_LEN.size + self.slot_bytes
        # anonymous mappings start zeroed: head, tail and dropped are 0
        self._buf = mmap.mmap(-1, _HEADER.size + self.slots * self._cell)
        self._lock = mp.get_context("fork").Lock()

    # -------------------------------------------------------------- internal
    def _read_header(self) -> tuple[int, int, int]:
        return _HEADER.unpack_from(self._buf, 0)

    def _write_header(self, head: int, tail: int, dropped: int) -> None:
        _HEADER.pack_into(self._buf, 0, head, tail, dropped)

    def _slot_offset(self, seq: int) -> int:
        return _HEADER.size + (seq % self.slots) * self._cell

    # --------------------------------------------------------------- produce
    def put(self, payload: bytes) -> bool:
        """Publish one event; never blocks beyond the mutex ``timeout``.

        Returns False when the event was dropped (oversized payload or an
        unobtainable mutex); a full ring is *not* a drop of the new event —
        the oldest unread one is evicted instead, and the eviction is what
        increments :attr:`dropped`.
        """
        if not self._lock.acquire(timeout=self.timeout):
            return False  # pragma: no cover - only a wedged peer gets here
        try:
            head, tail, dropped = self._read_header()
            if len(payload) > self.slot_bytes:
                self._write_header(head, tail, dropped + 1)
                return False
            if head - tail >= self.slots:
                tail += 1  # drop-oldest: the reader will simply never see it
                dropped += 1
            off = self._slot_offset(head)
            _SLOT_LEN.pack_into(self._buf, off, len(payload))
            start = off + _SLOT_LEN.size
            self._buf[start : start + len(payload)] = payload
            self._write_header(head + 1, tail, dropped)
            return True
        finally:
            self._lock.release()

    # --------------------------------------------------------------- consume
    def drain(self, max_events: int | None = None) -> list[bytes]:
        """Remove and return up to ``max_events`` pending events, oldest first."""
        if not self._lock.acquire(timeout=self.timeout):
            return []  # pragma: no cover - only a wedged peer gets here
        try:
            head, tail, dropped = self._read_header()
            n = head - tail
            if max_events is not None:
                n = min(n, max_events)
            out: list[bytes] = []
            for i in range(n):
                off = self._slot_offset(tail + i)
                (length,) = _SLOT_LEN.unpack_from(self._buf, off)
                start = off + _SLOT_LEN.size
                out.append(self._buf[start : start + length])
            self._write_header(head, tail + n, dropped)
            return out
        finally:
            self._lock.release()

    @property
    def pending(self) -> int:
        head, tail, _ = self._read_header()
        return head - tail

    @property
    def dropped(self) -> int:
        """Events lost to eviction or oversize — the visibility guarantee."""
        return self._read_header()[2]

    # --------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Unmap the ring in this process; a second call does nothing."""
        self._buf.close()

    def __reduce__(self) -> Any:  # pragma: no cover - guard, not a feature
        raise TypeError(
            "EventRing cannot be pickled; create it before forking so "
            "workers inherit the mapping"
        )
