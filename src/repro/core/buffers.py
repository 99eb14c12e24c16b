"""Per-destination message buffering (Section 3.5 "Message Buffering").

Sending every request/resolved record as its own MPI message would flood the
network; the paper instead keeps ``P - 1`` per-destination buffers on every
rank and ships a buffer with one send when it fills.  Two flush policies
matter:

* **when-full** — the default for request messages under any scheme and for
  resolved messages under consecutive partitioning (UCP/LCP), where rank
  ``i`` only ever waits on ranks ``j < i`` so no waiting cycle can form;
* **every-group** — required for *resolved* messages under round-robin
  partitioning: after processing each received group, partially filled
  resolved buffers must be flushed anyway, otherwise two ranks can each hold
  the resolved record the other needs — circular waiting, i.e. deadlock
  (Section 3.5.2).

The event-driven Algorithm 3.1 implementation uses this class directly;
``tests/core/test_deadlock.py`` demonstrates that disabling the every-group
flush under RRP reproduces the deadlock the paper warns about.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["MessageBuffers", "FLUSH_WHEN_FULL", "FLUSH_EVERY_GROUP"]

FLUSH_WHEN_FULL = "when-full"
FLUSH_EVERY_GROUP = "every-group"


class MessageBuffers:
    """``P``-way output buffering for one rank.

    Parameters
    ----------
    size:
        Number of ranks (buffers are kept for every destination but the
        owner may simply never address itself).
    capacity:
        Records per buffer before :meth:`add` reports it full.
    policy:
        :data:`FLUSH_WHEN_FULL` or :data:`FLUSH_EVERY_GROUP`; the policy is
        advisory metadata consumed by :meth:`needs_group_flush`.
    """

    def __init__(self, size: int, capacity: int = 64, policy: str = FLUSH_WHEN_FULL) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in (FLUSH_WHEN_FULL, FLUSH_EVERY_GROUP):
            raise ValueError(f"unknown policy {policy!r}")
        self.size = size
        self.capacity = capacity
        self.policy = policy
        self._buffers: list[list[Any]] = [[] for _ in range(size)]
        #: how many flushes (bulk sends) this buffer set has produced
        self.flush_count = 0
        #: total records that passed through
        self.record_count = 0

    def add(self, dest: int, record: Any) -> list[Any] | None:
        """Buffer ``record`` for ``dest``; return the batch if now full."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} outside [0, {self.size})")
        buf = self._buffers[dest]
        buf.append(record)
        self.record_count += 1
        if len(buf) >= self.capacity:
            return self.flush(dest)
        return None

    def flush(self, dest: int) -> list[Any]:
        """Drain and return ``dest``'s buffer (possibly empty)."""
        batch, self._buffers[dest] = self._buffers[dest], []
        if batch:
            self.flush_count += 1
        return batch

    def flush_all(self) -> Iterator[tuple[int, list[Any]]]:
        """Drain every non-empty buffer, yielding ``(dest, batch)`` pairs."""
        for dest in range(self.size):
            if self._buffers[dest]:
                yield dest, self.flush(dest)

    def pending(self, dest: int | None = None) -> int:
        """Records currently buffered (for one destination or in total)."""
        if dest is None:
            return sum(len(b) for b in self._buffers)
        return len(self._buffers[dest])

    def needs_group_flush(self) -> bool:
        """True when the policy demands a flush after each received group."""
        return self.policy == FLUSH_EVERY_GROUP

    def __repr__(self) -> str:
        return (
            f"MessageBuffers(size={self.size}, capacity={self.capacity}, "
            f"policy={self.policy!r}, pending={self.pending()})"
        )
