"""Amortised-doubling array arenas for the rank programs' wait queues.

The park/pend queues of the PA rank programs used to grow with
``np.concatenate([old, batch])`` on every superstep, making each round cost
``O(queue_size)`` in reallocation alone — ``O(rounds * queue_size)`` over a
run.  :class:`ArrayArena` is a single growable ``int64`` column with the same
doubling discipline as :meth:`repro.graph.edgelist.EdgeList._grow_to`, and
:class:`RecordQueue` bundles several such columns that share one logical
length — exactly the shape of the queues (``Q_k`` holds parallel ``(k, t)``
or ``(key, t, e)`` arrays).

Appends write into preallocated tail space (amortised O(1) per record);
:meth:`RecordQueue.keep` compacts in place so a drain pass costs the number
of *surviving* records, never the buffer capacity.  A drain that leaves
fewer survivors than a quarter of the capacity also gives the rest back,
reallocating to twice the survivors, so a queue that once held a
superstep's burst does not keep its peak for the rest of the run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayArena", "RecordQueue"]

#: the capacity a new arena starts with and a drained one keeps at least
_MIN_CAPACITY = 64


class ArrayArena:
    """One growable ``int64`` column with amortised-doubling append.

    Examples
    --------
    >>> a = ArrayArena(capacity=2)
    >>> a.push(np.array([1, 2, 3]))
    >>> a.push(np.array([4]))
    >>> a.view().tolist()
    [1, 2, 3, 4]
    >>> a.keep(a.view() % 2 == 0)
    >>> a.view().tolist()
    [2, 4]
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        self._buf = np.empty(max(int(capacity), 1), dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow_to(self, needed: int) -> None:
        cap = len(self._buf)
        if needed <= cap:
            return
        new = np.empty(max(needed, cap * 2), dtype=np.int64)
        new[: self._size] = self._buf[: self._size]
        self._buf = new

    def push(self, values: np.ndarray) -> None:
        """Append a batch of values (scalar-free; always an array)."""
        values = np.asarray(values, dtype=np.int64)
        self._grow_to(self._size + len(values))
        self._buf[self._size : self._size + len(values)] = values
        self._size += len(values)

    def view(self) -> np.ndarray:
        """The live prefix (a view; invalidated by ``push``/``keep``)."""
        return self._buf[: self._size]

    def keep(self, mask: np.ndarray) -> None:
        """Compact in place, keeping rows where ``mask`` is True.

        ``np.compress`` selects without a branch per row, where ``a[mask]``
        stalls on mispredictions at mid densities (docs/performance.md,
        "Selecting rows").  Unlike indexing it would quietly truncate to a
        short mask, hence the length check.  Survivors under a quarter of
        the capacity shrink it to twice their number (at least
        ``_MIN_CAPACITY``), which costs the survivors, not the capacity.
        """
        if len(mask) != self._size:
            raise ValueError(f"mask has {len(mask)} entries, the arena holds {self._size}")
        kept = np.compress(mask, self._buf[: self._size])
        self._size = len(kept)
        if len(self._buf) > max(4 * self._size, _MIN_CAPACITY):
            self._buf = np.empty(max(2 * self._size, _MIN_CAPACITY), dtype=np.int64)
        self._buf[: self._size] = kept

    def clear(self) -> None:
        self._size = 0

    # queues live inside checkpointed rank programs, so they must pickle;
    # only the live prefix is serialised (checkpoints stay compact).
    def __getstate__(self) -> dict:
        return {"data": self._buf[: self._size].copy()}

    def __setstate__(self, state: dict) -> None:
        data = state["data"]
        self._buf = np.empty(max(len(data), 1), dtype=np.int64)
        self._buf[: len(data)] = data
        self._size = len(data)

    def __repr__(self) -> str:
        return f"ArrayArena(size={self._size}, capacity={len(self._buf)})"


class RecordQueue:
    """``ncols`` parallel :class:`ArrayArena` columns sharing one length.

    The wait queues of the PA rank programs are structs-of-arrays: a record
    is one row across every column.  ``push`` appends a batch of rows,
    ``columns`` exposes the live views, and ``keep`` compacts all columns
    with one mask — the drain idiom::

        t, k = queue.columns()
        ready = F.take(k) >= 0
        done_t = t.take(np.flatnonzero(ready))   # a copy, safe after keep
        queue.keep(~ready)

    Examples
    --------
    >>> q = RecordQueue(2, capacity=2)
    >>> q.push(np.array([1, 2]), np.array([10, 20]))
    >>> len(q)
    2
    >>> [c.tolist() for c in q.columns()]
    [[1, 2], [10, 20]]
    """

    __slots__ = ("_cols",)

    def __init__(self, ncols: int, capacity: int = 64) -> None:
        if ncols < 1:
            raise ValueError(f"ncols must be >= 1, got {ncols}")
        self._cols = tuple(ArrayArena(capacity) for _ in range(ncols))

    def __len__(self) -> int:
        return len(self._cols[0])

    @property
    def ncols(self) -> int:
        return len(self._cols)

    def push(self, *batches: np.ndarray) -> None:
        """Append one batch of rows (one equal-length array per column)."""
        if len(batches) != len(self._cols):
            raise ValueError(
                f"expected {len(self._cols)} column batches, got {len(batches)}"
            )
        lengths = {len(b) for b in batches}
        if len(lengths) > 1:
            raise ValueError(f"column batches must have equal length, got {lengths}")
        for col, batch in zip(self._cols, batches):
            col.push(batch)

    def column(self, i: int) -> np.ndarray:
        """Live view of column ``i`` (invalidated by ``push``/``keep``)."""
        return self._cols[i].view()

    def columns(self) -> tuple[np.ndarray, ...]:
        """Live views of every column (invalidated by ``push``/``keep``)."""
        return tuple(c.view() for c in self._cols)

    def keep(self, mask: np.ndarray) -> None:
        """Compact every column in place, keeping rows where ``mask``."""
        for col in self._cols:
            col.keep(mask)

    def clear(self) -> None:
        for col in self._cols:
            col.clear()

    def __getstate__(self) -> dict:
        return {"cols": self._cols}

    def __setstate__(self, state: dict) -> None:
        self._cols = tuple(state["cols"])

    def __repr__(self) -> str:
        return f"RecordQueue(ncols={len(self._cols)}, size={len(self)})"
