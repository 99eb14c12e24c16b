"""Compact growable edge-list container.

Generating billions of edges rules out per-edge Python objects; every
generator in this repository therefore produces an :class:`EdgeList`, a thin
wrapper over two ``int64`` NumPy arrays with amortised-O(1) bulk append.
This is the Python analogue of the paper's in-memory edge arrays ("each of
the algorithms we considered generates the network in the main memory").

The container is undirected in meaning but stores each edge once as the
ordered pair ``(u, v)`` in generation order; for PA graphs the convention is
``u > v`` (node ``u`` attached to the earlier node ``v``), which several
validation checks rely on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["EdgeList"]


class EdgeList:
    """A growable list of edges backed by NumPy arrays.

    Parameters
    ----------
    capacity:
        Initial buffer capacity in edges.

    Examples
    --------
    >>> el = EdgeList()
    >>> el.append_arrays(np.array([1, 2, 3]), np.array([0, 0, 1]))
    >>> len(el)
    3
    >>> el.num_nodes
    4
    """

    __slots__ = ("_u", "_v", "_size", "_max_node")

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(int(capacity), 1)
        self._u = np.empty(capacity, dtype=np.int64)
        self._v = np.empty(capacity, dtype=np.int64)
        self._size = 0
        # running max node id, -1 when empty; None until a zero-copy list's
        # wrapped arrays are first scanned (:meth:`_max`)
        self._max_node: int | None = -1

    # ------------------------------------------------------------- building
    @classmethod
    def from_arrays(cls, u: np.ndarray, v: np.ndarray, copy: bool = True) -> "EdgeList":
        """Build an edge list from two equal-length integer arrays.

        With ``copy=False`` the list wraps the given arrays directly —
        zero-copy, which is what lets :func:`repro.graph.io.read_edges_binary`
        expose a multi-gigabyte on-disk file as memmap-backed views without
        pulling it into RAM.  Such a list leaves its max node id unresolved
        until the first :attr:`num_nodes` or append needs it, so wrapping
        touches no page of the arrays.  Appending to a zero-copy list falls
        back to an ordinary in-RAM reallocation (the wrapped arrays are never
        mutated).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(f"u and v must be equal-length 1-D arrays, got {u.shape} and {v.shape}")
        if not copy:
            el = cls(capacity=1)
            if len(u):
                el._u, el._v = u, v
                el._size = len(u)
                el._max_node = None
            return el
        el = cls(capacity=max(len(u), 1))
        el._u[: len(u)] = u
        el._v[: len(v)] = v
        el._size = len(u)
        if len(u):
            el._max_node = int(max(u.max(), v.max()))
        return el

    def _grow_to(self, needed: int) -> None:
        cap = len(self._u)
        if needed <= cap:
            return
        # one fresh allocation per array + one copy of the live prefix (the
        # previous np.concatenate built an extra temporary per growth step)
        new_cap = max(needed, cap * 2)
        new_u = np.empty(new_cap, dtype=np.int64)
        new_v = np.empty(new_cap, dtype=np.int64)
        new_u[: self._size] = self._u[: self._size]
        new_v[: self._size] = self._v[: self._size]
        self._u, self._v = new_u, new_v

    def _max(self) -> int:
        """The max node id (-1 when empty), scanning the arrays once if a
        zero-copy wrap left it unresolved."""
        if self._max_node is None:
            self._max_node = int(max(self.sources.max(), self.targets.max()))
        return self._max_node

    def append(self, u: int, v: int) -> None:
        """Append one edge (scalar path; prefer :meth:`append_arrays` in bulk)."""
        if self._max_node is None:
            self._max()
        self._grow_to(self._size + 1)
        self._u[self._size] = u
        self._v[self._size] = v
        self._size += 1
        if u > self._max_node:
            self._max_node = int(u)
        if v > self._max_node:
            self._max_node = int(v)

    def append_arrays(self, u: np.ndarray, v: np.ndarray) -> None:
        """Append a batch of edges."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("batch arrays must have equal length")
        if self._max_node is None:
            self._max()
        self._grow_to(self._size + len(u))
        self._u[self._size : self._size + len(u)] = u
        self._v[self._size : self._size + len(v)] = v
        self._size += len(u)
        if len(u):
            self._max_node = max(self._max_node, int(max(u.max(), v.max())))

    def extend(self, other: "EdgeList") -> None:
        """Append all edges of another edge list."""
        self.append_arrays(other.sources, other.targets)

    # -------------------------------------------------------------- viewing
    @property
    def sources(self) -> np.ndarray:
        """The ``u`` endpoints, one per edge (view; do not mutate)."""
        return self._u[: self._size]

    @property
    def targets(self) -> np.ndarray:
        """The ``v`` endpoints, one per edge (view; do not mutate)."""
        return self._v[: self._size]

    def __len__(self) -> int:
        return self._size

    @property
    def num_edges(self) -> int:
        return self._size

    @property
    def num_nodes(self) -> int:
        """1 + max node id (0 for an empty list).

        O(1): the max node id is maintained incrementally by the append
        paths rather than rescanned on every access; a zero-copy list scans
        its arrays once, on first use.
        """
        if self._size == 0:
            return 0
        return self._max() + 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for i in range(self._size):
            yield int(self._u[i]), int(self._v[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (
            self._size == other._size
            and bool(np.array_equal(self.sources, other.sources))
            and bool(np.array_equal(self.targets, other.targets))
        )

    def __hash__(self) -> int:  # pragma: no cover - containers are unhashable
        raise TypeError("EdgeList is mutable and unhashable")

    def __repr__(self) -> str:
        return f"EdgeList(num_edges={self._size}, num_nodes={self.num_nodes})"

    # ---------------------------------------------------------- conversions
    def as_array(self) -> np.ndarray:
        """``(m, 2)`` array of edges in generation order."""
        return np.column_stack([self.sources, self.targets])

    def canonical(self) -> np.ndarray:
        """``(m, 2)`` array with each edge as ``(min, max)``, row-sorted.

        Canonical form is order-insensitive, which is how tests compare
        graphs produced by different execution engines.
        """
        lo = np.minimum(self.sources, self.targets)
        hi = np.maximum(self.sources, self.targets)
        arr = np.column_stack([lo, hi])
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        return arr[order]

    def has_duplicates(self) -> bool:
        """True if any undirected edge appears more than once."""
        if self._size == 0:
            return False
        canon = self.canonical()
        return bool((np.diff(canon, axis=0) == 0).all(axis=1).any())

    def has_self_loops(self) -> bool:
        return bool((self.sources == self.targets).any())

    def to_networkx(self):
        """Convert to ``networkx.Graph`` (test/analysis convenience)."""
        import networkx as nx

        g = nx.Graph()
        g.add_edges_from(zip(self.sources.tolist(), self.targets.tolist()))
        return g

    def copy(self) -> "EdgeList":
        return EdgeList.from_arrays(self.sources, self.targets)
