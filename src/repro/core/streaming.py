"""Streaming (on-the-fly) generation and analysis.

Section 3.2 of the paper notes that "some network analysts may prefer to
generate networks on the fly and analyze it without performing disk I/O".
This module supports that workflow for the ``x = 1`` copy model:

* :func:`stream_copy_model_x1` yields the network as fixed-size edge
  *blocks*.  Only the attachment table ``F`` (8 bytes/node) is retained;
  the edges themselves — the dominant memory cost for ``x >= 1`` or when
  materialised as Python/NumPy pairs — never accumulate.  The blocks come
  from the batch generator's own block resolver (chains ending in earlier
  blocks read straight out of ``F``), and each yields a slice of ``F``.
* :class:`StreamingDegreeAccumulator` consumes blocks and maintains the
  degree array / histogram incrementally, so degree-distribution analysis
  (Figure 4) runs in one pass without ever holding the edge list.

The stream is bit-identical to :func:`repro.seq.copy_model.copy_model_x1`
for equal seeds, whatever the block size (property-tested in
``tests/core/test_streaming.py``).  ``generate(engine="sequential", x=1,
out_of_core=...)`` spills through it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.seq.copy_model import _check_params, _resolve_x1

__all__ = ["stream_copy_model_x1", "StreamingDegreeAccumulator"]


def stream_copy_model_x1(
    n: int,
    p: float = 0.5,
    block_size: int = 65_536,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(t, F_t)`` edge blocks of an ``x = 1`` PA network.

    Parameters
    ----------
    n:
        Number of nodes; ``n - 1`` edges are streamed in total.
    p:
        Direct-attachment probability.
    block_size:
        Nodes resolved (and edges yielded) per block.

    Yields
    ------
    ``(u, v)`` array pairs; concatenated they equal the batch generator's
    edge list for the same seed.  ``v`` is a read-only slice of the
    stream's ``F``, final once yielded.

    Examples
    --------
    >>> total = sum(len(u) for u, v in stream_copy_model_x1(10_000, seed=0))
    >>> total
    9999
    """
    _check_params(n, 1, p)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    rng = rng or np.random.default_rng(seed)
    F = np.empty(n, dtype=np.int64)
    # later blocks read earlier ones out of F, so consumers get it read-only
    final = F.view()
    final.flags.writeable = False
    for lo, hi in _resolve_x1(F, p, rng, block_size):
        yield np.arange(lo, hi, dtype=np.int64), final[lo:hi]


class StreamingDegreeAccumulator:
    """One-pass degree statistics over streamed edge blocks.

    Maintains the full degree array (needed anyway for exact statistics)
    plus running totals; never stores edges.

    Examples
    --------
    >>> acc = StreamingDegreeAccumulator(1000)
    >>> for u, v in stream_copy_model_x1(1000, seed=1):
    ...     acc.update(u, v)
    >>> acc.num_edges
    999
    >>> int(acc.degrees.sum())
    1998
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self.num_nodes = num_nodes
        self.degrees = np.zeros(num_nodes, dtype=np.int64)
        self.num_edges = 0

    def update(self, u: np.ndarray, v: np.ndarray) -> None:
        """Fold one edge block into the statistics."""
        if len(u) != len(v):
            raise ValueError("block arrays must have equal length")
        np.add.at(self.degrees, u, 1)
        np.add.at(self.degrees, v, 1)
        self.num_edges += len(u)

    def consume(self, blocks) -> "StreamingDegreeAccumulator":
        """Fold an iterable of ``(u, v)`` blocks; returns ``self``.

        Composes with every block source in the library: the live stream
        emitters here and :func:`repro.core.spill.iter_edge_blocks` over any
        edge list, spilled ones included — so
        degree analysis of an out-of-core run never materialises the graph.
        """
        for u, v in blocks:
            self.update(u, v)
        return self

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.num_nodes else 0

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self.num_nodes if self.num_nodes else 0.0

    def distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical ``(k, P(k))`` over positive degrees (Figure 4's data)."""
        from repro.graph.degree import degree_distribution

        return degree_distribution(self.degrees)
