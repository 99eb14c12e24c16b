"""Sequential copy model (Kumar et al.), the basis of the parallel algorithms.

Section 3.1 of the paper: in each phase ``t``,

1. pick ``k`` uniformly among existing nodes;
2. with probability ``p`` set ``F_t = k`` (a *direct* attachment), otherwise
   set ``F_t = F_k`` (a *copy* attachment).

At ``p = 1/2`` this reproduces the Barabási–Albert attachment probabilities
exactly, and the exponent of the resulting power law varies with ``p``.

Two implementations are provided:

* :func:`copy_model_x1` — the ``x = 1`` case (the sequential engine's).
  One block resolver fills ``F`` block by block, drawing with
  :func:`draw_x1`, the draw protocol every ``x = 1`` bulk path shares, and
  resolving chains by vectorised *pointer jumping*
  (:func:`resolve_pointers`), ``O(log L_max)`` passes since chains are
  ``O(log n)`` long (Theorem 3.3).  ``F`` is the output's target column;
  :func:`repro.core.streaming.stream_copy_model_x1` yields slices of it.
* :func:`copy_model` — the general ``x >= 1`` case with the initial
  ``x``-clique and duplicate-edge rejection, as a literal per-slot loop:
  the statistical oracle.  ``generate(engine="sequential")`` at ``x > 1``
  runs Algorithm 3.2's rank program over one rank instead.

Both return the attachment table ``F`` on request so analyses (dependency
chains, cross-validation against the parallel engines) can inspect it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.arbitration import first_wins
from repro.graph.edgelist import EdgeList

__all__ = ["copy_model_x1", "copy_model", "draw_x1", "resolve_pointers"]

#: nodes per block of :func:`copy_model_x1`; a block's ``2 * _BLOCK``
#: uniforms and index arrays are the run's whole scratch (~16 MiB)
_BLOCK = 1 << 18

#: Safety bound on duplicate-rejection attempts per edge slot; a correct
#: configuration retries a handful of times at worst, so hitting this means
#: a logic error rather than bad luck.
_MAX_RETRIES = 10_000


def resolve_pointers(ptr: np.ndarray) -> np.ndarray:
    """Pointer-jump ``ptr`` to its fixed point (``ptr[i] == ptr[ptr[i]]``).

    ``ptr`` must be acyclic-with-self-loops: following pointers from any
    index must reach a self-pointing index.  Each pass squares the distance
    covered, so the number of passes is logarithmic in the longest chain.

    Only still-moving indices are touched after the first pass: an index is
    settled exactly when it points at a root (``ptr[ptr[i]] == ptr[i]``
    means ``ptr[i]`` self-points), and settled indices never move again, so
    each pass shrinks the active set instead of re-squaring and comparing
    the full array.
    """
    ptr = ptr.copy()
    active = np.flatnonzero(ptr[ptr] != ptr)
    while len(active):
        ptr[active] = ptr[ptr[active]]
        moved = ptr[ptr[active]] != ptr[active]
        active = active[moved]
    return ptr


def draw_x1(
    rng: np.random.Generator, t: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(k, direct)`` for nodes ``t`` (ascending, each ``>= 2``): two
    uniforms per node in node order, ``k = 1 + floor(u0 * (t - 1))`` and
    ``direct = u1 < p``.  Every ``x = 1`` bulk path draws through this, and
    ``Generator.random`` yields the same values in blocks as in one call."""
    u = rng.random(2 * len(t)).reshape(-1, 2)
    k = 1 + (u[:, 0] * (t - 1)).astype(np.int64)
    return k, u[:, 1] < p


def _resolve_x1(
    F: np.ndarray, p: float, rng: np.random.Generator, block: int
) -> Iterator[tuple[int, int]]:
    """Fill ``F`` (one slot per node, ``F[0] = -1``) with the ``x = 1``
    attachments, ``block`` nodes at a time from node 1, yielding each
    block's ``(lo, hi)`` once ``F[lo:hi]`` is final.  A copy whose source
    lies in an earlier block reads ``F``; chains inside the block are
    pointer-jumped."""
    n = len(F)
    F[:2] = (-1, 0)[:n]
    for lo in range(1, n, block):
        hi = min(lo + block, n)
        # node 1 draws nothing: it always attaches to node 0
        t = np.arange(max(lo, 2), hi, dtype=np.int64)
        k, direct = draw_x1(rng, t, p)
        seg, slot = F[lo:hi], t - lo
        # index arrays, not boolean masks: a mask selection branches per row
        # (docs/performance.md, "Selecting rows")
        sel = np.flatnonzero(direct)
        seg[slot.take(sel)] = k.take(sel)
        sel = np.flatnonzero(~direct & (k < lo))
        seg[slot.take(sel)] = F.take(k.take(sel))
        # in-block copies point at their source's slot, the rest at themselves
        ptr = np.arange(hi - lo, dtype=np.int64)
        sel = np.flatnonzero(~direct & (k >= lo))
        ptr[slot.take(sel)] = k.take(sel) - lo
        seg[:] = seg[resolve_pointers(ptr)]
        yield lo, hi


def copy_model_x1(
    n: int,
    p: float = 0.5,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    return_attachments: bool = False,
) -> EdgeList | tuple[EdgeList, np.ndarray]:
    """Copy-model PA network with one edge per node.

    ``F`` is resolved in place as the target column, in blocks of
    :data:`_BLOCK` nodes: the run holds the output plus one block.

    Parameters
    ----------
    n:
        Number of nodes; nodes are ``0 .. n-1`` and node 1 attaches to 0.
    p:
        Direct-attachment probability; ``0 < p <= 1``.  ``p = 1/2`` gives BA.
    return_attachments:
        Also return ``F`` where ``F[t]`` is the node ``t`` attached to
        (``F[0] = -1``).  ``F[1:]`` *is* the edge list's target column: the
        two share memory.

    Examples
    --------
    >>> el, F = copy_model_x1(10, seed=1, return_attachments=True)
    >>> len(el), F[0]
    (9, np.int64(-1))
    >>> bool((F[1:] < np.arange(1, 10)).all())
    True
    """
    _check_params(n, 1, p)
    rng = rng or np.random.default_rng(seed)
    F = np.empty(n, dtype=np.int64)
    for _ in _resolve_x1(F, p, rng, _BLOCK):
        pass
    edges = EdgeList.from_arrays(np.arange(1, n, dtype=np.int64), F[1:], copy=False)
    if return_attachments:
        return edges, F
    return edges


def copy_model(
    n: int,
    x: int = 1,
    p: float = 0.5,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    return_attachments: bool = False,
    method: str = "reference",
) -> EdgeList | tuple[EdgeList, np.ndarray]:
    """Copy-model PA network with ``x`` edges per node (Algorithm 3.2, serial).

    Starts from a clique on nodes ``0 .. x-1``; node ``x`` necessarily
    attaches to all clique nodes; every later node ``t`` draws, per edge
    slot, a uniform ``k in [x, t-1]`` and attaches to ``k`` (probability
    ``p``) or to ``F_k[l]`` with ``l`` uniform in ``[0, x)`` (probability
    ``1 - p``), rejecting duplicates.

    ``method`` selects the implementation:

    * ``"reference"`` (default) — the literal per-slot loop above, consuming
      the library-wide scalar draw protocol.  This is the oracle every other
      implementation is validated against.
    * ``"fast"`` — batched draws with vectorised per-row duplicate rejection
      and a retry tail (see :func:`_copy_model_fast`).  It samples the same
      attachment distribution but consumes the stream in batches, so equal
      seeds give a *different instance* than the reference; the two are tied
      together by statistical-equivalence tests instead of bit-identity.

    Returns the edge list, plus the ``(n, x)`` attachment table if
    ``return_attachments`` (clique rows are ``-1``).
    """
    if method not in ("reference", "fast"):
        raise ValueError(f"unknown method {method!r}; use 'reference' or 'fast'")
    if x == 1:
        return copy_model_x1(
            n, p=p, seed=seed, rng=rng, return_attachments=return_attachments
        )
    _check_params(n, x, p)
    rng = rng or np.random.default_rng(seed)
    if method == "fast":
        return _copy_model_fast(n, x, p, rng, return_attachments)

    m = x * (x - 1) // 2 + (n - x) * x
    edges = EdgeList(capacity=m)
    F = np.full((n, x), -1, dtype=np.int64)

    for i in range(x):
        for j in range(i + 1, x):
            edges.append(j, i)

    if n > x:
        F[x, :] = np.arange(x)
        edges.append_arrays(np.full(x, x, dtype=np.int64), np.arange(x, dtype=np.int64))

    for t in range(x + 1, n):
        row = F[t]
        for e in range(x):
            for attempt in range(_MAX_RETRIES):
                k = int(rng.integers(x, t))
                if rng.random() < p:
                    v = k
                else:
                    l = int(rng.integers(0, x))
                    v = int(F[k, l])
                if v not in row[:e]:
                    row[e] = v
                    break
            else:  # pragma: no cover - indicates a logic error
                raise RuntimeError(
                    f"exceeded {_MAX_RETRIES} duplicate-rejection attempts at t={t}"
                )
        edges.append_arrays(np.full(x, t, dtype=np.int64), row.copy())

    if return_attachments:
        return edges, F
    return edges


def _copy_model_fast(
    n: int, x: int, p: float, rng: np.random.Generator, return_attachments: bool
) -> EdgeList | tuple[EdgeList, np.ndarray]:
    """Vectorised Algorithm 3.2: batched draws + bulk duplicate rejection.

    Slots are flattened to ``sid(t, e) = (t - x) * x + e`` for ``t >= x``.
    Each round draws ``(k, coin, l)`` for every slot that still needs a
    value, then runs a release sweep: direct slots become candidates at
    once, copy slots wait until their source slot ``(k, l)`` has *committed*
    — so a copy always reads the final ``F[k, l]``, the same semantics as
    the sequential loop (where ``k < t`` is fully resolved at read time)
    and as the parallel wait-queues.  Candidates commit under the same
    first-wins-per-``(row, value)`` arbitration as the rank programs
    (:func:`repro.core.arbitration.first_wins`); losers join the next
    round's redraw batch.  Chains strictly decrease in node id, so every round
    makes progress and the retry tail shrinks geometrically.
    """
    m = x * (x - 1) // 2 + (n - x) * x
    edges = EdgeList(capacity=m)
    F = np.full((n, x), -1, dtype=np.int64)

    ci, cj = np.triu_indices(x, k=1)
    edges.append_arrays(cj.astype(np.int64), ci.astype(np.int64))

    F[x, :] = np.arange(x)
    edges.append_arrays(np.full(x, x, dtype=np.int64), np.arange(x, dtype=np.int64))

    # flat slot values; node x's slots are the only ones resolved up front
    val = np.full((n - x) * x, -1, dtype=np.int64)
    val[:x] = np.arange(x)

    todo_t = np.repeat(np.arange(x + 1, n, dtype=np.int64), x)
    todo_e = np.tile(np.arange(x, dtype=np.int64), max(n - x - 1, 0))
    pend_dst = np.empty(0, dtype=np.int64)  # slot waiting for a copy value
    pend_src = np.empty(0, dtype=np.int64)  # the slot it copies from

    for _round in range(_MAX_RETRIES):
        nt = len(todo_t)
        if nt == 0 and len(pend_dst) == 0:
            break
        # one batched draw per round: k, coin, then l for the copy subset —
        # the batch analogue of the scalar k/coin/l order per attempt
        k = x + (rng.random(nt) * (todo_t - x)).astype(np.int64)
        direct = rng.random(nt) < p
        dst = (todo_t - x) * x + todo_e
        csel = ~direct
        if csel.any():
            l = (rng.random(int(csel.sum())) * x).astype(np.int64)
            pend_dst = np.concatenate([pend_dst, dst[csel]])
            pend_src = np.concatenate([pend_src, (k[csel] - x) * x + l])

        # initial candidates: this round's direct slots, plus any copy whose
        # source slot has already committed (most sources are old nodes)
        src_val = val[pend_src]
        released = src_val >= 0
        ready_dst = np.concatenate([dst[direct], pend_dst[released]])
        ready_v = np.concatenate([k[direct], src_val[released]])
        pend_dst = pend_dst[~released]
        pend_src = pend_src[~released]

        loser_dst: list[np.ndarray] = []
        while len(ready_dst):
            rows = ready_dst // x + x
            cols = ready_dst % x
            v = ready_v
            # reject values already in the row, first-wins within the batch
            dup_row = (F[rows] == v[:, None]).any(axis=1)
            win = first_wins(rows, v, n) & ~dup_row
            if win.any():
                F[rows[win], cols[win]] = v[win]
                val[ready_dst[win]] = v[win]
            lose = ~win
            if lose.any():
                loser_dst.append(ready_dst[lose])
            # release pending copies whose source slot just committed
            src_val = val[pend_src]
            released = src_val >= 0
            ready_dst = pend_dst[released]
            ready_v = src_val[released]
            pend_dst = pend_dst[~released]
            pend_src = pend_src[~released]

        if loser_dst:
            dst = np.concatenate(loser_dst)
            todo_t = dst // x + x
            todo_e = dst % x
        else:
            todo_t = todo_e = np.empty(0, dtype=np.int64)
    else:  # pragma: no cover - indicates a logic error
        raise RuntimeError(f"exceeded {_MAX_RETRIES} vectorised retry rounds")

    if n > x + 1:
        ts = np.arange(x + 1, n, dtype=np.int64)
        edges.append_arrays(np.repeat(ts, x), F[x + 1 :].reshape(-1))
    if return_attachments:
        return edges, F
    return edges


def _check_params(n: int, x: int, p: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > 1 and n <= x:
        raise ValueError(f"need n > x, got n={n}, x={x}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
