"""Communication-free preferential-attachment generation.

The copy-model pipeline (Algorithms 3.1/3.2) spends its parallel budget
resolving dangling attachment pointers through message exchange.  Sanders &
Schulz (arXiv:1602.07106) observe that for hash-derived randomness no
messages are needed at all: if every random variate is a pure O(1) function
of ``(seed, slot)``, any rank can *recompute* another rank's draws locally
instead of asking for them.  Each rank then produces its slice of the edge
list completely independently — zero supersteps, zero protocol messages —
and the full graph is the concatenation of the slices.

This module implements that trade (messages for recomputation) on top of
:meth:`repro.rng.StreamFactory.counter_substream`:

* :func:`commfree_edge_slice` — the one kernel: the edge slice owned by
  nodes ``[lo, hi)``, the unit of parallel work.  A rank resolves foreign
  dependencies by iterative *chase* (x = 1: follow the copy chain,
  recomputing each hop's draws until it lands in a fixed prefix table;
  chains are ``O(log n)`` long by Theorem 3.3) or by demand-driven closure
  (general ``x``: pull in the source rows a slice's copy slots reference
  and resolve them with the same fixpoint machinery).  At ``x = 1`` it
  hands its output to a sink one block at a time, so a spilling worker
  never holds its slice;
* :func:`commfree` — the one-slice run ``[0, n)`` into an
  :class:`~repro.graph.edgelist.EdgeList`, the sequential baseline;
* :class:`CommfreeSliceProgram` — a slice as a zero-message rank program:
  one superstep that sends nothing, then the slice streamed into the
  rank's output through the run's result hook;
* :func:`commfree_mp` — the trivially-parallel multiprocessing path: the
  slice programs on the one mp engine, each worker writing its slice into
  its region of the output.  No messages and no checkpoints — there is no
  distributed state to lose.

Every run consumes the identical draw protocol, so one-slice, sliced and
multiprocessing runs, in RAM or spilled, are **bit-identical** for equal
seeds — regardless of rank count, block size, or evaluation order.  At
``x = 1`` every slice consumes the same block generator, whose only state
is the prefix table ``F[0:_PREFIX]`` (8 MiB), so an x = 1 run's memory
beyond its output is fixed in ``n``.  The scalar oracle in
:mod:`repro.seq.commfree_ref` re-implements the protocol independently and
the test-suite pins the vectorised paths to it.

Draw protocol
-------------
All variates come from ``StreamFactory(seed).counter_substream(_NS, x, 0)``.

``x = 1`` (one 64-bit hash per node ``t >= 2``, split into both variates)::

    h        = hashes(t, 0)
    k_t      = 1 + ((h >> 32) * (t - 1)) >> 32     # Lemire high-word range map
    direct_t = (h & 0xFFFFFFFF) < round(p * 2^32)
    F_t      = k_t if direct_t else F_{k_t}        # F_1 = 0

General ``x`` (slot ``sid = (t - x) * x + e``, duplicate-rejection attempt
``a``, three uniforms per attempt mirroring the copy model's k/coin/l
order)::

    k    = x + floor(uniforms(sid, 3a)     * (t - x))
    dir  = uniforms(sid, 3a + 1) < p
    l    = floor(uniforms(sid, 3a + 2) * x)
    cand = k if dir else F[k, l]; accept the first cand not already in row t

Node ``x`` attaches to the whole clique deterministically, as in
Algorithm 3.2.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.mpsim.mp_backend import MultiprocessingBSPEngine
from repro.rng import CounterStream, StreamFactory

__all__ = [
    "CommfreeSliceProgram",
    "commfree",
    "commfree_edge_counts",
    "commfree_edge_slice",
    "commfree_mp",
    "commfree_programs",
    "commfree_slices",
]

#: Namespace constant for the counter substream keys ``(_NS, x, 0)``.
_NS = 23

#: Safety bound on fixpoint rounds of the general-x resolver; legitimate
#: runs need O(chain depth + duplicate retries) rounds, so hitting this
#: means a logic error rather than bad luck (degenerate parameters trip
#: the friendlier _MAX_RETRIES error first).
_MAX_ROUNDS = 30_000

#: Duplicate-rejection retries per slot before declaring the parameters
#: degenerate (mirrors :data:`repro.seq.copy_model._MAX_RETRIES`).
_MAX_RETRIES = 10_000

#: Default node-block size: large enough to amortise per-block call
#: overhead, small enough that a block's draws and chase frontier stay
#: cache-resident (measured fastest of 2^16..2^20 at n=1e6).  Only the
#: output chunking depends on it; the x = 1 prefix table is sized apart.
_BLOCK = 1 << 16

#: Rows of the x = 1 prefix table ``F[0:_PREFIX]`` (8 MiB), the only
#: attachment state an x = 1 surface keeps.  Copy chains beyond it are
#: recomputed hop by hop until they land in it; a larger table shortens
#: them, a smaller one costs less to fill.  Measured over 2^18..2^22 at
#: p = 0.1 and 0.5, n = 2e7 (see docs/performance.md).
_PREFIX = 1 << 20

_U32 = np.uint64(32)
_LO32 = np.uint64(0xFFFFFFFF)
_ONE = np.array([1], dtype=np.int64)
_ZERO = np.array([0], dtype=np.int64)


def _counter(seed: int | None, x: int) -> CounterStream:
    """The one counter substream every commfree surface draws from."""
    return StreamFactory(seed).counter_substream(_NS, x, 0)


def _coin_threshold(p: float) -> np.uint64:
    """``direct`` iff the hash's low word is below this (x = 1 protocol)."""
    return np.uint64(min(round(p * 2.0 ** 32), 2 ** 32))


def _num_edges(n: int, x: int) -> int:
    """Edges of an ``n``-node network: the ``x``-clique, then ``x`` per node."""
    return x * (x - 1) // 2 + (n - x) * x if x > 1 else n - 1


def _check_params(n: int, x: int, p: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > 1 and n <= x:
        raise ValueError(f"need n > x, got n={n}, x={x}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")


# --------------------------------------------------------------------- x = 1
def _draws_x1(cs: CounterStream, ts: np.ndarray, thresh: np.uint64):
    """``(k, direct)`` for node array ``ts`` (all ``>= 2``), one hash each."""
    h = cs.hashes(ts, 0)
    k = (1 + (((h >> _U32) * (ts - 1).astype(np.uint64)) >> _U32)).astype(np.int64)
    return k, (h & _LO32) < thresh


def _chase_x1(
    cs: CounterStream,
    thresh: np.uint64,
    start_k: np.ndarray,
    F: np.ndarray,
    known_hi: int,
) -> np.ndarray:
    """Attachment values at the ends of the copy chains starting at ``start_k``.

    Iterative frontier walk: entries below ``known_hi`` read ``F``; the
    rest recompute their node's draws (O(1) each, vectorised) and retire on
    a direct attachment or step to the copied node.  Every hop lands on a
    uniformly drawn earlier node, so a chain falls below ``known_hi`` after
    about ``ln(start / known_hi)`` hops, and the frontier also shrinks
    geometrically (each hop is direct with probability ``p``): the walk
    terminates without any Python-level recursion.
    """
    out = np.empty(len(start_k), dtype=np.int64)
    pos = np.arange(len(start_k))
    cur = start_k
    while pos.size:
        known = cur < known_hi
        if known.any():
            kn = known.nonzero()[0]
            out[pos[kn]] = F[cur[kn]]
            live = (~known).nonzero()[0]
            pos = pos[live]
            cur = cur[live]
            if not pos.size:
                break
        k, direct = _draws_x1(cs, cur, thresh)
        if direct.any():
            dn = direct.nonzero()[0]
            out[pos[dn]] = k[dn]
            live = (~direct).nonzero()[0]
            pos = pos[live]
            cur = k[live]
        else:
            cur = k
    return out


def _fill_x1(
    cs: CounterStream, thresh: np.uint64, m: int, block_size: int
) -> np.ndarray:
    """The prefix table ``F[0:m]`` (``F[0] = -1``, ``F[1] = 0``).

    A block-by-block sweep: block ``b``'s copy chains read the already
    filled ``F[1:b]``, so most resolve after one hop.
    """
    F = np.full(m, -1, dtype=np.int64)
    if m > 1:
        F[1] = 0
    for b in range(2, m, block_size):
        e = min(b + block_size, m)
        k, direct = _draws_x1(cs, np.arange(b, e, dtype=np.int64), thresh)
        copy = (~direct).nonzero()[0]
        if copy.size:
            k[copy] = _chase_x1(cs, thresh, k[copy], F, b)
        F[b:e] = k
    return F


def _blocks_x1(
    seed: int | None, p: float, lo: int, hi: int, block_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one ``x = 1`` generator: ``(ts, F[ts])`` blocks for ``[lo, hi)``.

    Blocks start at ``max(lo, 2)`` and hold ``block_size`` nodes; node 1's
    fixed edge ``(1, 0)`` leads the first block when ``lo <= 1 < hi``.  The
    only state is the prefix table ``F[0:min(hi, _PREFIX)]``: a block
    inside it is a copy of its rows, and a block beyond it draws its nodes
    and chases their copy chains down into it, recomputing every hop at or
    above ``_PREFIX``.  Memory is therefore fixed in ``n`` and ``hi - lo``,
    and the values do not depend on the table's extent (a chain ends at the
    same attachment whichever of its hops is looked up).
    """
    cs = _counter(seed, 1)
    thresh = _coin_threshold(p)
    F = _fill_x1(cs, thresh, min(hi, _PREFIX), block_size)
    m = len(F)
    lead = lo <= 1 < hi
    for b in range(max(lo, 2), hi, block_size):
        e = min(b + block_size, hi)
        ts = np.arange(b, e, dtype=np.int64)
        if e <= m:
            v = F[b:e].copy()
        else:
            v, direct = _draws_x1(cs, ts, thresh)
            copy = (~direct).nonzero()[0]
            if copy.size:
                v[copy] = _chase_x1(cs, thresh, v[copy], F, m)
        if lead:
            ts = np.concatenate([_ONE, ts])
            v = np.concatenate([_ZERO, v])
            lead = False
        yield ts, v
    if lead:  # hi == 2: node 1 is the whole range
        yield _ONE.copy(), _ZERO.copy()


# ---------------------------------------------------------------- general x
def _resolve_general(
    cs: CounterStream,
    n: int,
    x: int,
    p: float,
    target_rows: np.ndarray,
) -> np.ndarray:
    """Resolve all slots of ``target_rows`` (node ids ``> x``) plus the rows
    they transitively depend on; returns the flat slot-value table.

    Iterative fixpoint with no Python-level recursion: each round draws the
    current duplicate-rejection attempt for every *eligible* pending slot
    (its within-row predecessor committed — the dup check needs the final
    prefix), commits the slots whose candidate value is known and fresh,
    bumps the attempt of duplicates, and enqueues the source rows of copy
    slots whose value isn't resolved yet (the demand-driven closure that
    replaces resolution messages).  Dependencies strictly decrease in node
    id, so the minimal pending row always progresses.
    """
    size = (n - x) * x
    val = np.full(size, -1, dtype=np.int64)
    val[:x] = np.arange(x)  # node x attaches to the whole clique
    attempt = np.zeros(size, dtype=np.int64)
    row_enqueued = np.zeros(n - x, dtype=bool)
    row_enqueued[0] = True

    rows = np.asarray(target_rows, dtype=np.int64) - x  # row-relative
    rows = rows[rows > 0]
    row_enqueued[rows] = True
    pending = (rows[:, None] * x + np.arange(x, dtype=np.int64)[None, :]).ravel()

    offsets = np.arange(x, dtype=np.int64)
    for _round in range(_MAX_ROUNDS):
        if pending.size == 0:
            return val
        e = pending % x
        elig = (e == 0) | (val[pending - 1] >= 0)
        idx = pending[elig]
        if idx.size:
            t = idx // x + x
            ee = e[elig]
            a3 = 3 * attempt[idx]
            u1 = cs.uniforms(idx, a3)
            u2 = cs.uniforms(idx, a3 + 1)
            # min() guards the 2^-53 float boundary where floor(u * m) == m
            k = x + np.minimum((u1 * (t - x)).astype(np.int64), t - x - 1)
            direct = u2 < p
            v = np.where(direct, k, np.int64(-1))
            copy = (~direct).nonzero()[0]
            if copy.size:
                l = np.minimum(
                    (cs.uniforms(idx[copy], a3[copy] + 2) * x).astype(np.int64), x - 1
                )
                src = (k[copy] - x) * x + l
                sv = val[src]
                ready = sv >= 0
                v[copy[ready]] = sv[ready]
                miss = src[~ready]
                if miss.size:
                    new_rows = np.unique(miss // x)
                    new_rows = new_rows[~row_enqueued[new_rows]]
                    if new_rows.size:
                        row_enqueued[new_rows] = True
                        fresh = (new_rows[:, None] * x + offsets[None, :]).ravel()
                        pending = np.concatenate([pending, fresh])
            have = v >= 0
            if have.any():
                rowbase = idx - ee
                dup = np.zeros(len(idx), dtype=bool)
                for o in range(x - 1):
                    m = have & (ee > o)
                    if m.any():
                        sel = m.nonzero()[0]
                        dup[sel] |= val[rowbase[sel] + o] == v[sel]
                commit = have & ~dup
                val[idx[commit]] = v[commit]
                retry = have & dup
                attempt[idx[retry]] += 1
                if retry.any() and attempt[idx[retry]].max() >= _MAX_RETRIES:
                    worst = idx[retry][attempt[idx[retry]].argmax()]
                    raise RuntimeError(
                        f"slot ({worst // x + x}, {worst % x}) exhausted "
                        f"{_MAX_RETRIES} duplicate-rejection retries "
                        f"(degenerate parameters, e.g. p=1 with x>1?)"
                    )
        pending = pending[val[pending] < 0]
    raise RuntimeError(  # pragma: no cover - indicates a logic error
        f"exceeded {_MAX_ROUNDS} fixpoint rounds at n={n}, x={x}"
    )


def _general_edges(
    n: int, x: int, lo: int, hi: int, val: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges owned by nodes ``[lo, hi)`` under the slice-stable order.

    Each edge belongs to its larger endpoint: clique node ``t < x``
    contributes ``(t, 0..t-1)``, node ``x`` its full clique row, and every
    later node its ``x`` resolved attachments.  Concatenating slices in
    rank order therefore reproduces the sequential edge order exactly.
    """
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for t in range(max(lo, 1), min(hi, x)):
        us.append(np.full(t, t, dtype=np.int64))
        vs.append(np.arange(t, dtype=np.int64))
    if lo <= x < hi:
        us.append(np.full(x, x, dtype=np.int64))
        vs.append(np.arange(x, dtype=np.int64))
    ts = np.arange(max(lo, x + 1), hi, dtype=np.int64)
    if ts.size:
        us.append(np.repeat(ts, x))
        flat = ((ts - x)[:, None] * x + np.arange(x, dtype=np.int64)[None, :]).ravel()
        vs.append(val[flat])
    if not us:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(us), np.concatenate(vs)


def commfree(
    n: int, x: int = 1, p: float = 0.5, seed: int | None = None
) -> EdgeList:
    """Communication-free copy-model PA network with ``x`` edges per node.

    The one-slice run: :func:`commfree_edge_slice` over ``[0, n)`` into an
    :class:`~repro.graph.edgelist.EdgeList`.  Same attachment law as
    :func:`repro.seq.copy_model.copy_model` (initial ``x``-clique, per-slot
    duplicate rejection, edges in node order), with every draw a pure
    function of ``(seed, slot, attempt)``, so the same graph comes out
    slice by slice with zero communication (:func:`commfree_mp`).

    Examples
    --------
    >>> el = commfree(10, seed=1)
    >>> len(el), bool((el.targets < el.sources).all())
    (9, True)
    """
    _check_params(n, x, p)
    edges = EdgeList(capacity=max(_num_edges(n, x), 1))
    return commfree_edge_slice(n, 0, n, x=x, p=p, seed=seed, out=edges)


# ------------------------------------------------------- slices and parallel
def commfree_slices(n: int, ranks: int) -> list[tuple[int, int]]:
    """Balanced contiguous node ranges, one per rank.

    Contiguity is what makes rank-order concatenation equal the sequential
    edge order; the ranges differ in size by at most one node.
    """
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    return [(n * r // ranks, n * (r + 1) // ranks) for r in range(ranks)]


def commfree_edge_slice(
    n: int,
    lo: int,
    hi: int,
    x: int = 1,
    p: float = 0.5,
    seed: int | None = None,
    block_size: int = _BLOCK,
    out=None,
):
    """The ``(u, v)`` edge arrays owned by nodes ``[lo, hi)``.

    Computed with zero knowledge of any other slice: foreign dependencies
    are recomputed from the counter substream (x = 1: chain chase; general
    x: demand-driven row closure).  For any partition of ``[0, n)`` into
    contiguous slices, concatenating the results in slice order is
    bit-identical to the sequential generator's edge list.

    With ``out`` — any sink with ``append_arrays``, such as an
    :class:`~repro.graph.edgelist.EdgeList` or a
    :class:`~repro.core.spill.EdgeShardWriter` — the edges are appended to
    it instead and ``out`` is returned.  At ``x = 1`` they arrive one block
    at a time, so a spilling worker never holds its slice in memory.
    """
    _check_params(n, x, p)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"need 0 <= lo <= hi <= n, got [{lo}, {hi}) of n={n}")
    if x > 1:
        rows = np.arange(max(lo, x + 1), hi, dtype=np.int64)
        val = _resolve_general(_counter(seed, x), n, x, p, rows)
        u, v = _general_edges(n, x, lo, hi, val)
        if out is None:
            return u, v
        out.append_arrays(u, v)
        return out
    sink = EdgeList(capacity=hi - max(lo, 1)) if out is None else out
    for ts, v in _blocks_x1(seed, p, lo, hi, block_size):
        sink.append_arrays(ts, v)
    return (sink.sources, sink.targets) if out is None else out


def commfree_edge_counts(n: int, x: int, ranks: int) -> np.ndarray:
    """Edges each slice of :func:`commfree_slices` ``(n, ranks)`` emits.

    Known before any slice is computed (node ``t`` owns ``min(t, x)``
    edges), which is what lets an out-of-core run give every slice its
    final region up front.

    Examples
    --------
    >>> commfree_edge_counts(10, 1, 3).tolist()
    [2, 3, 4]
    """
    from repro.core.spill import rank_edge_counts

    his = np.array([hi for _lo, hi in commfree_slices(n, ranks)], dtype=np.int64)
    sizes = np.diff(his, prepend=0)
    return rank_edge_counts(x, sizes, lambda t: np.searchsorted(his, t, side="right"))


class CommfreeSliceProgram:
    """Slice ``[lo, hi)`` as a zero-message rank program.

    Its one :meth:`step` charges the slice's nodes, sends nothing and is
    done.  The run's result hook (:func:`repro.core.parallel_pa.run_output`)
    then has it stream the slice into the rank's region, inside its worker
    on mp: :meth:`write_result` into the in-RAM columns, :meth:`write_edges`
    into an out-of-core region writer, so an x = 1 rank never holds its
    slice besides.
    """

    def __init__(self, n: int, lo: int, hi: int, x: int, p: float, seed) -> None:
        self.n, self.lo, self.hi, self.x, self.p, self.seed = n, lo, hi, x, p, seed
        self.done = False

    def step(self, ctx, inbox) -> None:
        ctx.charge(nodes=self.hi - self.lo)
        self.done = True

    def write_edges(self, sink) -> None:
        """Append the slice's edges to ``sink`` (anything with ``append_arrays``)."""
        commfree_edge_slice(
            self.n, self.lo, self.hi, x=self.x, p=self.p, seed=self.seed, out=sink
        )

    def write_result(self, u: np.ndarray, v: np.ndarray) -> None:
        """Write the slice's edges into its region, the columns ``u`` and ``v``."""
        sink = _ColumnSink(u, v)
        self.write_edges(sink)
        if sink.end != len(u):
            raise ValueError(f"slice [{self.lo}, {self.hi}) filled {sink.end} of {len(u)}")


class _ColumnSink:
    """Appends ``(u, v)`` batches into two fixed columns, front to back."""

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        self.u, self.v, self.end = u, v, 0

    def append_arrays(self, u: np.ndarray, v: np.ndarray) -> None:
        start, self.end = self.end, self.end + len(u)
        self.u[start : self.end] = u
        self.v[start : self.end] = v


def commfree_programs(n: int, x: int, p: float, ranks: int, seed) -> list:
    """One :class:`CommfreeSliceProgram` per slice of :func:`commfree_slices`."""
    return [CommfreeSliceProgram(n, lo, hi, x, p, seed) for lo, hi in commfree_slices(n, ranks)]


def commfree_mp(
    n: int,
    x: int = 1,
    p: float = 0.5,
    ranks: int = 2,
    seed: int | None = None,
    spill_dir: str | None = None,
    budget_bytes: int | None = None,
    barrier_timeout: float = 120.0,
    telemetry: Any = None,
) -> EdgeList:
    """Trivially-parallel commfree generation on real OS processes.

    The slice programs run on
    :class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`, one rank
    each: one superstep, no messages.  Each worker writes its slice into
    its region of the run's output through the engine's ``collect`` hook
    (:func:`repro.core.parallel_pa.run_output`): shared columns in RAM, or
    with ``spill_dir`` the ``<spill_dir>/edges/{u,v}.i64`` files pre-sized
    from :func:`commfree_edge_counts`, each region sealed by its worker and
    verified and adopted by the coordinator as a
    :class:`repro.core.spill.SpillEdgeList` (``budget_bytes`` bounds the
    verification reads and its read blocks).  No edge crosses a pipe, and
    each is written once.  A dead or failing worker raises
    :class:`~repro.mpsim.errors.RankFailure` naming its rank.  Output is
    bit-identical to :func:`commfree` for any ``ranks``.  An x = 1 worker
    keeps only the prefix table besides its output, so out of core its
    memory does not grow with ``n``; an x > 1 worker holds an n-sized slot
    table.  ``barrier_timeout`` and ``telemetry`` go to the engine, so a
    traced run records each worker's ``compute`` span on its rank's lane.
    """
    from repro.core.parallel_pa import run_output

    _check_params(n, x, p)
    out = run_output(commfree_edge_counts(n, x, ranks), spill_dir, budget_bytes, shared=True)
    MultiprocessingBSPEngine(
        ranks, barrier_timeout=barrier_timeout, telemetry=telemetry, collect=out.collect,
    ).run(commfree_programs(n, x, p, ranks, seed))
    return out.edges()
