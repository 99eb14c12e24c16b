"""Algorithm 3.1 — parallel preferential attachment with ``x = 1``.

Each rank owns the nodes of its partition and computes ``F_t`` for them.
Per node ``t`` the rank draws ``k`` uniform in ``[1, t-1]`` and a coin: with
probability ``p`` it sets ``F_t = k`` immediately (Line 5-6); otherwise
``F_t = F_k`` (Line 8), which is

* resolved by *local chain sweeping* when ``k`` is owned by the same rank
  (the paper's intra-processor case — no message needed), or
* turned into a ``<request, t, k>`` message to ``k``'s owner (Line 9).

A local wait lives in ``F`` itself: ``F[t] = -2 - kidx`` points at the local
slot ``kidx`` of ``k``, while ``F[t] = -1`` means ``t`` waits on a remote
``resolved`` record.  The sweep pointer-jumps along those pointers
(``F[t] <- F[-2 - F[t]]``), so a local chain of length ``L`` resolves in
``O(log L)`` passes, and a chain ending at a node that waits on a remote
reply collapses onto that *anchor*: once the reply arrives, every node of
the chain resolves in one pass.

An owner receiving a request replies ``<resolved, t, F_k>`` if ``F_k`` is
known and otherwise parks the requester in the wait queue ``Q_k``
(Lines 11-15); when ``F_k`` later resolves, queued requesters are answered
(Lines 16-19).  A step first answers the parked requesters whose ``F_k``
has resolved, then answers each arriving request whose ``F_k`` is known
as it arrives, in source order, and parks only the rest; so the queue holds
the requests that must wait, never a superstep's whole inbox, and the
replies leave in the order one drain of all of them would send.

Wire format: a rank sends each destination at most one array per record
kind a superstep, and the kind is the array's dtype.  A request is
:data:`REQUEST_DTYPE` ``(t, kidx)``: the requester ``t`` and the owner's
local slot ``kidx`` of ``k`` (the sender knows it, since the partition is a
pure function).  A reply is :data:`REPLY_DTYPE` ``(t, v)``.  Both are 16 B;
the engines charge each record the paper's 24 B ``<request, t, k>``
nonetheless, which the dtypes declare, so simulated time and traffic
statistics do not depend on the encoding.  A record of any other dtype is
an error, not a message to skip.

Memory: a rank's scratch is bounded by its draw block, not its node count.
The setup walks the rank's node range (never materialised as an id array)
in blocks of :data:`_BLOCK` nodes, drawing the block's ``2 * _BLOCK``
uniforms in node order; NumPy's ``Generator.random`` in chunks yields the
values of one call, so blocking leaves every draw, record and message as
it was.  ``F`` itself can be the output: :class:`ResultRegions` lays out the
run's final ``(u, v)`` columns, rank ``r``'s edges at ``[offsets[r],
offsets[r + 1])`` (:func:`repro.core.spill.rank_edge_counts`), and a
program given its region as ``out`` resolves straight into the target
column, in-process or in an mp worker (whose columns are shared with the
coordinator); only the source column is filled afterwards, from the node
ranges.

Execution model: the rank program below runs on the
:class:`~repro.mpsim.bsp.BSPEngine`, whose exchange step *is* the paper's
message buffering — all records destined to one rank in one superstep travel
as a single message.  Theorem 3.3 bounds dependency chains by ``O(log n)``,
so the run quiesces in ``O(log n)`` supersteps.

Randomness protocol: node ``t`` consumes exactly two uniforms from its
owner's stream, in node order — first for ``k``, then for the coin
(:func:`repro.seq.copy_model.draw_x1`, shared with the sequential path).  The
event-driven implementation follows the identical protocol, which is why the
two engines produce bit-identical graphs (see
``tests/core/test_cross_engine.py``).
"""

from __future__ import annotations

import mmap
from collections import defaultdict
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.arena import RecordQueue
from repro.core.partitioning import Partition
from repro.core.routing import route_by_dest
from repro.graph.edgelist import EdgeList
from repro.mpsim.bsp import BSPRankContext
from repro.seq.copy_model import draw_x1

__all__ = [
    "REPLY_DTYPE",
    "REQUEST_DTYPE",
    "PAx1RankProgram",
    "ResultRegions",
    "RunOutput",
    "run_output",
]

#: Wire format, one dtype per kind (see the module docstring).  Each record
#: is 16 B on the wire and charged as the paper's 24 B ``<request, t, k>``
#: (:func:`repro.mpsim.datatypes.charged_nbytes`).
_CHARGED = {"charged_bytes": 24}
REQUEST_DTYPE = np.dtype([("t", "i8"), ("kidx", "i8")], metadata=_CHARGED)
REPLY_DTYPE = np.dtype([("t", "i8"), ("v", "i8")], metadata=_CHARGED)

#: nodes per draw block of :meth:`PAx1RankProgram._setup`; a block's
#: ``2 * _BLOCK`` uniforms and index arrays are the setup's whole scratch
#: (~16 MiB), whatever the rank's node count
_BLOCK = 1 << 18


def _arange(nodes: range) -> np.ndarray:
    return np.arange(nodes.start, nodes.stop, nodes.step, dtype=np.int64)


def _records(dtype: np.dtype, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One wire batch of the two-field ``dtype``, its fields in order."""
    rec = np.empty(len(first), dtype=dtype)
    rec[dtype.names[0]] = first
    rec[dtype.names[1]] = second
    return rec


def _check_wire(rank: int, inbox, kinds: tuple[np.dtype, ...]) -> None:
    """Raise on a record of none of the dtypes ``kinds`` (e.g. an in-flight
    inbox of a checkpoint written in an older wire format), which a step
    that skipped it would leave unanswered."""
    for src, arr in inbox:
        if arr.dtype not in kinds:
            raise ValueError(
                f"rank {rank} got records of unknown dtype {arr.dtype} from rank {src}"
            )


def _pack(*outboxes: dict) -> dict[int, list[np.ndarray]]:
    """One array per outbox per destination, destinations in first-send
    order; a lone batch ships as is, since np.concatenate would copy it."""
    packed: dict[int, list[np.ndarray]] = {}
    for box in outboxes:
        for d, batches in box.items():
            packed.setdefault(d, []).append(
                batches[0] if len(batches) == 1 else np.concatenate(batches)
            )
    return packed


def _answer(
    F: np.ndarray,
    park,
    requests: list[tuple[int, np.ndarray]],
    fields: tuple[str, str],
    reply_dtype: np.dtype,
    owner,
    out,
    ctx: BSPRankContext,
) -> None:
    """Answer requests in bulk, the wait queues ``Q_k`` of Algorithms 3.1
    (Lines 11-19) and 3.2 (Lines 16-20, 24-25): first every request parked
    in ``park`` whose awaited slot of ``F`` has resolved, then each arriving
    ``(source, batch)`` of ``requests`` (source order) whose slot is known;
    the rest are parked.

    ``fields`` names a request's ``(requester, key)`` fields: ``key`` is the
    awaited slot as a flat index into ``F`` and ``requester`` goes back as
    the first field of a ``reply_dtype`` record to its owner, the rank that
    sent the request; a parked request's is found again as
    ``owner(requester)``.  ``park`` holds ``(key, requester)`` rows.  The
    replies and the work charged are those of parking every arrival and
    then draining the whole queue once: the known ``F`` is the same
    throughout, and the queue's old rows come first.  So the queue holds
    only the requests that must wait, never a superstep's whole inbox.
    """
    who_f, key_f = fields
    answered = _drain_parked(F, park, reply_dtype, owner, out)
    for src, req in requests:
        ctx.charge(work_items=len(req))
        key, who = req[key_f], req[who_f]
        vals = F.take(key)
        ready = vals >= 0
        n_ready = int(np.count_nonzero(ready))
        if n_ready:
            # every requester of a batch is its sender's, so are the replies
            out[src].append(_replies(ready, n_ready, who, vals, reply_dtype))
            answered += n_ready
        if n_ready < len(req):
            wait = ~ready
            park.push(np.compress(wait, key), np.compress(wait, who))
    if answered:
        ctx.charge(work_items=answered)


def _drain_parked(F: np.ndarray, park, reply_dtype: np.dtype, owner, out) -> int:
    """Answer the requests parked in ``park`` whose awaited slot of ``F``
    has resolved (see :func:`_answer`); returns how many."""
    if not len(park):
        return 0
    park_key, park_who = park.columns()
    vals = F.take(park_key)
    ready = vals >= 0
    n_ready = int(np.count_nonzero(ready))
    if not n_ready:
        return 0
    records = _replies(ready, n_ready, park_who, vals, reply_dtype)
    del vals
    park.keep(~ready)
    route_by_dest(out, records, owner(records[reply_dtype.names[0]]))
    return n_ready


def _replies(
    ready: np.ndarray, n_ready: int, who: np.ndarray, vals: np.ndarray, reply_dtype: np.dtype
) -> np.ndarray:
    """The ``reply_dtype`` records ``(who, vals)`` of the ``n_ready`` rows
    where ``ready``, compressed straight into the records' fields, so no
    per-field temporary is built."""
    records = np.empty(n_ready, dtype=reply_dtype)
    for name, col in zip(reply_dtype.names, (who, vals)):
        np.compress(ready, col, out=records[name])
    return records


class PAx1RankProgram:
    """One rank's state machine for Algorithm 3.1.

    Parameters
    ----------
    rank:
        This rank's id.
    partition:
        The node partition (any scheme from
        :mod:`repro.core.partitioning`).
    p:
        Direct-attachment probability.
    rng:
        This rank's private stream (node draws follow the two-uniforms-per-
        node protocol documented in the module docstring).
    out:
        Optional array of one slot per owned node that becomes ``F``
        (:meth:`ResultRegions.x1_region`), so the rank resolves into the
        run's output column instead of a private array.
    """

    def __init__(
        self,
        rank: int,
        partition: Partition,
        p: float,
        rng: np.random.Generator,
        queue_factory=None,
        out: np.ndarray | None = None,
    ) -> None:
        self.rank = rank
        self.part = partition
        self.p = p
        self.rng = rng
        self.nodes = partition.node_range(rank)
        if out is None:
            self.F = np.full(len(self.nodes), -1, dtype=np.int64)
        else:
            if out.shape != (len(self.nodes),):
                raise ValueError(
                    f"rank {rank} owns {len(self.nodes)} nodes, out has shape {out.shape}"
                )
            out.fill(-1)
            self.F = out
        self._started = False
        # ``queue_factory(ncols) -> RecordQueue`` is a test seam that
        # observes the queues; runs use the plain RecordQueue
        make = queue_factory or RecordQueue
        # local copy-chain waits: t (local idx) whose F[t] = -2 - kidx points
        # at another local slot; the sweep pointer-jumps those pointers
        self._pend = make(1)  # columns: (t local idx,)
        # remote requesters parked on an unknown local F_k (the wait queues
        # Q_k of Lines 14-15, kept in an amortised-doubling arena so each
        # superstep's append costs the batch, not the queue)
        self._park = make(2)  # columns: (k local idx awaited, t)
        # resolution progress (node 0 owns no attachment)
        self._unresolved = len(self.nodes) - int(0 in self.nodes)
        # paper's Figure 7 counters
        self.requests_sent = 0
        self.requests_received = 0

    # ------------------------------------------------------------ interface
    @property
    def done(self) -> bool:
        return self._started and self._unresolved == 0

    @property
    def sources(self) -> range:
        """Owned nodes ``t >= 1``, the sources of this rank's edges."""
        return self.nodes[int(0 in self.nodes) :]

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Local edges ``(t, F_t)`` for owned ``t >= 1``."""
        return _arange(self.sources), self.F[int(0 in self.nodes) :]

    def write_result(self, u: np.ndarray, v: np.ndarray) -> None:
        """Write the local edges into the columns ``u`` and ``v``; a program
        built on its :meth:`ResultRegions.x1_region` has its targets there
        already and fills only the sources."""
        _fill_range(u, self.sources)
        targets = self.F[int(0 in self.nodes) :]
        if not _same_memory(targets, v):
            v[:] = targets

    def write_edges(self, sink) -> None:
        """Append the local edges to ``sink`` (anything with ``append_arrays``)."""
        sink.append_arrays(*self.result())

    def local_edges(self) -> EdgeList:
        t, f = self.result()
        return EdgeList.from_arrays(t, f)

    def step(self, ctx: BSPRankContext, inbox) -> dict[int, list[np.ndarray]]:
        _check_wire(self.rank, inbox, (REQUEST_DTYPE, REPLY_DTYPE))
        out: dict[int, list[np.ndarray]] = defaultdict(list)

        # only the setup and a reply can give a pending row somewhere to
        # move: after a sweep each one points at an anchor, and only
        # ``_apply_resolved`` writes an anchor
        sweep = not self._started
        if sweep:
            self._started = True
            self._setup(ctx, out)

        for _src, arr in inbox:
            if arr.dtype == REPLY_DTYPE and len(arr):
                self._apply_resolved(arr, ctx)
                sweep = True

        _check_pend(self._pend)
        if sweep:
            self._local_sweep(ctx)

        requests = [(src, arr) for src, arr in inbox if arr.dtype == REQUEST_DTYPE and len(arr)]
        self.requests_received += sum(len(arr) for _src, arr in requests)
        replies: dict[int, list[np.ndarray]] = defaultdict(list)
        _answer(
            self.F, self._park, requests, ("t", "kidx"), REPLY_DTYPE, self.part.owner,
            replies, ctx,
        )
        return _pack(out, replies)

    # ------------------------------------------------------------- phases
    def _setup(self, ctx: BSPRankContext, out) -> None:
        """Lines 2-9: per-node draws and immediate/deferred attachment."""
        nodes = self.nodes
        ctx.charge(nodes=len(nodes))
        if 1 in nodes:
            self.F[nodes.index(1)] = 0
            self._unresolved -= 1
        # the node range is ascending and 0, 1 draw nothing
        for lo in range(int(0 in nodes) + int(1 in nodes), len(nodes), _BLOCK):
            self._draw_block(lo, nodes[lo : lo + _BLOCK], out)

    def _draw_block(self, lo: int, block: range, out) -> None:
        """Draw, attach or defer the nodes ``block``, local slots from ``lo``."""
        t = _arange(block)
        k, direct = draw_x1(self.rng, t, self.p)

        d_sel = np.flatnonzero(direct)
        self.F[lo + d_sel] = k.take(d_sel)
        self._unresolved -= len(d_sel)

        c_sel = np.flatnonzero(~direct)
        ck = k.take(c_sel)
        owners = self.part.owner(ck)
        is_local = owners == self.rank
        local = np.flatnonzero(is_local)
        if len(local):
            cidx = lo + c_sel.take(local)
            kidx = np.asarray(self.part.local_index(self.rank, ck.take(local)), dtype=np.int64)
            self.F[cidx] = -2 - kidx
            self._pend.push(cidx)
        remote = np.flatnonzero(~is_local)
        if len(remote):
            dest = owners.take(remote)
            kidx = np.asarray(self.part.local_index(dest, ck.take(remote)), dtype=np.int64)
            route_by_dest(
                out, _records(REQUEST_DTYPE, t.take(c_sel.take(remote)), kidx), dest
            )
            self.requests_sent += len(remote)

    def _apply_resolved(self, res: np.ndarray, ctx: BSPRankContext) -> None:
        """Lines 16-17: install ``F_t <- v`` for every resolved record."""
        tidx = np.asarray(self.part.local_index(self.rank, res["t"]), dtype=np.int64)
        self.F[tidx] = res["v"]
        self._unresolved -= len(tidx)
        ctx.charge(work_items=len(tidx))

    def _local_sweep(self, ctx: BSPRankContext) -> None:
        """Resolve local copy chains by pointer jumping inside ``F``.

        A pass hops each of its rows ``t`` to ``F[-2 - F[t]]`` (:func:`_hop`)
        unless that is ``-1``: a value resolves ``t`` and a pointer moves
        ``t`` one hop farther along its chain.  The first pass takes the
        whole pend queue; each later pass takes only the rows the pass
        before moved onto a pointer, the active-set rule of
        :func:`repro.seq.copy_model.resolve_pointers`, since a row that hit
        ``-1`` points at its chain's anchor, a node waiting on a remote
        reply, and nothing in the sweep writes one.  The queue is compacted
        once, after the last pass, and every row left points at its anchor.
        """
        if not len(self._pend):
            return
        (pend_t,) = self._pend.columns()
        F = self.F
        t = pend_t
        n_done = 0
        while True:
            nxt = _hop(F, t)
            jump = np.flatnonzero(nxt != -1)
            if len(jump) < len(t):
                if not len(jump):
                    break
                t, nxt = t.take(jump), nxt.take(jump)
            F[t] = nxt
            more = np.flatnonzero(nxt < -1)
            n_done += len(t) - len(more)
            if not len(more):
                break
            if len(more) < len(t):
                t = t.take(more)
        if not n_done:
            return
        self._unresolved -= n_done
        ctx.charge(work_items=n_done)
        if n_done == len(pend_t):
            self._pend.clear()
        else:
            self._pend.keep(F.take(pend_t) < -1)


def _hop(F: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One pointer jump of the pending slots ``t``: ``F[-2 - F[t]]``."""
    return F.take(-2 - F.take(t))


def _check_pend(pend) -> None:
    """Raise on a pend queue of another shape than ``(t idx,)``."""
    if len(pend) and pend.ncols != 1:
        raise ValueError(
            f"x=1 pend queue has {pend.ncols} columns, expected 1; "
            "checkpoints written before local waits moved into F do not resume"
        )


class ResultRegions:
    """A run's output columns, rank ``r``'s edges at ``[offsets[r], offsets[r + 1])``.

    The offsets come from :func:`repro.core.spill.rank_edge_counts`, the
    layout the spilled runs use on disk, or from any per-rank edge counts
    (:meth:`from_counts`).  The target column carries one extra leading
    slot, so the region of the rank that owns node 0 can start with node
    0's (edge-less) ``F`` slot: every x=1 program's ``F`` then fits its
    region exactly (:meth:`x1_region`).

    ``shared=True`` backs the columns with anonymous ``MAP_SHARED``
    mappings, so ranks forked after construction write their regions
    (:meth:`fill`) where the parent reads them.  Having no name, a mapping
    is gone with the last process that maps it: a killed run leaks none.
    """

    def __init__(self, x: int, partition: Partition, shared: bool = False) -> None:
        from repro.core.spill import rank_edge_counts

        self._lay_out(rank_edge_counts(x, partition.sizes(), partition.owner), shared)

    @classmethod
    def from_counts(cls, counts, shared: bool = False) -> "ResultRegions":
        """The regions of ranks emitting ``counts[r]`` edges each."""
        regions = cls.__new__(cls)
        regions._lay_out(counts, shared)
        return regions

    def _lay_out(self, counts, shared: bool) -> None:
        self.offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        m = int(self.offsets[-1])
        self.u = _column(m, shared)
        self._v = _column(m + 1, shared)
        self.v = self._v[1:]

    def x1_region(self, rank: int, nodes: range) -> np.ndarray:
        """Rank ``rank``'s slots of the target column, one per node of ``nodes``."""
        lo, hi = self.offsets[rank], self.offsets[rank + 1]
        return self._v[lo + (0 not in nodes) : hi + 1]

    def fill(self, rank: int, program) -> None:
        """Write rank ``rank``'s edges into its region, through its
        program's ``write_result``; the mp engine runs this inside the
        rank's worker, so no edge array travels back."""
        lo, hi = self.offsets[rank], self.offsets[rank + 1]
        program.write_result(self.u[lo:hi], self.v[lo:hi])

    def edges(self, programs=()) -> EdgeList:
        """Fill the region of each of ``programs`` (rank order) and wrap the
        columns as one :class:`EdgeList`."""
        for r, prog in enumerate(programs):
            self.fill(r, prog)
        return EdgeList.from_arrays(self.u, self.v, copy=False)


class RunOutput(NamedTuple):
    """A run's output (:func:`run_output`)."""

    regions: ResultRegions | None
    collect: Callable[[int, Any], Any]
    edges: Callable[[], Any]


def run_output(
    counts, out_of_core: str | None = None, budget_bytes: int | None = None,
    shared: bool = False,
) -> RunOutput:
    """The one output path of a run whose rank ``r`` emits ``counts[r]`` edges.

    ``collect(rank, program)`` is the engines' result hook and runs where
    the rank ran (in its worker on mp, so no edge array crosses a pipe);
    ``edges()`` returns the finished edge list.  In RAM the edges go into
    ``regions`` (``shared`` for ranks forked after this call) through
    :meth:`ResultRegions.fill`.  Out of core, ``regions`` is ``None``: the
    columns are files :func:`repro.core.spill.prepare_regions` lays out,
    ``collect`` hands the program an
    :class:`~repro.core.spill.EdgeShardWriter` over its region
    (``program.write_edges``) and returns the sealed manifest, and
    ``edges()`` verifies and adopts the files within ``budget_bytes``.
    """
    if out_of_core is None:
        regions = ResultRegions.from_counts(counts, shared)
        return RunOutput(regions, regions.fill, regions.edges)
    from repro.core import spill

    offsets = spill.prepare_regions(out_of_core, counts)

    def collect(rank: int, program) -> dict:
        writer = spill.EdgeShardWriter(out_of_core, rank, offsets)
        program.write_edges(writer)
        return writer.seal()

    def edges():
        budget = budget_bytes or spill.DEFAULT_BUDGET_BYTES
        return spill.assemble_shards(out_of_core, len(counts), budget)

    return RunOutput(None, collect, edges)


def _column(m: int, shared: bool) -> np.ndarray:
    """An uninitialised ``int64`` column of ``m`` values."""
    if not shared:
        return np.empty(m, dtype=np.int64)
    return np.frombuffer(mmap.mmap(-1, max(8 * m, 1)), dtype=np.int64, count=m)


def _same_memory(a: np.ndarray | None, b: np.ndarray) -> bool:
    return a is not None and a.shape == b.shape and a.ctypes.data == b.ctypes.data


def _fill_range(out: np.ndarray, nodes: range) -> None:
    """Write ``nodes`` into ``out`` in place, without a temporary."""
    if len(out):
        out.fill(nodes.step)
        out[0] = nodes.start
        np.cumsum(out, out=out)

