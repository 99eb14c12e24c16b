"""Algorithm 3.2 — parallel preferential attachment with ``x >= 1`` edges/node.

Extends :mod:`repro.core.parallel_pa` to the general case: the network starts
from a clique on nodes ``0 .. x-1``; every node ``t >= x`` contributes ``x``
distinct edges.  Per edge slot ``(t, e)`` the owner draws ``k`` uniform in
``[x, t-1]`` and a coin:

* **direct** (probability ``p``): attach to ``k`` unless ``k`` already sits
  in ``F_t`` — then redraw ``k`` *and* the coin (Lines 6-10, "go to line 4");
* **copy** (probability ``1 - p``): attach to ``F_k(l)``, ``l`` uniform in
  ``[0, x)``; remote ``k`` becomes a ``<request, t, e, k, l>`` message
  (Lines 11-14).

Duplicates that surface only when a ``<resolved, t, e, v>`` arrives (two
slots copying different chains that happen to end at the same ``v``) are
handled per Lines 26-29: draw a fresh ``(k, l)`` and re-send a request —
note the paper's retry is always copy-flavoured, a deliberate asymmetry this
implementation preserves.

Node ``x`` is the boundary case the pseudocode leaves implicit: its draw
range ``[x, t-1]`` is empty, and its ``x`` distinct targets must come from
the ``x`` existing nodes — so ``F_x = {0, .., x-1}`` deterministically.

The bulk implementation vectorises every phase, queue parking and draining
included.
Intra-batch duplicate arbitration keeps the first record per ``(t, v)`` pair
in batch order (:func:`repro.core.arbitration.first_wins`) — the bulk analogue
of the sequential first-come-first-served adjacency check.

Wire format: a rank sends each destination at most two arrays a superstep,
one per record kind, and the kind is the array's dtype.  A request is
:data:`REQUEST_DTYPE` ``(slot, key)``: the requester's slot ``slot = t * x +
e`` and the slot it copies as the owner's flat index ``key = kidx * x + l``
into ``F`` (the sender knows the owner-local ``kidx``, since the partition is
a pure function).  A reply is :data:`REPLY_DTYPE` ``(slot, v)``; its receiver
recovers ``(t, e) = divmod(slot, x)``.  Both are 16 B; the engines charge
each record the paper's 40 B ``<request, t, e, k, l>`` nonetheless, which the
dtypes declare, so simulated time and traffic statistics do not depend on
the encoding.  A step applies the replies of every source in source order
and sweeps its local copies, so duplicate arbitration sees the same batches
however the records are packed.  It then answers requests on arrival, as
the paper's ``Q_k`` protocol does (Lines 16-20, 24-25): first the parked
requests whose slot has resolved, then each source's requests (source
order) whose slot is known, parking only the rest
(:func:`repro.core.parallel_pa._answer`, the one answer path of both
algorithms).  The replies and the work charged are those of parking every
arrival and draining once, so the wait queue holds what must wait, never a
superstep's whole inbox.

Randomness protocol: the setup gives each owned node ``t > x`` its ``x``
slots ``(t, 0) .. (t, x-1)``, in node order; with ``N`` such slots on the
rank, slot ``s`` takes its ``k`` from stream position ``s``, its coin from
``N + s`` and, if it copies, its ``l`` from ``2N`` plus the number of copy
slots before it.  Direct slots that lose their assignment to a duplicate are
redrawn, ``k`` and coin and (for copies) ``l`` together, from position ``2N
+ C`` on (``C`` copy slots in all); every later retry continues the stream
from there.

Memory: a rank's setup scratch is bounded by its draw block, not its node
count.  The setup walks the rank's node range (never materialised as an id
array) in blocks of :data:`_BLOCK` nodes with three cursors on the stream,
its bit-generator states at positions ``0``, ``N`` and ``2N`` (made with
``bit_generator.advance``), each swapped in for its block's draws; so every
block reads exactly the values one whole-rank draw would, through the rank's
own generator.  A slot's row ``F_t`` is only ever written by the
slots of ``t``, so the blocks' duplicate checks see what the whole-rank
batch saw.  The losers of all blocks are redrawn once, after the last block,
as one batch.  Every later batch is checked against ``F`` in blocks of
:data:`_BLOCK` records as well (:meth:`PAGeneralRankProgram._in_row` gathers
a block's rows with one ``take``), so the duplicate check never holds a
``(batch, x)`` gather of ``F``, however many replies or local copies a
superstep resolves.  Selections are ``take`` and ``compress`` over index
arrays rather than boolean-mask indexing, which stalls on mispredicted
branches at mid densities (docs/performance.md, "Selecting rows").  ``F``
itself is allocated by the first step, inside the process that runs the
rank, and :meth:`PAGeneralRankProgram.write_result` writes the rank's edges
straight into the output's region
(:class:`repro.core.parallel_pa.ResultRegions`), ``F``'s rows as the
``(nt, x)`` shape of the target column, with no concatenated temporary.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

import numpy as np

from repro.core.arbitration import first_wins
from repro.core.arena import RecordQueue
from repro.core.parallel_pa import _answer, _arange, _check_wire, _pack, _records
from repro.core.partitioning import Partition
from repro.core.routing import route_by_dest
from repro.graph.edgelist import EdgeList
from repro.mpsim.bsp import BSPRankContext

__all__ = ["REPLY_DTYPE", "REQUEST_DTYPE", "PAGeneralRankProgram"]

#: Wire format, one dtype per kind (see the module docstring).  Each record
#: is 16 B on the wire and charged as the paper's 40 B
#: ``<request, t, e, k, l>`` (:func:`repro.mpsim.datatypes.charged_nbytes`).
_CHARGED = {"charged_bytes": 40}
REQUEST_DTYPE = np.dtype([("slot", "i8"), ("key", "i8")], metadata=_CHARGED)
REPLY_DTYPE = np.dtype([("slot", "i8"), ("v", "i8")], metadata=_CHARGED)

#: nodes per draw block of :meth:`PAGeneralRankProgram._setup`; a block's
#: ``x * _BLOCK`` slots of draws and index arrays are the setup's whole
#: scratch (~18.5 MiB at x = 4), whatever the rank's node count; also the
#: records per block of the duplicate check :meth:`PAGeneralRankProgram._in_row`
_BLOCK = 1 << 16


def _draws_at(rng: np.random.Generator, state: dict, n: int) -> tuple[np.ndarray, dict]:
    """``n`` uniforms of ``rng``'s stream from the bit-generator ``state``
    on, and the state after them; ``rng`` is left where it was."""
    bg = rng.bit_generator
    here, bg.state = bg.state, state
    u = rng.random(n)
    after, bg.state = bg.state, here
    return u, after


class PAGeneralRankProgram:
    """One rank's state machine for Algorithm 3.2 (see module docstring)."""

    def __init__(
        self,
        rank: int,
        partition: Partition,
        x: int,
        p: float,
        rng: np.random.Generator,
        canonical_inbox: bool = True,
        queue_factory=None,
    ) -> None:
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        self.rank = rank
        self.part = partition
        self.x = x
        self.p = p
        self.rng = rng
        # Sort each superstep's inbox by source rank before processing.  The
        # program's intra-batch arbitration and retry draws depend on record
        # order, so without this the result is a function of the exchange's
        # delivery order; the stable sort restores a canonical order no matter
        # how the transport interleaved senders.  ``False`` exposes the raw
        # order — the injected bug the schedule fuzzer must catch.
        self.canonical_inbox = canonical_inbox
        self.nodes = partition.node_range(rank)
        # ``F[i, e]``: slot ``e`` of the rank's ``i``-th node, -1 while
        # unknown; allocated by the first step, in the process running it
        self.F: np.ndarray | None = None
        self._started = False
        # ``queue_factory(ncols) -> RecordQueue`` is a test seam that
        # observes the queues; runs use the plain RecordQueue
        make = queue_factory or RecordQueue
        # pending local copies: local flat slot `lslot = tidx * x + e`
        # awaiting the value of local flat slot `key`, i.e. F[k local idx, l]
        self._pend = make(2)  # columns: (key = kidx * x + l, lslot)
        # remote requesters parked on unknown local slots (the wait queues
        # Q_{k,l} of Lines 19-20, kept in an amortised-doubling arena so
        # each superstep's append costs the batch, not the queue):
        # the requester's slot `slot = t * x + e` needs local flat slot `key`.
        self._park = make(2)  # columns: (key = kidx * x + l, slot)
        self._unresolved = (len(self.nodes) - bisect_left(self.nodes, x)) * x
        self.requests_sent = 0
        self.requests_received = 0
        self.retries = 0

    # ------------------------------------------------------------ interface
    @property
    def done(self) -> bool:
        return self._started and self._unresolved == 0

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Local edges as ``(u, v)`` arrays (see :meth:`write_result`)."""
        clique = self.nodes[: bisect_left(self.nodes, self.x)]
        m = sum(clique) + (len(self.nodes) - len(clique)) * self.x
        u = np.empty(m, dtype=np.int64)
        v = np.empty(m, dtype=np.int64)
        self.write_result(u, v)
        return u, v

    def write_result(self, u: np.ndarray, v: np.ndarray) -> None:
        """Write the local edges into the columns ``u`` and ``v``: clique
        edges ``(j, i)``, ``i < j``, of owned clique nodes ``j``, then
        ``(t, F_t(e))`` for owned ``t >= x`` in node and slot order."""
        x, nodes = self.x, self.nodes
        c = bisect_left(nodes, x)
        pos = 0
        for j in nodes[:c]:
            u[pos : pos + j] = j
            v[pos : pos + j] = np.arange(j)
            pos += j
        rows = len(nodes) - c
        u[pos:].reshape(rows, x)[:] = _arange(nodes[c:])[:, None]
        v[pos:].reshape(rows, x)[:] = self.F[c:]

    def write_edges(self, sink) -> None:
        """Append the local edges to ``sink`` (anything with ``append_arrays``)."""
        sink.append_arrays(*self.result())

    def local_edges(self) -> EdgeList:
        u, v = self.result()
        return EdgeList.from_arrays(u, v)

    def step(self, ctx: BSPRankContext, inbox) -> dict[int, list[np.ndarray]]:
        _check_wire(self.rank, inbox, (REQUEST_DTYPE, REPLY_DTYPE))
        if self.canonical_inbox and len(inbox) > 1:
            inbox = sorted(inbox, key=lambda item: item[0])
        out: dict[int, list[np.ndarray]] = defaultdict(list)

        if not self._started:
            self._started = True
            self._setup(ctx, out)

        for _src, arr in inbox:
            if arr.dtype == REPLY_DTYPE:
                self._apply_resolved(arr, out, ctx)

        self._local_sweep(out, ctx)

        requests = [(src, arr) for src, arr in inbox if arr.dtype == REQUEST_DTYPE]
        self.requests_received += sum(len(arr) for _src, arr in requests)
        replies: dict[int, list[np.ndarray]] = defaultdict(list)
        _answer(
            self.F, self._park, requests, ("slot", "key"), REPLY_DTYPE, self._requester_owner,
            replies, ctx,
        )
        packed = _pack(out, replies)
        # destinations in rank order: a fault plan draws a message's fate in
        # the order the engine posts them
        return {d: packed[d] for d in sorted(packed)}

    # --------------------------------------------------------------- setup
    def _setup(self, ctx: BSPRankContext, out) -> None:
        """Allocate ``F``, then draw and dispatch every slot of the owned
        nodes ``t > x`` block by block (see the module docstring)."""
        nodes, x = self.nodes, self.x
        ctx.charge(nodes=len(nodes))
        self.F = np.full((len(nodes), x), -1, dtype=np.int64)

        # Node x: deterministic attachment to the whole clique.
        if x in nodes:
            self.F[nodes.index(x)] = np.arange(x)
            self._unresolved -= x

        first = bisect_left(nodes, x + 1)
        slots = (len(nodes) - first) * x
        if not slots:
            return
        ctx.charge(work_items=slots)
        # cursors at stream positions 0 (k) and N (coins); the stream itself
        # moves on to 2N, where the copy slots draw their l
        bg = self.rng.bit_generator
        cursors = [bg.state]
        bg.advance(slots)
        cursors.append(bg.state)
        bg.advance(slots)
        losers = [
            self._draw_block(lo, nodes[lo : lo + _BLOCK], cursors, out)
            for lo in range(first, len(nodes), _BLOCK)
        ]
        lose_idx, lose_e = (np.concatenate(cols) for cols in zip(*losers))
        self._draw_and_dispatch(lose_idx, lose_e, out, ctx, redraw_coin=True)

    def _draw_block(
        self, lo: int, block: range, cursors: list[dict], out
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw and dispatch the slots of the nodes ``block``, local rows
        from ``lo``, advancing the ``[k, coin]`` stream ``cursors``; return
        the ``(row, e)`` of the direct slots that lost."""
        x = self.x
        Tidx = np.repeat(np.arange(lo, lo + len(block), dtype=np.int64), x)
        E = np.tile(np.arange(x, dtype=np.int64), len(block))
        # k = x + floor(u * (t - x)), in place on the uniforms
        u, cursors[0] = _draws_at(self.rng, cursors[0], len(Tidx))
        u *= np.repeat(_arange(block) - x, x)
        k = u.astype(np.int64)
        k += x
        u, cursors[1] = _draws_at(self.rng, cursors[1], len(Tidx))
        direct = u < self.p
        del u
        lose = self._dispatch(Tidx, E, k, direct, out)
        return Tidx.take(lose), E.take(lose)

    # ------------------------------------------------------ draw machinery
    def _draw_and_dispatch(
        self,
        Tidx: np.ndarray,
        E: np.ndarray,
        out,
        ctx: BSPRankContext,
        redraw_coin: bool,
    ) -> None:
        """Draw ``(k, coin[, l])`` for the slots ``(Tidx, E)`` and route
        them, redrawing direct slots that lose (Lines 6-10) until none does.

        ``redraw_coin=False`` implements the resolve-time retry of
        Lines 27-29, which is always copy-flavoured.
        """
        todo_idx, todo_e = Tidx, E
        while len(todo_idx):
            ctx.charge(work_items=len(todo_idx))
            span = self._node_ids(todo_idx) - self.x
            k = self.x + (self.rng.random(len(todo_idx)) * span).astype(np.int64)
            if redraw_coin:
                direct = self.rng.random(len(todo_idx)) < self.p
            else:
                direct = np.zeros(len(todo_idx), dtype=bool)
            lose = self._dispatch(todo_idx, todo_e, k, direct, out)
            todo_idx, todo_e = todo_idx.take(lose), todo_e.take(lose)
            redraw_coin = True  # any further retry re-flips the coin

    def _dispatch(
        self,
        Tidx: np.ndarray,
        E: np.ndarray,
        k: np.ndarray,
        direct: np.ndarray,
        out,
    ) -> np.ndarray:
        """Route one batch of drawn slots; return the losing direct slots
        as positions in the batch.

        Direct slots attempt assignment immediately; copy slots draw ``l``
        from the rank's stream and become local pendings or remote requests.
        """
        d_sel = np.flatnonzero(direct)
        lose = np.empty(0, dtype=np.int64)
        if len(d_sel):
            win = self._try_assign(Tidx.take(d_sel), E.take(d_sel), k.take(d_sel))
            lose = np.compress(~win, d_sel)
            self.retries += len(lose)

        c_sel = np.flatnonzero(~direct)
        if len(c_sel):
            l = (self.rng.random(len(c_sel)) * self.x).astype(np.int64)
            ck, ce, cidx = (a.take(c_sel) for a in (k, E, Tidx))
            owners = self.part.owner(ck)
            key = self.part.local_index(owners, ck) * self.x + l
            is_local = owners == self.rank
            local = np.flatnonzero(is_local)
            if len(local):
                self._pend.push(key.take(local), cidx.take(local) * self.x + ce.take(local))
            remote = np.flatnonzero(~is_local)
            if len(remote):
                slot = self._node_ids(cidx.take(remote)) * self.x + ce.take(remote)
                route_by_dest(
                    out,
                    _records(REQUEST_DTYPE, slot, key.take(remote)),
                    owners.take(remote),
                )
                self.requests_sent += len(remote)
        return lose

    def _requester_owner(self, slot: np.ndarray) -> np.ndarray:
        """Ranks owning the requesters' slots ``slot = t * x + e``."""
        return self.part.owner(slot // self.x)

    def _node_ids(self, idx: np.ndarray) -> np.ndarray:
        """Node ids of the local rows ``idx``."""
        return self.nodes.start + idx * self.nodes.step

    def _try_assign(self, tidx: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Assign ``F[tidx, e] = v`` where legal; return the winner mask.

        A slot loses when ``v`` already sits in its row or an earlier record
        of the same batch claims the same ``(row, v)`` pair.
        """
        win = first_wins(tidx, v, self.part.n)
        win &= ~self._in_row(tidx, v)
        w = np.flatnonzero(win)
        if len(w):
            self.F[tidx.take(w), e.take(w)] = v.take(w)
            self._unresolved -= len(w)
        return win

    def _in_row(self, tidx: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Mask of the records whose ``v`` already sits in row ``F[tidx]``.

        Reads ``F`` as it stands, in blocks of at most :data:`_BLOCK`
        records: each block gathers its rows with one ``take`` and compares
        them column by column, so the scratch is one ``(_BLOCK, x)`` block
        whatever the batch length.
        """
        found = np.empty(len(tidx), dtype=bool)
        for lo in range(0, len(tidx), _BLOCK):
            rows = self.F.take(tidx[lo : lo + _BLOCK], axis=0)
            vb, fb = v[lo : lo + _BLOCK], found[lo : lo + _BLOCK]
            np.equal(rows[:, 0], vb, out=fb)
            for j in range(1, self.x):
                fb |= rows[:, j] == vb
        return found

    # ------------------------------------------------------------ messages
    def _apply_resolved(self, res: np.ndarray, out, ctx: BSPRankContext) -> None:
        """Lines 21-29: install resolved values, retrying duplicates."""
        t, e = np.divmod(res["slot"], self.x)
        tidx = np.asarray(self.part.local_index(self.rank, t), dtype=np.int64)
        ctx.charge(work_items=len(tidx))
        win = self._try_assign(tidx, e, res["v"])
        lose = np.flatnonzero(~win)
        if len(lose):
            self.retries += len(lose)
            self._draw_and_dispatch(
                tidx.take(lose), e.take(lose), out, ctx, redraw_coin=False
            )

    def _local_sweep(self, out, ctx: BSPRankContext) -> None:
        """Resolve local copy slots whose source slot is now known."""
        while len(self._pend):
            pend_key, pend_slot = self._pend.columns()
            vals = self.F.take(pend_key)
            ready = vals >= 0
            if not ready.any():
                return
            rt, re_ = np.divmod(np.compress(ready, pend_slot), self.x)
            rv = np.compress(ready, vals)
            self._pend.keep(~ready)
            ctx.charge(work_items=len(rt))
            win = self._try_assign(rt, re_, rv)
            lose = np.flatnonzero(~win)
            if len(lose):
                self.retries += len(lose)
                lt = rt.take(lose)
                self._draw_and_dispatch(lt, re_.take(lose), out, ctx, redraw_coin=False)
