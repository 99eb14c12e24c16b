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

The bulk implementation vectorises every phase; the only per-record Python
loops are queue parking/draining, which touch the (rare) unresolved tail.
Intra-batch duplicate arbitration keeps the first record per ``(t, v)`` pair
in batch order (:func:`repro.core.arbitration.first_wins`) — the bulk analogue
of the sequential first-come-first-served adjacency check.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.arbitration import first_wins
from repro.core.arena import RecordQueue
from repro.core.partitioning import Partition
from repro.core.routing import route_by_dest
from repro.graph.edgelist import EdgeList
from repro.mpsim.bsp import BSPRankContext

__all__ = ["GRECORD_DTYPE", "GREQ", "GRES", "PAGeneralRankProgram"]

#: Wire format: for requests ``a = k`` and ``l`` is the slot of ``F_k``;
#: for resolved records ``a = v`` and ``l`` is unused (-1).
GRECORD_DTYPE = np.dtype(
    [("kind", "i8"), ("t", "i8"), ("e", "i8"), ("a", "i8"), ("l", "i8")]
)
GREQ = 0
GRES = 1


def _grecords(kind: int, t: np.ndarray, e: np.ndarray, a: np.ndarray, l: np.ndarray) -> np.ndarray:
    rec = np.empty(len(t), dtype=GRECORD_DTYPE)
    rec["kind"] = kind
    rec["t"] = t
    rec["e"] = e
    rec["a"] = a
    rec["l"] = l
    return rec


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
        self.nodes = partition.partition_nodes(rank)
        self.F = np.full((len(self.nodes), x), -1, dtype=np.int64)
        self._started = False
        # ``queue_factory(ncols) -> RecordQueue`` swaps the queues' backing
        # (out-of-core runs pass repro.core.spill.SpillQueueFactory)
        make = queue_factory or RecordQueue
        # pending local copies: slot (t local idx, e) awaiting the value of
        # local flat slot `key`, i.e. F[k local idx, l]
        self._pend = make(3)  # columns: (key = kidx * x + l, t idx, e)
        # remote requesters parked on unknown local slots (the wait queues
        # Q_{k,l} of Lines 19-20, kept in an amortised-doubling arena so
        # each superstep's append costs the batch, not the queue):
        # waiting slot (t, e) needs the value of local flat slot `key`.
        self._park = make(3)  # columns: (key = kidx * x + l, t, e)
        self._unresolved = int((self.nodes >= x).sum()) * x
        self.requests_sent = 0
        self.requests_received = 0
        self.retries = 0

    # ------------------------------------------------------------ interface
    @property
    def done(self) -> bool:
        return self._started and self._unresolved == 0

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Local edges as ``(u, v)`` arrays: clique edges of owned clique
        nodes plus ``(t, F_t(e))`` for owned ``t >= x``."""
        us: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        clique = self.nodes[(self.nodes >= 1) & (self.nodes < self.x)]
        for j in clique.tolist():
            us.append(np.full(j, j, dtype=np.int64))
            vs.append(np.arange(j, dtype=np.int64))
        mask = self.nodes >= self.x
        t = self.nodes[mask]
        if len(t):
            us.append(np.repeat(t, self.x))
            vs.append(self.F[mask].reshape(-1))
        if not us:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(us), np.concatenate(vs)

    def local_edges(self) -> EdgeList:
        u, v = self.result()
        return EdgeList.from_arrays(u, v)

    def step(self, ctx: BSPRankContext, inbox) -> dict[int, list[np.ndarray]]:
        if self.canonical_inbox and len(inbox) > 1:
            inbox = sorted(inbox, key=lambda item: item[0])
        out: dict[int, list[np.ndarray]] = defaultdict(list)

        if not self._started:
            self._started = True
            self._setup(ctx, out)

        for _src, arr in inbox:
            res = arr[arr["kind"] == GRES]
            if len(res):
                self._apply_resolved(res, out, ctx)

        self._local_sweep(out, ctx)

        for _src, arr in inbox:
            req = arr[arr["kind"] == GREQ]
            if len(req):
                self._park_requests(req, ctx)

        self._drain_parked(out, ctx)
        return {d: [np.concatenate(b)] for d, b in out.items() if b}

    # --------------------------------------------------------------- setup
    def _setup(self, ctx: BSPRankContext, out) -> None:
        ctx.charge(nodes=len(self.nodes))

        # Node x: deterministic attachment to the whole clique.
        idx_x = np.flatnonzero(self.nodes == self.x)
        if len(idx_x):
            ti = int(idx_x[0])
            self.F[ti, :] = np.arange(self.x)
            self._unresolved -= self.x

        mask = self.nodes > self.x
        t = self.nodes[mask]
        if len(t) == 0:
            return
        tidx = np.flatnonzero(mask).astype(np.int64)
        T = np.repeat(t, self.x)
        Tidx = np.repeat(tidx, self.x)
        E = np.tile(np.arange(self.x, dtype=np.int64), len(t))
        self._draw_and_dispatch(Tidx, T, E, out, ctx, redraw_coin=True)

    # ------------------------------------------------------ draw machinery
    def _draw_and_dispatch(
        self,
        Tidx: np.ndarray,
        T: np.ndarray,
        E: np.ndarray,
        out,
        ctx: BSPRankContext,
        redraw_coin: bool,
    ) -> None:
        """Draw ``(k, coin[, l])`` for the given slots and route them.

        Direct slots attempt assignment immediately (redrawing on duplicates,
        per Lines 6-10); copy slots become local pendings or remote requests.
        ``redraw_coin=False`` implements the resolve-time retry of
        Lines 27-29, which is always copy-flavoured.
        """
        todo_idx, todo_t, todo_e = Tidx, T, E
        while len(todo_t):
            ctx.charge(work_items=len(todo_t))
            k = self.x + (self.rng.random(len(todo_t)) * (todo_t - self.x)).astype(np.int64)
            if redraw_coin:
                direct = self.rng.random(len(todo_t)) < self.p
            else:
                direct = np.zeros(len(todo_t), dtype=bool)

            # --- direct slots: try to assign v = k now -------------------
            d_sel = np.flatnonzero(direct)
            retry_direct = np.empty(0, dtype=np.int64)
            if len(d_sel):
                win = self._try_assign(todo_idx[d_sel], todo_e[d_sel], k[d_sel])
                retry_direct = d_sel[~win]
                self.retries += len(retry_direct)

            # --- copy slots: need F_k(l) ---------------------------------
            c_sel = np.flatnonzero(~direct)
            if len(c_sel):
                l = (self.rng.random(len(c_sel)) * self.x).astype(np.int64)
                ck, ct, ce, cidx = k[c_sel], todo_t[c_sel], todo_e[c_sel], todo_idx[c_sel]
                owners = self.part.owner(ck)
                local = owners == self.rank
                if local.any():
                    kloc = np.asarray(
                        self.part.local_index(self.rank, ck[local]), dtype=np.int64
                    )
                    self._pend.push(kloc * self.x + l[local], cidx[local], ce[local])
                remote = ~local
                if remote.any():
                    self._route(
                        out,
                        _grecords(GREQ, ct[remote], ce[remote], ck[remote], l[remote]),
                        owners[remote],
                    )
                    self.requests_sent += int(remote.sum())

            todo_idx = todo_idx[retry_direct]
            todo_t = todo_t[retry_direct]
            todo_e = todo_e[retry_direct]
            redraw_coin = True  # any further retry re-flips the coin

    def _try_assign(self, tidx: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Assign ``F[tidx, e] = v`` where legal; return the winner mask.

        A slot loses when ``v`` already sits in its row or an earlier record
        of the same batch claims the same ``(row, v)`` pair.
        """
        dup_row = (self.F[tidx] == v[:, None]).any(axis=1)
        win = first_wins(tidx, v, self.part.n) & ~dup_row
        if win.any():
            self.F[tidx[win], e[win]] = v[win]
            self._unresolved -= int(win.sum())
        return win

    # ------------------------------------------------------------ messages
    def _apply_resolved(self, res: np.ndarray, out, ctx: BSPRankContext) -> None:
        """Lines 21-29: install resolved values, retrying duplicates."""
        tidx = np.asarray(self.part.local_index(self.rank, res["t"]), dtype=np.int64)
        ctx.charge(work_items=len(tidx))
        win = self._try_assign(tidx, res["e"], res["a"])
        lose = ~win
        if lose.any():
            self.retries += int(lose.sum())
            self._draw_and_dispatch(
                tidx[lose], res["t"][lose], res["e"][lose], out, ctx, redraw_coin=False
            )

    def _local_sweep(self, out, ctx: BSPRankContext) -> None:
        """Resolve local copy slots whose source slot is now known."""
        while len(self._pend):
            pend_key, pend_t, pend_e = self._pend.columns()
            vals = self.F.reshape(-1)[pend_key]
            ready = vals >= 0
            if not ready.any():
                return
            rt, re_, rv = pend_t[ready], pend_e[ready], vals[ready]
            self._pend.keep(~ready)
            ctx.charge(work_items=len(rt))
            win = self._try_assign(rt, re_, rv)
            lose = ~win
            if lose.any():
                self.retries += int(lose.sum())
                self._draw_and_dispatch(
                    rt[lose], self.nodes[rt[lose]], re_[lose], out, ctx, redraw_coin=False
                )

    def _park_requests(self, req: np.ndarray, ctx: BSPRankContext) -> None:
        """Lines 16-20: park arriving requests on their target slot.

        Known slots are answered in :meth:`_drain_parked` at the end of the
        same step — identical messages, one vectorised code path.
        """
        self.requests_received += len(req)
        ctx.charge(work_items=len(req))
        kidx = np.asarray(self.part.local_index(self.rank, req["a"]), dtype=np.int64)
        self._park.push(kidx * self.x + req["l"], req["t"], req["e"])

    def _drain_parked(self, out, ctx: BSPRankContext) -> None:
        """Answer every parked request whose slot has resolved (Lines 17-18
        and 24-25, executed in bulk)."""
        if not len(self._park):
            return
        park_key, park_t, park_e = self._park.columns()
        vals = self.F.reshape(-1)[park_key]
        ready = vals >= 0
        if not ready.any():
            return
        t_out = park_t[ready]
        e_out = park_e[ready]
        v_out = vals[ready]
        self._park.keep(~ready)
        ctx.charge(work_items=len(t_out))
        self._route(
            out,
            _grecords(GRES, t_out, e_out, v_out, np.full(len(t_out), -1, dtype=np.int64)),
            self.part.owner(t_out),
        )

    def _route(self, out, records: np.ndarray, dests: np.ndarray) -> None:
        route_by_dest(out, records, dests)

