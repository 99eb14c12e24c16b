"""Literal per-message execution of Algorithms 3.1 and 3.2.

The bulk (BSP) implementations in :mod:`repro.core.parallel_pa` and
:mod:`repro.core.parallel_pa_general` are the production path; this module
runs the pseudocode *as written* — one ``<request, ...>`` or
``<resolved, ...>`` per message — on the event-driven
:class:`~repro.mpsim.runtime.Simulator`.  It exists to

* cross-validate the bulk engines (for ``x = 1`` both consume the identical
  per-node uniforms, so the generated graphs are **bit-identical**);
* demonstrate the paper's message-buffering rules (Section 3.5), including
  the round-robin deadlock: with buffering enabled, resolved messages held
  until their buffer fills (instead of the paper's flush-after-every-group
  rule) can produce circular waiting, which surfaces here as a
  :class:`~repro.mpsim.errors.DeadlockError`.

Buffering knobs:

``buffer_capacity=None``
    unbuffered — every record is its own message (the literal pseudocode);
``buffer_capacity=C`` with ``flush_on_idle=True``
    buffers flush when full *and* whenever the rank is about to block with
    no deliverable message — the safe policy (subsumes the paper's
    every-group rule for RRP);
``buffer_capacity=C`` with ``flush_on_idle=False``
    the hazardous hold-until-full policy; under RRP this deadlocks with
    non-negligible probability, which the test-suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.core.buffers import MessageBuffers
from repro.core.partitioning import Partition
from repro.graph.edgelist import EdgeList
from repro.mpsim.comm import Comm
from repro.mpsim.costmodel import CostModel
from repro.mpsim.datatypes import TAG_DEFAULT
from repro.mpsim.errors import DeadlockError
from repro.mpsim.runtime import Simulator
from repro.rng import StreamFactory

__all__ = ["run_event_driven_pa_x1", "run_event_driven_pa"]

_REQUEST = 0
_RESOLVED = 1

#: substream namespace for the confluent program's per-slot retry draws
_RETRY_NS = 101


class _Mailer:
    """Optional per-destination buffering in front of ``comm.send``."""

    def __init__(self, comm: Comm, capacity: int | None, flush_on_idle: bool) -> None:
        self.comm = comm
        self.flush_on_idle = flush_on_idle
        self.buffers = (
            MessageBuffers(comm.size, capacity) if capacity is not None else None
        )

    def post(self, dest: int, record: tuple) -> None:
        if dest == self.comm.rank:
            raise AssertionError("local records must not be mailed")
        if self.buffers is None:
            self.comm.send(dest, [record], tag=TAG_DEFAULT)
            return
        batch = self.buffers.add(dest, record)
        if batch is not None:
            self.comm.send(dest, batch, tag=TAG_DEFAULT)

    def flush_all(self) -> None:
        if self.buffers is None:
            return
        for dest, batch in self.buffers.flush_all():
            self.comm.send(dest, batch, tag=TAG_DEFAULT)

    def on_idle(self) -> None:
        if self.flush_on_idle:
            self.flush_all()

    @property
    def pending(self) -> int:
        return self.buffers.pending() if self.buffers else 0


def _pa_x1_program(
    comm: Comm,
    partition: Partition,
    p: float,
    factory: StreamFactory,
    results: list,
    buffer_capacity: int | None,
    flush_on_idle: bool,
):
    """Rank program: Algorithm 3.1 verbatim.

    Messages are tuples ``(_REQUEST, t, k)`` / ``(_RESOLVED, t, v)`` (lists
    of them when buffered).
    """
    rank = comm.rank
    rng = factory.stream(rank)
    nodes = partition.partition_nodes(rank)
    F = np.full(len(nodes), -1, dtype=np.int64)
    queues: dict[int, list[int]] = {}
    mail = _Mailer(comm, buffer_capacity, flush_on_idle)

    def lidx(u: int) -> int:
        return int(partition.local_index(rank, u))

    def cascade(start_idx: int) -> None:
        """F at start_idx just resolved: answer/resolve everything waiting."""
        stack = [start_idx]
        while stack:
            ki = stack.pop()
            v = int(F[ki])
            for t in queues.pop(ki, []):
                if int(partition.owner(t)) == rank:
                    ti = lidx(t)
                    F[ti] = v
                    stack.append(ti)
                else:
                    mail.post(int(partition.owner(t)), (_RESOLVED, t, v))

    # ---- Lines 2-9: the local generation phase --------------------------
    for t in nodes.tolist():
        comm.charge(nodes=1)
        if t == 0:
            continue
        if t == 1:
            F[lidx(1)] = 0
            cascade(lidx(1))
            continue
        u1, u2 = rng.random(2)
        k = 1 + int(u1 * (t - 1))
        if u2 < p:
            F[lidx(t)] = k
            cascade(lidx(t))
        else:
            owner_k = int(partition.owner(k))
            if owner_k == rank:
                ki = lidx(k)
                if F[ki] >= 0:
                    F[lidx(t)] = F[ki]
                    cascade(lidx(t))
                else:
                    queues.setdefault(ki, []).append(t)
            else:
                mail.post(owner_k, (_REQUEST, t, k))
    mail.flush_all()  # end of generation: outstanding requests must go out

    # ---- Lines 10-19: the message-serving phase --------------------------
    while True:
        if not comm.iprobe():
            mail.on_idle()
        msg = yield comm.recv_or_quiesce()
        if msg is None:
            break
        for record in msg.payload:
            comm.charge(work_items=1)
            kind, t, a = record
            if kind == _REQUEST:
                ki = lidx(a)
                if F[ki] >= 0:
                    mail.post(int(partition.owner(t)), (_RESOLVED, t, int(F[ki])))
                else:
                    queues.setdefault(ki, []).append(t)
            else:
                ti = lidx(t)
                F[ti] = a
                cascade(ti)

    if (F[nodes >= 1] < 0).any() or mail.pending:
        unresolved = int((F[nodes >= 1] < 0).sum())
        raise DeadlockError(
            f"rank {rank} quiesced with {unresolved} unresolved nodes and "
            f"{mail.pending} records stuck in outgoing buffers "
            "(hold-until-full buffering hazard, Section 3.5.2)",
            blocked_ranks=(rank,),
        )
    mask = nodes >= 1
    results[rank] = (nodes[mask], F[mask].copy())


def run_event_driven_pa_x1(
    n: int,
    partition: Partition,
    p: float = 0.5,
    seed: int | None = None,
    cost_model: CostModel | None = None,
    buffer_capacity: int | None = None,
    flush_on_idle: bool = True,
    fault_plan=None,
    schedule=None,
) -> tuple[EdgeList, Simulator]:
    """Run Algorithm 3.1 one-message-at-a-time; return (edges, simulator).

    Uses the same per-node uniform-consumption protocol as
    :class:`repro.core.parallel_pa.PAx1RankProgram`, so for equal
    ``(seed, partition, p)`` it produces the bsp engine's edge list.
    ``schedule`` (a :class:`repro.schedsim.Schedule`) permutes the
    simulator's delivery choices; the x=1 protocol is order-invariant, so
    any schedule yields the identical edge list.
    """
    if partition.n != n:
        raise ValueError(f"partition covers n={partition.n}, requested n={n}")
    factory = StreamFactory(seed)
    results: list = [None] * partition.P
    sim = Simulator(
        partition.P,
        cost_model=cost_model,
        fault_plan=fault_plan,
        schedule=schedule,
    )
    sim.run(
        _pa_x1_program,
        partition,
        p,
        factory,
        results,
        buffer_capacity,
        flush_on_idle,
    )
    edges = EdgeList(capacity=max(n - 1, 1))
    for t_arr, f_arr in results:
        edges.append_arrays(t_arr, f_arr)
    return edges, sim


def _pa_general_program(
    comm: Comm,
    partition: Partition,
    x: int,
    p: float,
    factory: StreamFactory,
    results: list,
    buffer_capacity: int | None,
    flush_on_idle: bool,
):
    """Rank program: Algorithm 3.2 verbatim (one record per message).

    Messages: ``(_REQUEST, t, e, k, l)`` and ``(_RESOLVED, t, e, v)``.
    """
    rank = comm.rank
    rng = factory.stream(rank)
    nodes = partition.partition_nodes(rank)
    F = np.full((len(nodes), x), -1, dtype=np.int64)
    queues: dict[tuple[int, int], list[tuple[int, int]]] = {}
    mail = _Mailer(comm, buffer_capacity, flush_on_idle)

    def lidx(u: int) -> int:
        return int(partition.local_index(rank, u))

    def row_has(ti: int, v: int) -> bool:
        return bool((F[ti] == v).any())

    def dispatch_copy(t: int, e: int) -> None:
        """Lines 27-29 (and the copy arm of Lines 4-14): draw (k, l), route."""
        k = x + int(rng.random() * (t - x))
        l = int(rng.random() * x)
        owner_k = int(partition.owner(k))
        if owner_k != rank:
            mail.post(owner_k, (_REQUEST, t, e, k, l))
            return
        ki = lidx(k)
        if F[ki, l] >= 0:
            settle(t, e, int(F[ki, l]))
        else:
            queues.setdefault((ki, l), []).append((t, e))

    def settle(t: int, e: int, v: int) -> None:
        """Lines 22-29: install v into F_t(e), or retry on duplicate."""
        ti = lidx(t)
        if row_has(ti, v):
            comm.charge(work_items=1)
            dispatch_copy(t, e)
            return
        F[ti, e] = v
        cascade(ti, e)

    def cascade(ti: int, e: int) -> None:
        v = int(F[ti, e])
        for (t2, e2) in queues.pop((ti, e), []):
            if int(partition.owner(t2)) == rank:
                settle(t2, e2, v)
            else:
                mail.post(int(partition.owner(t2)), (_RESOLVED, t2, e2, v))

    def generate_slot(t: int, e: int) -> None:
        """Lines 4-14 with the duplicate-redraw loop of Lines 6-10."""
        ti = lidx(t)
        while True:
            comm.charge(work_items=1)
            k = x + int(rng.random() * (t - x))
            if rng.random() < p:
                if not row_has(ti, k):
                    F[ti, e] = k
                    cascade(ti, e)
                    return
                continue  # "go to line 4"
            l = int(rng.random() * x)
            owner_k = int(partition.owner(k))
            if owner_k != rank:
                mail.post(owner_k, (_REQUEST, t, e, k, l))
                return
            ki = lidx(k)
            if F[ki, l] >= 0:
                v = int(F[ki, l])
                if row_has(ti, v):
                    continue  # duplicate found locally: full redraw
                F[ti, e] = v
                cascade(ti, e)
                return
            queues.setdefault((ki, l), []).append((t, e))
            return

    # ---- local generation phase ------------------------------------------
    for t in nodes.tolist():
        comm.charge(nodes=1)
        if t < x:
            continue
        if t == x:
            ti = lidx(t)
            F[ti, :] = np.arange(x)
            for e in range(x):
                cascade(ti, e)
            continue
        for e in range(x):
            generate_slot(t, e)
    mail.flush_all()

    # ---- message-serving phase --------------------------------------------
    while True:
        if not comm.iprobe():
            mail.on_idle()
        msg = yield comm.recv_or_quiesce()
        if msg is None:
            break
        for record in msg.payload:
            comm.charge(work_items=1)
            if record[0] == _REQUEST:
                _, t, e, k, l = record
                ki = lidx(k)
                if F[ki, l] >= 0:
                    mail.post(int(partition.owner(t)), (_RESOLVED, t, e, int(F[ki, l])))
                else:
                    queues.setdefault((ki, l), []).append((t, e))
            else:
                _, t, e, v = record
                settle(t, e, v)

    growing = nodes >= x
    if (F[growing] < 0).any() or mail.pending:
        unresolved = int((F[growing] < 0).sum())
        raise DeadlockError(
            f"rank {rank} quiesced with {unresolved} unresolved slots and "
            f"{mail.pending} buffered records",
            blocked_ranks=(rank,),
        )

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    clique = nodes[(nodes >= 1) & (nodes < x)]
    for j in clique.tolist():
        us.append(np.full(j, j, dtype=np.int64))
        vs.append(np.arange(j, dtype=np.int64))
    t_grow = nodes[growing]
    if len(t_grow):
        us.append(np.repeat(t_grow, x))
        vs.append(F[growing].reshape(-1))
    results[rank] = (
        np.concatenate(us) if us else np.empty(0, dtype=np.int64),
        np.concatenate(vs) if vs else np.empty(0, dtype=np.int64),
    )


def _pa_general_confluent_program(
    comm: Comm,
    partition: Partition,
    x: int,
    p: float,
    factory: StreamFactory,
    results: list,
    buffer_capacity: int | None,
    flush_on_idle: bool,
):
    """Rank program: Algorithm 3.2, rewritten to be delivery-order invariant.

    The verbatim program (:func:`_pa_general_program`) resolves duplicates
    first-come-first-served and draws retries from the rank's main stream, so
    its output is a function of message arrival order.  This variant makes
    every source of order-dependence a pure function of the *slot*:

    * **retry draws** for slot ``(t, e)`` at attempt ``a`` come from
      ``factory.substream(_RETRY_NS, t, e, a)`` — the redraw sequence no
      longer consumes the shared main stream in arrival order;
    * **duplicate arbitration** is min-slot-wins with stealing: when a
      proposed value already sits in the row at a higher slot, the lower slot
      *steals* it and the higher slot retries its next attempt, so the final
      (slot, value) assignment is the unique fixpoint of the per-slot
      proposal sequences, independent of proposal arrival order;
    * **serving is gated on complete rows**: a request for ``F_k(l)`` is
      answered only once row ``k`` is fully resolved (steals can rewrite a
      filled slot of an incomplete row, but a complete row has no outstanding
      proposals, so completeness — and every answer — is stable).  Row
      dependencies point to strictly smaller node ids, so the gate cannot
      deadlock.

    Messages are the same ``(_REQUEST, t, e, k, l)`` / ``(_RESOLVED, t, e, v)``
    tuples as the verbatim program.
    """
    rank = comm.rank
    rng = factory.stream(rank)
    nodes = partition.partition_nodes(rank)
    nloc = len(nodes)
    F = np.full((nloc, x), -1, dtype=np.int64)
    filled = np.zeros(nloc, dtype=np.int64)
    row_done = np.zeros(nloc, dtype=bool)
    # requesters parked until local row `ki` completes: ki -> [(t, e, l)]
    row_wait: dict[int, list[tuple[int, int, int]]] = {}
    attempts: dict[tuple[int, int], int] = {}
    completed: list[int] = []  # rows finished since the last drain
    mail = _Mailer(comm, buffer_capacity, flush_on_idle)

    def lidx(u: int) -> int:
        return int(partition.local_index(rank, u))

    def install(ti: int, e: int, v: int) -> None:
        F[ti, e] = v
        filled[ti] += 1
        if filled[ti] == x:
            row_done[ti] = True
            completed.append(ti)

    def retry(t: int, e: int) -> None:
        """Redraw slot ``(t, e)`` from its own per-attempt substream."""
        a = attempts.get((t, e), 0) + 1
        attempts[(t, e)] = a
        comm.charge(work_items=1)
        u1, u2 = factory.substream(_RETRY_NS, t, e, a).random(2)
        k = x + int(u1 * (t - x))
        l = int(u2 * x)
        route_copy(t, e, k, l)

    def route_copy(t: int, e: int, k: int, l: int) -> None:
        owner_k = int(partition.owner(k))
        if owner_k != rank:
            mail.post(owner_k, (_REQUEST, t, e, k, l))
            return
        ki = lidx(k)
        if row_done[ki]:
            propose(t, e, int(F[ki, l]))
        else:
            row_wait.setdefault(ki, []).append((t, e, l))

    def propose(t: int, e: int, v: int) -> None:
        """Offer value ``v`` to slot ``(t, e)`` under min-slot-wins."""
        ti = lidx(t)
        if F[ti, e] >= 0:
            return  # stale duplicate delivery; the slot already settled
        holders = np.flatnonzero(F[ti] == v)
        if len(holders):
            j = int(holders[0])
            if e < j:
                # steal: the lower slot keeps v, the higher slot redraws.
                # One slot fills and one empties, so `filled` is unchanged
                # and an incomplete row stays incomplete.
                F[ti, e] = v
                F[ti, j] = -1
                retry(t, j)
            else:
                retry(t, e)
            return
        install(ti, e, v)

    def drain_completed() -> None:
        """Answer everything parked on rows that completed (worklist —
        answering may complete further local rows)."""
        while completed:
            ki = completed.pop()
            for (t, e, l) in row_wait.pop(ki, []):
                v = int(F[ki, l])
                comm.charge(work_items=1)
                if int(partition.owner(t)) == rank:
                    propose(t, e, v)
                else:
                    mail.post(int(partition.owner(t)), (_RESOLVED, t, e, v))

    def generate_slot(t: int, e: int) -> None:
        """Initial draw (Lines 4-14); direct duplicates redraw inline."""
        ti = lidx(t)
        while True:
            comm.charge(work_items=1)
            k = x + int(rng.random() * (t - x))
            if rng.random() < p:
                if not (F[ti] == k).any():
                    install(ti, e, k)
                    return
                continue  # "go to line 4"
            l = int(rng.random() * x)
            route_copy(t, e, k, l)
            return

    # ---- local generation phase ------------------------------------------
    for t in nodes.tolist():
        comm.charge(nodes=1)
        if t < x:
            continue
        ti = lidx(t)
        if t == x:
            F[ti, :] = np.arange(x)
            filled[ti] = x
            row_done[ti] = True
            completed.append(ti)
        else:
            for e in range(x):
                generate_slot(t, e)
        drain_completed()
    mail.flush_all()

    # ---- message-serving phase --------------------------------------------
    while True:
        if not comm.iprobe():
            mail.on_idle()
        msg = yield comm.recv_or_quiesce()
        if msg is None:
            break
        for record in msg.payload:
            comm.charge(work_items=1)
            if record[0] == _REQUEST:
                _, t, e, k, l = record
                ki = lidx(k)
                if row_done[ki]:
                    mail.post(int(partition.owner(t)), (_RESOLVED, t, e, int(F[ki, l])))
                else:
                    row_wait.setdefault(ki, []).append((t, e, l))
            else:
                _, t, e, v = record
                propose(t, e, v)
            drain_completed()

    growing = nodes >= x
    if (F[growing] < 0).any() or mail.pending:
        unresolved = int((F[growing] < 0).sum())
        raise DeadlockError(
            f"rank {rank} quiesced with {unresolved} unresolved slots and "
            f"{mail.pending} buffered records",
            blocked_ranks=(rank,),
        )

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    clique = nodes[(nodes >= 1) & (nodes < x)]
    for j in clique.tolist():
        us.append(np.full(j, j, dtype=np.int64))
        vs.append(np.arange(j, dtype=np.int64))
    t_grow = nodes[growing]
    if len(t_grow):
        us.append(np.repeat(t_grow, x))
        vs.append(F[growing].reshape(-1))
    results[rank] = (
        np.concatenate(us) if us else np.empty(0, dtype=np.int64),
        np.concatenate(vs) if vs else np.empty(0, dtype=np.int64),
    )


def run_event_driven_pa(
    n: int,
    x: int,
    partition: Partition,
    p: float = 0.5,
    seed: int | None = None,
    cost_model: CostModel | None = None,
    buffer_capacity: int | None = None,
    flush_on_idle: bool = True,
    fault_plan=None,
    schedule=None,
    confluent: bool = True,
) -> tuple[EdgeList, Simulator]:
    """Run Algorithm 3.2 one-message-at-a-time; return (edges, simulator).

    ``confluent=True`` (the default) runs the delivery-order-invariant
    variant (:func:`_pa_general_confluent_program`): the generated graph is
    the same under *any* message delivery order, which the schedule fuzzer
    (:func:`repro.schedsim.explore`) asserts.  ``confluent=False`` runs the
    verbatim first-come-first-served pseudocode, whose output depends on
    arrival order — the knob the fuzzer's injected-bug tests flip.
    ``schedule`` (a :class:`repro.schedsim.Schedule`) permutes the
    simulator's delivery choices.
    """
    if partition.n != n:
        raise ValueError(f"partition covers n={partition.n}, requested n={n}")
    if x == 1:
        return run_event_driven_pa_x1(
            n,
            partition,
            p=p,
            seed=seed,
            cost_model=cost_model,
            buffer_capacity=buffer_capacity,
            flush_on_idle=flush_on_idle,
            fault_plan=fault_plan,
            schedule=schedule,
        )
    factory = StreamFactory(seed)
    results: list = [None] * partition.P
    sim = Simulator(
        partition.P,
        cost_model=cost_model,
        fault_plan=fault_plan,
        schedule=schedule,
    )
    sim.run(
        _pa_general_confluent_program if confluent else _pa_general_program,
        partition,
        x,
        p,
        factory,
        results,
        buffer_capacity,
        flush_on_idle,
    )
    edges = EdgeList(capacity=max(n * x, 1))
    for u_arr, v_arr in results:
        edges.append_arrays(u_arr, v_arr)
    return edges, sim
