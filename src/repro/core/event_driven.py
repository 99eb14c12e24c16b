"""Literal per-message execution of Algorithm 3.1 (``x = 1``).

The bulk (BSP) implementation in :mod:`repro.core.parallel_pa` is the
production path; this module runs the pseudocode *as written* — one
``<request, ...>`` or ``<resolved, ...>`` per message — on the event-driven
:class:`~repro.mpsim.runtime.Simulator`.  It exists to

* cross-validate the bulk engines (both consume the identical per-node
  uniforms, so the generated graphs are **bit-identical**, under any
  delivery order);
* demonstrate the paper's message-buffering rules (Section 3.5), including
  the round-robin deadlock: with buffering enabled, resolved messages held
  until their buffer fills (instead of the paper's flush-after-every-group
  rule) can produce circular waiting, which surfaces here as a
  :class:`~repro.mpsim.errors.DeadlockError`.

Algorithm 3.2 (``x > 1``) runs on the superstep engines only:
``generate(engine="event")`` rejects ``x > 1`` and points at ``"bsp"``.

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

__all__ = ["run_event_driven_pa_x1"]

_REQUEST = 0
_RESOLVED = 1


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
    sim = Simulator(partition.P, cost_model=cost_model, schedule=schedule)
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

