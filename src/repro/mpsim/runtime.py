"""Event-driven simulated message-passing runtime.

Each rank runs a Python *coroutine* (a generator function) against a
:class:`~repro.mpsim.comm.Comm` handle.  Sends are eager and buffered, as in
the paper's MPI implementation; receives block by yielding an operation
object to the scheduler:

.. code-block:: python

    def program(comm):
        if comm.rank == 0:
            comm.send(1, ("hello", 42))
        else:
            msg = yield Recv()          # blocks until a message arrives
            ...

The scheduler is a conservative discrete-event simulation:

* every rank owns a virtual clock, advanced by the
  :class:`~repro.mpsim.costmodel.CostModel` charges of the work it does;
* a send at sender-time ``s`` is deliverable at ``s + alpha + beta*nbytes``;
* a blocked receiver resumes at ``max(receiver clock, delivery time)``;
* each rank's mailbox is a heap keyed ``(delivery time, send order)``, and a
  receive takes its top;
* among runnable events the scheduler always picks the globally smallest
  timestamp (ties broken by send order), so runs are fully deterministic.

Two termination-related behaviours matter for the paper's algorithms:

* :class:`Recv` with no message and no possibility of one is a
  *deadlock*; the runtime detects global quiescence with unsatisfied plain
  receives and raises :class:`~repro.mpsim.errors.DeadlockError`.  This is
  how the test-suite demonstrates the RRP buffering hazard of Section 3.5.2.
* :class:`RecvOrQuiesce` returns ``None`` instead when *all* ranks are
  blocked in :class:`RecvOrQuiesce` and no messages are in flight — a
  built-in termination detector, standing in for the termination protocol a
  real MPI implementation of Algorithm 3.1 would run.

The simulator injects no faults: a :class:`~repro.mpsim.faults.FaultPlan`
crashes ranks at superstep boundaries, which only the superstep engines
have.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Generator

from repro.mpsim.costmodel import CostModel
from repro.mpsim.datatypes import Envelope, payload_nbytes
from repro.mpsim.errors import (
    DeadlockError,
    InvalidRankError,
    MPSimError,
    RankFailure,
)
from repro.mpsim.stats import WorldStats

__all__ = ["Recv", "RecvOrQuiesce", "Simulator", "Message"]


@dataclass(frozen=True)
class Message:
    """What a receive operation returns to the rank program."""

    source: int
    tag: int
    payload: Any


@dataclass(frozen=True)
class Recv:
    """Blocking receive of the rank's next message."""


@dataclass(frozen=True)
class RecvOrQuiesce:
    """Receive like :class:`Recv`, but yield ``None`` on global quiescence."""


_RankProgram = Callable[..., Generator[Any, Any, Any]]

#: an envelope's heap order, as a key (cheaper to sort by than its ``__lt__``)
_ORDER = attrgetter("deliver_at", "seq")


class _RankState:
    """Scheduler bookkeeping for one rank."""

    __slots__ = ("rank", "gen", "clock", "mailbox", "blocked_on", "finished", "comm")

    def __init__(self, rank: int, gen: Generator[Any, Any, Any], comm: Any) -> None:
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        #: heap of undelivered envelopes, earliest ``(deliver_at, seq)`` first
        self.mailbox: list[Envelope] = []
        self.blocked_on: Recv | RecvOrQuiesce | None = None
        self.finished = False
        self.comm = comm


class Simulator:
    """Run ``size`` rank coroutines to completion under a virtual clock.

    Parameters
    ----------
    size:
        Number of simulated ranks.
    cost_model:
        Charges for compute and communication; defaults to the paper-testbed
        preset.

    Examples
    --------
    >>> from repro.mpsim.runtime import Simulator, Recv
    >>> def program(comm):
    ...     if comm.rank == 0:
    ...         comm.send(1, 99)
    ...     else:
    ...         msg = yield Recv()
    ...         assert msg.payload == 99
    >>> Simulator(2).run(program)  # doctest: +ELLIPSIS
    WorldStats(...)
    """

    def __init__(
        self,
        size: int,
        cost_model: CostModel | None = None,
        schedule: Any = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.cost = cost_model or CostModel()
        #: Optional :class:`repro.schedsim.Schedule`.  When set, every
        #: delivery pick (which blocked rank resumes, which envelope it
        #: consumes), the initial rank kick order, and the quiescence
        #: release order become explicit choice points — index 0 always
        #: being the unscheduled run's choice, so a baseline schedule
        #: reproduces the unscheduled run bit-exactly.
        self.schedule = schedule
        self.stats = WorldStats.for_size(size)
        self._seq = 0
        self._ranks: list[_RankState] = []

    # ------------------------------------------------------------------ send
    def post_send(self, source: int, dest: int, payload: Any, tag: int) -> None:
        """Called by :class:`~repro.mpsim.comm.Comm` to enqueue a message."""
        if not 0 <= dest < self.size:
            raise InvalidRankError(f"destination rank {dest} outside [0, {self.size})")
        sender = self._ranks[source]
        nbytes = payload_nbytes(payload)
        sender.clock += self.cost.message_time(1, nbytes)
        self.stats[source].record_send(1, nbytes)
        self.stats[source].busy_time = sender.clock
        latency = self.cost.alpha + self.cost.beta * nbytes
        self._seq += 1
        env = Envelope(
            deliver_at=sender.clock + latency,
            seq=self._seq,
            source=source,
            dest=dest,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
        )
        heapq.heappush(self._ranks[dest].mailbox, env)

    def iprobe(self, rank: int) -> bool:
        """Non-blocking probe: is a message already deliverable?"""
        st = self._ranks[rank]
        return bool(st.mailbox) and st.mailbox[0].deliver_at <= st.clock

    def charge(self, rank: int, nodes: int = 0, work_items: int = 0) -> None:
        """Advance a rank's clock by a compute charge (called via Comm)."""
        st = self._ranks[rank]
        st.clock += self.cost.compute_time(nodes, work_items)
        self.stats[rank].nodes += nodes
        self.stats[rank].work_items += work_items
        self.stats[rank].busy_time = st.clock

    # ------------------------------------------------------------------- run
    def run(self, program: _RankProgram, *args: Any, **kwargs: Any) -> WorldStats:
        """Instantiate ``program`` on every rank and simulate to completion.

        ``program(comm, *args, **kwargs)`` must be a generator function (it
        may also be a plain function returning ``None`` for send-only ranks).
        Returns the aggregated :class:`~repro.mpsim.stats.WorldStats`.
        """
        from repro.mpsim.comm import Comm  # local import to avoid a cycle

        self._ranks = []
        for rank in range(self.size):
            comm = Comm(self, rank)
            gen = program(comm, *args, **kwargs)
            if gen is not None and not hasattr(gen, "send"):
                raise MPSimError(
                    f"program must be a generator function; rank {rank} returned {type(gen)!r}"
                )
            self._ranks.append(_RankState(rank, gen, comm))

        # Kick every rank to its first yield point (or completion).
        kick = self._ranks
        if self.schedule is not None:
            order = self.schedule.permute("kick", [st.rank for st in kick])
            kick = [kick[i] for i in order]
        for st in kick:
            self._advance(st, first=True)

        while True:
            progressed = self._deliver_one()
            if progressed:
                continue
            if all(st.finished for st in self._ranks):
                break
            # No deliverable message, nobody finished everything: decide
            # between quiescence-termination and deadlock.
            blocked_plain = [
                st.rank
                for st in self._ranks
                if not st.finished and isinstance(st.blocked_on, Recv)
            ]
            blocked_quiesce = [
                st
                for st in self._ranks
                if not st.finished and isinstance(st.blocked_on, RecvOrQuiesce)
            ]
            if blocked_plain:
                raise DeadlockError(
                    "global quiescence with unsatisfied blocking receives "
                    f"(ranks {sorted(blocked_plain)})",
                    blocked_ranks=tuple(sorted(blocked_plain)),
                )
            # All remaining ranks sit in RecvOrQuiesce: terminate them.
            t_max = max(st.clock for st in self._ranks)
            if self.schedule is not None and len(blocked_quiesce) > 1:
                order = self.schedule.permute(
                    "quiesce", [st.rank for st in blocked_quiesce]
                )
                blocked_quiesce = [blocked_quiesce[i] for i in order]
            for st in blocked_quiesce:
                st.clock = max(st.clock, t_max)
                st.blocked_on = None
                self._advance(st, value=None)

        for st in self._ranks:
            self.stats[st.rank].busy_time = st.clock
        return self.stats

    # -------------------------------------------------------------- internal
    def _receive_env(self, st: _RankState, env: Envelope) -> Message:
        """Consume ``env`` from the rank's mailbox: clock, stats, and the Message."""
        box = st.mailbox
        if env is box[0]:
            heapq.heappop(box)
        else:  # a scheduled out-of-order pick; a sorted list is a heap
            del box[next(i for i, e in enumerate(box) if e is env)]
            box.sort(key=_ORDER)
        st.clock = max(st.clock, env.deliver_at)
        st.clock += self.cost.message_time(1, env.nbytes)
        self.stats[st.rank].record_receive(1, env.nbytes)
        self.stats[st.rank].busy_time = st.clock
        return Message(env.source, env.tag, env.payload)

    def _deliver_one(self) -> bool:
        """Resume the blocked rank whose earliest envelope is ready first
        (ready time ``max(deliver_at, clock)``, ties broken by send order)."""
        best: tuple[float, int] | None = None
        best_st: _RankState | None = None
        for st in self._ranks:
            if st.blocked_on is None or not st.mailbox:
                continue
            env = st.mailbox[0]
            key = (max(env.deliver_at, st.clock), env.seq)
            if best is None or key < best:
                best, best_st = key, st
        if best_st is None:
            return False
        st, env = best_st, best_st.mailbox[0]
        if self.schedule is not None:
            st, env = self._pick_delivery(env)
        msg = self._receive_env(st, env)
        st.blocked_on = None
        self._advance(st, value=msg)
        return True

    def _pick_delivery(self, canonical: Envelope) -> tuple[_RankState, Envelope]:
        """Schedule-driven delivery pick over *every* blocked rank's envelopes.

        Index 0 is ``canonical``, the choice :meth:`_deliver_one` makes
        unscheduled, so a baseline schedule reproduces the unscheduled run
        bit-exactly; the others follow in ``(ready time, seq)`` order, and
        picking one models a message arriving (or a receiver being
        serviced) out of order.
        """
        cands = [
            (st, env) for st in self._ranks if st.blocked_on is not None
            for env in st.mailbox
        ]
        cands.sort(key=lambda c: (
            c[1] is not canonical, max(c[1].deliver_at, c[0].clock), c[1].seq,
        ))
        pick = self.schedule.choose(
            "deliver", [(st.rank, env.source) for st, env in cands]
        )
        return cands[pick]

    def _pick_own(self, st: _RankState) -> Envelope:
        """Schedule-driven pick among a running rank's envelopes, in
        ``(deliver_at, seq)`` order (index 0 is the heap's top)."""
        cands = sorted(st.mailbox, key=_ORDER)
        pick = self.schedule.choose("deliver", [(st.rank, env.source) for env in cands])
        return cands[pick]

    def _advance(self, st: _RankState, value: Any = None, first: bool = False) -> None:
        """Run one rank until it blocks or finishes."""
        if st.gen is None:
            st.finished = True
            return
        try:
            while True:
                op = st.gen.send(None if first else value) if not first else next(st.gen)
                first = False
                if isinstance(op, (Recv, RecvOrQuiesce)):
                    # Fast path: a message is already in the mailbox.
                    if st.mailbox:
                        env = st.mailbox[0]
                        if self.schedule is not None:
                            env = self._pick_own(st)
                        value = self._receive_env(st, env)
                        continue
                    st.blocked_on = op
                    return
                raise MPSimError(f"rank {st.rank} yielded unsupported operation {op!r}")
        except StopIteration:
            st.finished = True
            st.blocked_on = None
            if self.schedule is not None:
                self.schedule.on_progress()
        except (DeadlockError, MPSimError):
            raise
        except BaseException as exc:  # surface rank crashes with context
            raise RankFailure(st.rank, exc) from exc

    # ------------------------------------------------------------- inspection
    def clocks(self) -> list[float]:
        """Current virtual clock of every rank (post-run: completion times)."""
        return [st.clock for st in self._ranks]

    @property
    def makespan(self) -> float:
        """Simulated parallel runtime of the completed program."""
        return max(self.clocks()) if self._ranks else 0.0
