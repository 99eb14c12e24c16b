"""Bulk-synchronous (superstep) engine with NumPy bulk message exchange.

The paper's practical implementation buffers messages per destination and
ships each buffer with one MPI send (Section 3.5.1, "Message Buffering").
Executed to its logical conclusion, the algorithm becomes bulk-synchronous:

1. every rank performs local work and fills per-destination buffers;
2. one ``alltoallv`` exchanges the buffers;
3. repeat until no rank has work and no buffer is non-empty.

Because dependency chains have length ``O(log n)`` w.h.p. (Theorem 3.3), the
loop terminates in a logarithmic number of supersteps.

:class:`BSPEngine` runs a list of *rank programs* — shared-nothing objects
with a ``step(ctx, inbox)`` method — to quiescence.  The engine enforces
isolation: programs communicate exclusively through the returned outboxes.
Payloads are NumPy arrays (one array = one buffered MPI message; its length
is the logical record count the paper's Figure 7 plots).

Virtual time: each superstep, a rank is charged its recorded compute, its
per-record message overheads, its per-byte costs (a payload's
:func:`~repro.mpsim.datatypes.charged_nbytes`: the record size its dtype
declares, else its buffer size) and the per-round latency; the superstep's
duration is the *maximum* over ranks (barrier semantics) and
:attr:`BSPEngine.simulated_time` accumulates those maxima.  This is the
``T_p`` used by the strong/weak scaling reproductions.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

import numpy as np

from repro.mpsim.costmodel import CostModel
from repro.mpsim.datatypes import charged_nbytes
from repro.mpsim.errors import (
    DeadlockError,
    InjectedFault,
    InvalidRankError,
    MPSimError,
    RankFailure,
)
from repro.mpsim.stats import WorldStats
from repro.telemetry.collector import resolve
from repro.telemetry.spans import proc_rss_bytes

__all__ = ["BSPEngine", "BSPRankContext", "RankProgram", "Outbox"]

#: A rank's outgoing mail for one superstep: destination -> list of payloads.
Outbox = dict[int, list[np.ndarray]]


class RankProgram(Protocol):
    """Interface the BSP engine drives.

    Implementations must be *shared-nothing*: all cross-rank data flows
    through the outbox/inbox arrays.
    """

    def step(
        self, ctx: "BSPRankContext", inbox: Sequence[tuple[int, np.ndarray]]
    ) -> Outbox | None:
        """Run one superstep.

        Parameters
        ----------
        ctx:
            Cost-accounting handle for this rank.
        inbox:
            ``(source, payload)`` pairs delivered this superstep, ordered by
            source rank then send order (deterministic).

        Returns
        -------
        Mapping of destination rank to payload arrays, or ``None`` for an
        empty outbox.
        """

    @property
    def done(self) -> bool:
        """True once this rank has no pending local work.

        The engine stops when every rank is done *and* the previous exchange
        carried no messages.
        """
        raise NotImplementedError


class BSPRankContext:
    """Per-rank accounting handle passed to :meth:`RankProgram.step`."""

    __slots__ = ("rank", "size", "_stats", "_step_compute", "_step_events", "_cost")

    def __init__(self, rank: int, size: int, stats: WorldStats, cost: CostModel) -> None:
        self.rank = rank
        self.size = size
        self._stats = stats
        self._cost = cost
        self._step_compute = 0.0
        self._step_events = 0

    def charge(self, nodes: int = 0, work_items: int = 0) -> None:
        """Account local computation: node events and auxiliary work items.

        Charging also counts as *progress* for the engine's stall detector,
        so compute-only supersteps (e.g. a single-rank iterative solver)
        are not mistaken for deadlock.
        """
        self._stats[self.rank].nodes += nodes
        self._stats[self.rank].work_items += work_items
        self._step_compute += self._cost.compute_time(nodes, work_items)
        self._step_events += 1

    def _drain_step_compute(self) -> float:
        t, self._step_compute = self._step_compute, 0.0
        return t

    def _drain_step_events(self) -> int:
        e, self._step_events = self._step_events, 0
        return e


class BSPEngine:
    """Drive shared-nothing rank programs through supersteps to quiescence.

    Parameters
    ----------
    size:
        Number of ranks.
    cost_model:
        Virtual-time charges (defaults to the paper-testbed preset).
    max_supersteps:
        Safety bound; exceeded only by a non-terminating program (the PA
        algorithms need ``O(log n)`` supersteps).

    Examples
    --------
    A trivial two-rank echo program:

    >>> import numpy as np
    >>> class Echo:
    ...     def __init__(self, rank):
    ...         self.rank, self.sent, self.got = rank, False, None
    ...     def step(self, ctx, inbox):
    ...         for src, arr in inbox:
    ...             self.got = (src, arr.copy())
    ...         if not self.sent and self.rank == 0:
    ...             self.sent = True
    ...             return {1: [np.arange(3)]}
    ...         return None
    ...     @property
    ...     def done(self):
    ...         return self.rank == 1 or self.sent
    >>> eng = BSPEngine(2)
    >>> programs = [Echo(0), Echo(1)]
    >>> _ = eng.run(programs)
    >>> programs[1].got[0], list(programs[1].got[1])
    (0, [np.int64(0), np.int64(1), np.int64(2)])
    """

    def __init__(
        self,
        size: int,
        cost_model: CostModel | None = None,
        max_supersteps: int = 10_000,
        topology: Any = None,
        telemetry: Any = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.cost = cost_model or CostModel()
        self.max_supersteps = max_supersteps
        #: observability facade (:class:`repro.telemetry.Telemetry`); the
        #: engine is single-process, so spans are recorded directly —
        #: observation only, never part of the simulated cost model.
        self.tel = resolve(telemetry)
        #: optional :class:`repro.mpsim.topology.Topology`; when set, each
        #: outgoing byte's transfer charge is scaled by the (src, dst) hop
        #: multiplier (precomputed into a dense table).
        self.topology = topology
        self._topo_mult = (
            topology.multiplier_matrix() if topology is not None else None
        )
        if self._topo_mult is not None and self._topo_mult.shape != (size, size):
            raise MPSimError(
                f"topology covers {self._topo_mult.shape[0]} ranks, engine has {size}"
            )
        self.stats = WorldStats.for_size(size)
        self.simulated_time = 0.0
        self.supersteps = 0

    def run(
        self,
        programs: Sequence[RankProgram],
        checkpointer: Any = None,
        initial_inboxes: list[list[tuple[int, np.ndarray]]] | None = None,
        tracer: Any = None,
        fault_plan: Any = None,
        schedule: Any = None,
    ) -> WorldStats:
        """Execute ``programs`` (one per rank) until global quiescence.

        Parameters
        ----------
        programs:
            One rank program per rank.
        checkpointer:
            Optional :class:`repro.mpsim.checkpoint.Checkpointer`; its
            ``maybe_save(engine, programs, inboxes)`` hook runs after every
            superstep with the state needed to resume.
        initial_inboxes:
            In-flight messages to deliver in the first superstep (used by
            checkpoint resume; normal runs start with empty inboxes).  The
            list is copied, not changed: the engine drops each rank's inbox
            from its own list once the rank has stepped, so a consumed
            inbox is freed before the superstep ends.
        tracer:
            Optional :class:`repro.mpsim.trace.Tracer`; receives per-step
            rank times and record counts for timeline analysis.
        fault_plan:
            Optional :class:`repro.mpsim.faults.FaultPlan`; a rank scheduled
            to crash raises :class:`RankFailure` just before its ``step()``
            of that superstep.
        schedule:
            Optional :class:`repro.schedsim.Schedule`.  Each superstep's
            rank activation order and each destination's inbox assembly
            order become explicit choice points (canonical order first, so
            a baseline schedule reproduces the unscheduled run bit-exactly),
            and the schedule's bounded-progress watchdog ticks once per
            superstep, resetting whenever the global done-count rises.
        """
        if len(programs) != self.size:
            raise MPSimError(
                f"expected {self.size} rank programs, got {len(programs)}"
            )
        contexts = [
            BSPRankContext(r, self.size, self.stats, self.cost) for r in range(self.size)
        ]
        inboxes: list[list[tuple[int, np.ndarray]]]
        if initial_inboxes is not None:
            if len(initial_inboxes) != self.size:
                raise MPSimError("initial_inboxes must have one entry per rank")
            inboxes = list(initial_inboxes)
        else:
            inboxes = [[] for _ in range(self.size)]
        pending = True  # force at least one step so programs can initialise
        quiet_steps = 0
        done_prev = 0

        while pending:
            if self.supersteps >= self.max_supersteps:
                raise MPSimError(
                    f"exceeded max_supersteps={self.max_supersteps}; "
                    "rank programs are not quiescing"
                )
            self.supersteps += 1
            step_span = self.tel.span(
                "superstep", cat="superstep", tid=-1, superstep=self.supersteps
            )
            step_span.__enter__()
            step_times = np.zeros(self.size)
            step_records = np.zeros(self.size)
            next_inboxes: list[list[tuple[int, np.ndarray]]] = [
                [] for _ in range(self.size)
            ]
            any_traffic = False
            any_work = False

            rank_order: Sequence[int] = range(self.size)
            if schedule is not None:
                schedule.tick()
                rank_order = schedule.permute("activation", list(range(self.size)))
            for rank in rank_order:
                prog = programs[rank]
                if fault_plan is not None and fault_plan.should_crash(
                    rank, self.supersteps
                ):
                    raise RankFailure(
                        rank,
                        InjectedFault(
                            f"injected crash of rank {rank} at superstep "
                            f"{self.supersteps}"
                        ),
                    )
                ctx = contexts[rank]
                inbox = inboxes[rank]
                in_records = sum(len(arr) for _, arr in inbox)
                in_bytes = sum(charged_nbytes(arr) for _, arr in inbox)
                try:
                    outbox = prog.step(ctx, inbox) or {}
                except Exception as exc:
                    raise RankFailure(rank, exc) from exc
                # consumed: let its arrays go before the next rank steps
                inboxes[rank] = inbox = []

                out_records, out_bytes, weighted_out_bytes = self._post(
                    rank, outbox, next_inboxes
                )
                any_traffic = any_traffic or out_records > 0

                rs = self.stats[rank]
                rs.record_send(out_records, out_bytes)
                rs.record_receive(in_records, in_bytes)
                rs.rounds += 1
                if ctx._drain_step_events():
                    any_work = True
                t = (
                    ctx._drain_step_compute()
                    + self.cost.per_message * (out_records + in_records)
                    + self.cost.beta * (weighted_out_bytes + in_bytes)
                    + self.cost.round_time()
                )
                rs.busy_time += t
                step_times[rank] = t
                step_records[rank] = out_records

            if schedule is not None:
                for dest, items in enumerate(next_inboxes):
                    if len(items) > 1:
                        tags = [((self.supersteps, dest), src) for src, _ in items]
                        order = schedule.permute("inbox", tags)
                        next_inboxes[dest] = [items[i] for i in order]
                done_now = sum(1 for p in programs if p.done)
                if done_now > done_prev:
                    done_prev = done_now
                    schedule.on_progress()

            virtual_step = float(step_times.max())
            self.simulated_time += virtual_step
            step_span.note(
                virtual_s=virtual_step,
                virtual_total_s=self.simulated_time,
                records=int(step_records.sum()),
            )
            if self.tel.enabled:
                # memory trajectory: one sample per superstep, on the span
                # (for `repro inspect`)
                step_span.note(rss_bytes=proc_rss_bytes())
            step_span.__exit__(None, None, None)
            if tracer is not None:
                tracer.record(step_times, step_records)
            inboxes = next_inboxes
            if checkpointer is not None and (any_traffic or any_work):
                # quiet supersteps carry no state change worth snapshotting,
                # and saving them would let a deadlocking (e.g. poisoned)
                # resume rotate away the older snapshots recovery still needs
                checkpointer.maybe_save(self, programs, inboxes)
            all_done = all(p.done for p in programs)
            if not any_traffic and all_done:
                pending = False
            elif not any_traffic and not any_work:
                quiet_steps += 1
                if quiet_steps >= 2:
                    # Two consecutive exchanges carried nothing, no rank did
                    # any local work, yet some rank is not done: nothing can
                    # unblock it.  This is the BSP analogue of the deadlock
                    # of Section 3.5.2.
                    stuck = [r for r, p in enumerate(programs) if not p.done]
                    raise DeadlockError(
                        f"no traffic or local work for {quiet_steps} "
                        f"supersteps but ranks {stuck} still have pending work",
                        blocked_ranks=tuple(stuck),
                    )
            else:
                quiet_steps = 0

        return self.stats

    def _post(
        self,
        rank: int,
        outbox: Outbox,
        next_inboxes: list[list[tuple[int, np.ndarray]]],
    ) -> tuple[int, int, float]:
        """Queue ``rank``'s outbox for the next superstep; returns its
        records, bytes and topology-weighted bytes.  A method, so no loop
        variable of :meth:`run` holds a payload past the step that consumes
        it."""
        out_records = 0
        out_bytes = 0
        weighted_out_bytes = 0.0
        for dest, payloads in outbox.items():
            if not 0 <= dest < self.size:
                raise InvalidRankError(
                    f"rank {rank} addressed invalid destination {dest}"
                )
            if dest == rank:
                raise MPSimError(
                    f"rank {rank} attempted a self-send; local work "
                    "must not route through the exchange"
                )
            for arr in payloads:
                if len(arr) == 0:
                    continue
                nbytes = charged_nbytes(arr)
                out_records += len(arr)
                out_bytes += nbytes
                weighted_out_bytes += nbytes * (
                    self._topo_mult[rank, dest] if self._topo_mult is not None else 1.0
                )
                next_inboxes[dest].append((rank, arr))
        return out_records, out_bytes, weighted_out_bytes

    # ------------------------------------------------------------- reporting
    def summary(self) -> dict[str, float]:
        """Engine-level summary for benchmark reports."""
        out = self.stats.summary()
        out["supersteps"] = float(self.supersteps)
        out["simulated_time"] = self.simulated_time
        return out

