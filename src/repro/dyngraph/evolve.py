"""Apply a :class:`~repro.dyngraph.schedule.ChurnSchedule` to a graph.

:func:`evolve` is the driver: it takes a generated edge list, applies
``epochs`` churn epochs, and returns the evolved state plus the exact
per-epoch deltas.  The only data-parallel work in an epoch is computing the
arrival attachment targets, and because each target is a pure function of
``(seed, epoch, arrival index)`` (see :mod:`repro.dyngraph.schedule`), the
three engines differ *only* in where that computation runs:

``"sequential"``
    one call in the driver process;
``"bsp"``
    the arrival range is sliced contiguously across simulated ranks; each
    rank program computes its slice in chunks across supersteps (so crash
    injection and checkpoint cuts have somewhere to land) and reports
    per-chunk progress to rank 0;
``"mp"``
    the same rank programs in real forked worker processes
    (:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`), where an
    injected crash is a real ``SIGKILL``.

Assembling slice results in rank order reproduces the sequential arrival
order, so **evolution output is bit-identical across engines and rank
counts** — with or without a crash-recovered epoch, since the supervised
recovery machinery (:mod:`repro.mpsim.supervisor`) restores or replays
deterministic programs.  The test-suite asserts both properties.

Departures can additionally be *expressed through* the existing
:class:`~repro.mpsim.faults.FaultPlan` machinery
(``departure_faults=True``): each epoch with departures derives a
deterministic rank-crash plan from the schedule's decision stream and runs
its arrival computation under it, so every such epoch exercises a real
crash + recovery while the evolved graph stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dyngraph.schedule import ChurnSchedule, EpochDelta
from repro.graph.edgelist import EdgeList
from repro.telemetry.collector import resolve

__all__ = ["EvolvingState", "EvolutionResult", "evolve"]


@dataclass
class EvolvingState:
    """The mutable state of an evolving network.

    Node ids are never reused: ``n`` counts every id ever allocated and
    ``alive`` marks which are present.  ``u``/``v`` hold the live edges in
    application order — a deterministic order, which is what makes the
    position-keyed deletion scores replayable.
    """

    n: int  #: total node ids ever allocated (departed ids stay allocated)
    alive: np.ndarray  #: bool[n]
    u: np.ndarray  #: live edge sources, application order
    v: np.ndarray  #: live edge targets, application order
    epoch: int = 0  #: churn epochs applied so far

    @classmethod
    def from_edges(cls, edges: Any, n: int) -> "EvolvingState":
        u = np.asarray(edges.sources, dtype=np.int64).copy()
        v = np.asarray(edges.targets, dtype=np.int64).copy()
        if len(u) and max(int(u.max()), int(v.max())) >= n:
            raise ValueError("edge endpoints exceed n")
        return cls(n=int(n), alive=np.ones(int(n), dtype=bool), u=u, v=v)

    @property
    def num_edges(self) -> int:
        return len(self.u)

    @property
    def num_alive(self) -> int:
        return int(self.alive.sum())

    def edgelist(self) -> EdgeList:
        return EdgeList.from_arrays(self.u, self.v, copy=False)

    def degrees(self) -> np.ndarray:
        """Exact degree of every allocated id (0 for departed/isolated)."""
        if not len(self.u):
            return np.zeros(self.n, dtype=np.int64)
        return np.bincount(
            np.concatenate([self.u, self.v]), minlength=self.n
        ).astype(np.int64)

    def digest(self) -> str:
        """Streaming sha256 of the live edge content (bit-identity probe)."""
        from repro.core.spill import edges_digest

        return edges_digest(self.edgelist())

    def copy(self) -> "EvolvingState":
        return EvolvingState(
            n=self.n, alive=self.alive.copy(), u=self.u.copy(),
            v=self.v.copy(), epoch=self.epoch,
        )


@dataclass
class EvolutionResult:
    """Everything an evolution produced."""

    state: EvolvingState
    schedule: ChurnSchedule
    engine: str
    ranks: int
    epochs: int
    deltas: list[EpochDelta]
    #: attached :class:`~repro.dyngraph.snapshots.SnapshotStore` when
    #: ``snapshot_dir`` was given
    snapshots: Any = None
    #: supervised crash-recovery events across all epochs
    recoveries: list = field(default_factory=list)

    @property
    def edges(self) -> EdgeList:
        return self.state.edgelist()

    def summary(self) -> list[dict[str, int]]:
        return [d.summary() for d in self.deltas]


def _epoch_pool(state: EvolvingState) -> np.ndarray:
    """The attachment pool frozen at epoch start.

    Each live edge contributes both endpoints, so a node's multiplicity is
    its degree — sampling a uniform pool index *is* preferential
    attachment.  When no edges are live the pool degenerates to the alive
    node ids (uniform attachment), and when nothing is alive it is empty
    (arrivals attach nothing).
    """
    if len(state.u):
        return np.concatenate([state.u, state.v])
    return np.flatnonzero(state.alive).astype(np.int64)


def _arrival_slices(count: int, ranks: int) -> list[tuple[int, int]]:
    """Contiguous near-even split of ``[0, count)`` across ``ranks``."""
    sizes = np.full(ranks, count // ranks, dtype=np.int64)
    sizes[: count % ranks] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(bounds[r]), int(bounds[r + 1])) for r in range(ranks)]


class _ArrivalProgram:
    """BSP rank program computing one contiguous slice of arrival targets.

    Processes ``chunk`` arrivals per superstep and sends a tiny progress
    row to rank 0 each chunk — observational traffic that gives crash
    injection and checkpoint cuts superstep boundaries to land on.  State
    (two counter-stream keys, the frozen pool, completed chunks) is
    picklable, so both the in-process checkpointer and the mp backend's
    cross-process shards can snapshot and resume it mid-epoch.
    """

    def __init__(
        self,
        rank: int,
        schedule: ChurnSchedule,
        epoch: int,
        pool: np.ndarray,
        lo: int,
        hi: int,
        chunk: int,
    ) -> None:
        self.rank = rank
        self.schedule = schedule
        self.epoch = epoch
        self.pool = pool
        self.lo = lo
        self.hi = hi
        self.pos = lo
        self.chunk = max(int(chunk), 1)
        self.parts: list[np.ndarray] = []
        self.acked = 0  # rank 0: arrivals other ranks reported complete

    @property
    def done(self) -> bool:
        return self.pos >= self.hi

    def step(self, ctx, inbox):
        for _src, arr in inbox:  # progress rows: observational only
            self.acked += int(np.asarray(arr).reshape(-1, 2)[:, 1].sum())
        if self.pos >= self.hi:
            return None
        hi = min(self.pos + self.chunk, self.hi)
        t = self.schedule.arrival_targets(self.epoch, self.pool, self.pos, hi)
        self.parts.append(t)
        ctx.charge(work_items=(hi - self.pos) * max(self.schedule.attach_x, 1))
        done_now = hi - self.pos
        self.pos = hi
        if self.rank == 0:
            self.acked += done_now
            return None
        # flat [rank, count] pairs: the mp exchange ships 1-D payloads
        return {0: [np.array([self.rank, done_now], dtype=np.int64)]}

    def result(self) -> np.ndarray:
        if self.parts:
            return np.concatenate(self.parts, axis=0)
        return np.empty((0, self.schedule.attach_x), dtype=np.int64)


def _apply_epoch(
    state: EvolvingState,
    schedule: ChurnSchedule,
    epoch: int,
    targets_fn: Callable[[np.ndarray, int], np.ndarray],
) -> EpochDelta:
    """Apply one epoch in place; return the exact delta.

    Phase order (fixed): arrivals attach to the epoch-start pool, then
    departures remove nodes (and all incident edges, including edges the
    epoch's own arrivals just added), then edge deletions, then rewires.
    """
    pool = _epoch_pool(state)
    arrivals, deletions, rewires = schedule.counts(epoch)

    # 1. arrivals — the only engine-dependent computation
    born = np.arange(state.n, state.n + arrivals, dtype=np.int64)
    targets = targets_fn(pool, arrivals)
    valid = targets >= 0
    added_u = np.repeat(born, targets.shape[1])[valid.ravel()]
    added_v = targets.ravel()[valid.ravel()]
    state.n += arrivals
    state.alive = np.concatenate([state.alive, np.ones(arrivals, dtype=bool)])
    state.u = np.concatenate([state.u, added_u])
    state.v = np.concatenate([state.v, added_v])

    # 2. departures
    dep_mask = schedule.departure_mask(epoch, state.alive)
    departed = np.flatnonzero(dep_mask).astype(np.int64)
    removed_u: list[np.ndarray] = []
    removed_v: list[np.ndarray] = []
    if len(departed):
        state.alive[departed] = False
        edge_dead = dep_mask[state.u] | dep_mask[state.v]
        if edge_dead.any():
            removed_u.append(state.u[edge_dead])
            removed_v.append(state.v[edge_dead])
            state.u = state.u[~edge_dead]
            state.v = state.v[~edge_dead]

    # 3. edge deletions — k smallest position scores die
    k = min(deletions, len(state.u))
    if k:
        scores = schedule.deletion_scores(epoch, len(state.u))
        kill = np.argsort(scores, kind="stable")[:k]
        mask = np.zeros(len(state.u), dtype=bool)
        mask[kill] = True
        removed_u.append(state.u[mask])
        removed_v.append(state.v[mask])
        state.u = state.u[~mask]
        state.v = state.v[~mask]

    # 4. degree-proportional rewires against the post-deletion pool
    rewired = 0
    rw_removed_u: list[int] = []
    rw_removed_v: list[int] = []
    rw_added_u: list[int] = []
    rw_added_v: list[int] = []
    if rewires and len(state.u):
        rw_pool = np.concatenate([state.u, state.v])
        m = len(state.u)
        for i in range(rewires):
            for attempt in range(schedule.max_attempts):
                d = schedule.rewire_draws(epoch, i, attempt)
                e = int(d[0] * m)
                replace_source = d[1] < 0.5
                t = int(rw_pool[int(d[2] * len(rw_pool))])
                old_u, old_v = int(state.u[e]), int(state.v[e])
                kept = old_v if replace_source else old_u
                old = old_u if replace_source else old_v
                if t == kept or t == old:
                    continue  # self-loop or no-op: redraw
                rw_removed_u.append(old_u)
                rw_removed_v.append(old_v)
                if replace_source:
                    state.u[e] = t
                else:
                    state.v[e] = t
                rw_added_u.append(int(state.u[e]))
                rw_added_v.append(int(state.v[e]))
                rewired += 1
                break
    if rewired:
        removed_u.append(np.array(rw_removed_u, dtype=np.int64))
        removed_v.append(np.array(rw_removed_v, dtype=np.int64))
        added_u = np.concatenate([added_u, np.array(rw_added_u, dtype=np.int64)])
        added_v = np.concatenate([added_v, np.array(rw_added_v, dtype=np.int64)])

    state.epoch += 1
    empty = np.empty(0, dtype=np.int64)
    return EpochDelta(
        epoch=epoch,
        born=born,
        departed=departed,
        added_u=added_u,
        added_v=added_v,
        removed_u=np.concatenate(removed_u) if removed_u else empty,
        removed_v=np.concatenate(removed_v) if removed_v else empty,
        rewires=rewired,
    )


def evolve(
    edges: Any,
    n: int,
    schedule: ChurnSchedule,
    *,
    epochs: int | None = None,
    engine: str = "sequential",
    ranks: int = 1,
    chunk: int | None = None,
    snapshot_dir: str | None = None,
    snapshot_every: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_keep: int = 3,
    max_retries: int = 3,
    fault_plan: Any = None,
    fault_epoch: int = 0,
    departure_faults: bool = False,
    cost_model: Any = None,
    telemetry: Any = None,
    barrier_timeout: float = 120.0,
) -> EvolutionResult:
    """Evolve a graph under a churn schedule; return state + exact deltas.

    Parameters
    ----------
    edges, n:
        The starting graph (any object with ``sources``/``targets`` int64
        views, e.g. :class:`~repro.graph.edgelist.EdgeList`) and its node
        count.  The input is not mutated.
    schedule:
        The :class:`~repro.dyngraph.schedule.ChurnSchedule`; output is a
        pure function of ``(edges, n, schedule, epochs)`` — engine, rank
        count, chunking, faults, and recovery never change it.
    epochs:
        Epoch count; defaults to ``schedule.epochs``.
    engine, ranks:
        Where arrival targets are computed: ``"sequential"`` (requires
        ``ranks=1``), ``"bsp"`` (simulated ranks), or ``"mp"`` (real
        forked workers).
    chunk:
        Arrivals one rank computes per superstep (default: slice/4,
        so every epoch spans a few supersteps for faults and checkpoint
        cuts to land on).
    snapshot_dir, snapshot_every:
        Persist sealed temporal snapshots (epoch 0 = the initial state,
        then every ``snapshot_every`` epochs plus the final one) through a
        :class:`~repro.dyngraph.snapshots.SnapshotStore`.
    checkpoint_dir, checkpoint_keep, max_retries:
        Run each epoch's arrival computation under a
        :class:`~repro.mpsim.supervisor.Supervisor` with rotated
        checkpoints — injected crashes (``fault_plan`` /
        ``departure_faults``) are recovered bit-identically.
    fault_plan, fault_epoch:
        Inject an explicit single-use :class:`~repro.mpsim.faults.FaultPlan`
        into epoch ``fault_epoch``'s engine run.
    departure_faults:
        Express departures through the fault machinery: every epoch with
        at least one departure runs under ``schedule.fault_plan(epoch,
        ranks)`` — a deterministic rank crash recovered by the supervisor.
        Requires ``checkpoint_dir`` and a parallel engine.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; per-epoch spans and
        ``dyngraph_*`` counters land on it.  Observation-only.
    """
    epochs = schedule.epochs if epochs is None else int(epochs)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if engine not in ("sequential", "bsp", "mp"):
        raise ValueError(
            f"unknown engine {engine!r}; choose sequential, bsp, or mp"
        )
    if engine == "sequential":
        if ranks != 1:
            raise ValueError("sequential engine requires ranks=1")
        if fault_plan is not None or departure_faults:
            raise ValueError("fault injection requires a parallel engine")
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    if departure_faults:
        if checkpoint_dir is None:
            raise ValueError(
                "departure_faults injects real crashes; recovering them "
                "bit-identically needs supervised checkpoints — set "
                "checkpoint_dir="
            )
        if ranks < 2:
            raise ValueError("departure_faults needs ranks >= 2 to crash one")
    if fault_plan is not None and not 0 <= fault_epoch < max(epochs, 1):
        raise ValueError(
            f"fault_epoch {fault_epoch} outside the {epochs}-epoch run"
        )

    tel = resolve(telemetry)
    if tel.enabled:
        tel.meta.update(
            dyngraph_engine=engine, dyngraph_ranks=ranks,
            churn_seed=schedule.seed, churn_epochs=epochs,
        )
    c_epochs = tel.counter("dyngraph_epochs_total", "churn epochs applied")
    c_born = tel.counter("dyngraph_arrivals_total", "nodes arrived")
    c_dep = tel.counter("dyngraph_departures_total", "nodes departed")
    c_add = tel.counter("dyngraph_edges_added_total", "edges added")
    c_rem = tel.counter("dyngraph_edges_removed_total", "edges removed")
    c_rw = tel.counter("dyngraph_rewires_total", "edges rewired")
    c_rec = tel.counter("dyngraph_recoveries_total", "crash recoveries")

    state = EvolvingState.from_edges(edges, n)
    store = None
    if snapshot_dir is not None:
        from repro.dyngraph.snapshots import SnapshotStore

        store = SnapshotStore(snapshot_dir)
        store.save(state, None)

    deltas: list[EpochDelta] = []
    recoveries: list = []
    for e in range(epochs):
        plan = None
        if fault_plan is not None and e == fault_epoch:
            plan = fault_plan
        elif departure_faults and schedule.departure_mask(e, state.alive).any():
            plan = schedule.fault_plan(e, ranks)

        def targets_fn(pool: np.ndarray, count: int) -> np.ndarray:
            return _compute_targets(
                schedule, e, pool, count, engine, ranks, chunk,
                checkpoint_dir, checkpoint_keep, max_retries, plan,
                cost_model, telemetry, barrier_timeout, recoveries,
            )

        with tel.span("evolve.epoch", cat="evolve", tid=-1, epoch=e) as sp:
            delta = _apply_epoch(state, schedule, e, targets_fn)
            sp.note(**delta.summary())
        deltas.append(delta)
        c_epochs.inc()
        c_born.inc(len(delta.born))
        c_dep.inc(len(delta.departed))
        c_add.inc(delta.edges_added)
        c_rem.inc(delta.edges_removed)
        c_rw.inc(delta.rewires)

        if store is not None and (
            (e + 1) % snapshot_every == 0 or e == epochs - 1
        ):
            store.save(state, delta)

    c_rec.inc(len(recoveries))
    return EvolutionResult(
        state=state,
        schedule=schedule,
        engine=engine,
        ranks=ranks,
        epochs=epochs,
        deltas=deltas,
        snapshots=store,
        recoveries=recoveries,
    )


def _compute_targets(
    schedule: ChurnSchedule,
    epoch: int,
    pool: np.ndarray,
    count: int,
    engine: str,
    ranks: int,
    chunk: int | None,
    checkpoint_dir: str | None,
    checkpoint_keep: int,
    max_retries: int,
    plan: Any,
    cost_model: Any,
    telemetry: Any,
    barrier_timeout: float,
    recoveries: list,
) -> np.ndarray:
    """Compute the epoch's arrival-target matrix on the requested engine."""
    # trivial epochs short-circuit every engine identically: the target
    # matrix is already determined (empty or all-dropped)
    if count == 0 or schedule.attach_x == 0 or len(pool) == 0:
        return np.full((count, schedule.attach_x), -1, dtype=np.int64)
    if engine == "sequential":
        return schedule.arrival_targets(epoch, pool, 0, count)

    slices = _arrival_slices(count, ranks)
    per_rank = max((count + ranks - 1) // ranks, 1)
    step = max(int(chunk), 1) if chunk is not None else max(per_rank // 4, 1)

    def program_factory():
        return [
            _ArrivalProgram(r, schedule, epoch, pool, lo, hi, step)
            for r, (lo, hi) in enumerate(slices)
        ]

    checkpointer = None
    if checkpoint_dir is not None:
        from pathlib import Path

        from repro.mpsim.checkpoint import Checkpointer

        checkpointer = Checkpointer(
            Path(checkpoint_dir) / f"epoch{epoch:04d}" / "run.ckpt",
            every=1, keep=checkpoint_keep, telemetry=telemetry,
        )

    if engine == "bsp":
        from repro.mpsim.bsp import BSPEngine

        def engine_factory():
            return BSPEngine(ranks, cost_model=cost_model, telemetry=telemetry)

        if checkpointer is not None:
            from repro.mpsim.supervisor import Supervisor

            supervisor = Supervisor(
                engine_factory, program_factory, checkpointer,
                max_retries=max_retries, telemetry=telemetry,
            )
            eng, programs = supervisor.run(fault_plan=plan)
            recoveries.extend(eng.stats.recoveries)
        else:
            eng = engine_factory()
            programs = program_factory()
            eng.run(programs, fault_plan=plan)
        return np.concatenate([prog.result() for prog in programs], axis=0)

    # engine == "mp"
    from repro.mpsim.mp_backend import MultiprocessingBSPEngine

    def mp_engine_factory():
        return MultiprocessingBSPEngine(
            ranks, cost_model=cost_model,
            telemetry=telemetry, barrier_timeout=barrier_timeout,
        )

    if checkpointer is not None:
        from repro.mpsim.supervisor import Supervisor

        supervisor = Supervisor(
            mp_engine_factory, program_factory, checkpointer,
            max_retries=max_retries, telemetry=telemetry,
        )
        eng, _ = supervisor.run(fault_plan=plan)
        recoveries.extend(eng.stats.recoveries)
    else:
        eng = mp_engine_factory()
        eng.run(program_factory(), fault_plan=plan)
    return np.concatenate(list(eng.results), axis=0)
