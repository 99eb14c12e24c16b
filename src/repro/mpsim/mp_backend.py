"""Real-parallelism backend: run BSP rank programs in OS processes.

The in-process :class:`~repro.mpsim.bsp.BSPEngine` *simulates* a distributed
machine; this backend *is* one (in miniature): each rank program runs in its
own forked process with its own address space.  It exists to prove the rank
programs are genuinely shared-nothing — any accidental reliance on shared
state would produce a different graph here than under the in-process engine,
and the test-suite compares the two bit-for-bit.

Superstep traffic moves peer to peer, as in the paper's Algorithms 3.1/3.2,
where ranks message each other with no router in between, through the
exchange fabric (:class:`repro.mpsim.p2p.P2PFabric`) made before the fork:

* every worker writes its outbox arrays into its own payload file (a memfd)
  of the current superstep's parity and posts small
  ``(offset, count, dtype)`` descriptors into its receivers' mailbox slots;
* a shared barrier paces the supersteps, and every rank takes the same
  termination decision from the fabric's shared counters;
* after the barrier each receiver copies its inbox straight out of the
  senders' payload files, in (source rank, send) order — the in-process
  engine's delivery order, so the graph is bit-identical.

Double buffering makes one barrier per superstep enough: superstep ``s``
writes file ``s % 2`` while every reader of superstep ``s - 1`` data reads
file ``(s - 1) % 2``.  Once the barrier of ``s`` passes, that file is dead,
so the writer truncates it then.  Nothing in a run has a name: the fabric,
its payload files, the telemetry ring and the in-RAM result regions are
all gone with the last process that holds them.  A worker trims its C heap once,
before its final collection.  The parent never touches a byte of superstep
traffic: it forks the workers, watches their liveness, collects the final
results, and commits checkpoint cuts once the workers have exited.

Statistics are accounted *worker-side* with the same formulas the in-process
engine uses (message counts, byte volumes, virtual busy time, superstep
durations) and shipped to the parent at job end, so
``engine.stats.summary()`` agrees with a matching in-process run and
``engine.simulated_time`` is populated.

Fault tolerance (see ``docs/fault_tolerance.md``):

* :class:`~repro.mpsim.faults.FaultPlan` crashes scheduled by superstep are
  realised as *real* fail-stop deaths — the victim worker ``SIGKILL``\\ s
  itself just before stepping, with no cleanup or goodbye message.
* The parent detects any worker death within one liveness poll
  (:data:`_LIVENESS_POLL` seconds) by waiting on the process *sentinels*
  alongside the reply pipes, and attributes it to a rank and superstep via
  the heartbeat row of the fabric (:meth:`~repro.mpsim.p2p.P2PFabric.beat`);
  the fabric's barrier is aborted so surviving ranks fail fast instead of
  waiting out the barrier timeout.  Deaths surface as
  :class:`~repro.mpsim.errors.RankFailure` with the victim's rank and last
  superstep attached.  A killed worker, or a killed coordinator, leaves
  nothing to clean up: the kernel frees each payload file once its last
  holder is gone, and no run starts Python's resource tracker.
* With a :class:`~repro.mpsim.checkpoint.Checkpointer` attached, workers
  write per-rank state *shards* at checkpoint supersteps; once they have
  exited, the parent assembles the newest complete cuts on disk into
  ordinary checkpoint manifests — so a supervised run
  (:class:`~repro.mpsim.supervisor.Supervisor`) can reload the newest valid
  snapshot, respawn the ranks, resume, and still produce a bit-identical
  graph.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time
from multiprocessing import connection as _mpc
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpsim.bsp import BSPRankContext, RankProgram
from repro.mpsim.checkpoint import (
    CheckpointData,
    Checkpointer,
    ShardData,
    load_shard,
    save_shard,
)
from repro.mpsim.costmodel import CostModel
from repro.mpsim.datatypes import charged_nbytes
from repro.mpsim.errors import InvalidRankError, MPSimError, RankFailure
from repro.mpsim.p2p import P2PFabric
from repro.mpsim.stats import RankStats, WorldStats
from repro.telemetry.collector import (
    NOOP_TELEMETRY,
    RingCollector,
    Telemetry,
    resolve,
)
from repro.telemetry.ringbuf import EventRing
from repro.telemetry.spans import proc_rss_bytes

__all__ = ["MultiprocessingBSPEngine"]

#: how often the parent re-checks worker liveness while waiting on pipes;
#: with sentinel watching a death is usually noticed immediately, this is
#: only the re-arm period of the wait
_LIVENESS_POLL = 0.25

#: wall seconds a failed job's survivors get to exit before they are
#: terminated (one busy in its own compute would hold the failure back)
_FAILED_JOB_GRACE = 1.0


# ===================================================================== worker
def _result_of(
    rank: int, program: RankProgram, collect: Callable[[int, Any], Any] | None
) -> Any:
    """A finished rank's result payload: ``collect(rank, program)``, else
    the program's ``result()`` if it exposes one.

    Either raising is a *program* failure even though it happens during
    final collection rather than mid-superstep, so it is wrapped in
    :class:`RankFailure` exactly like a failing ``step()``.
    """
    getter = getattr(program, "result", None)
    if collect is None and not callable(getter):
        return None
    try:
        return getter() if collect is None else collect(rank, program)
    except Exception as exc:
        raise RankFailure(rank, exc) from exc


def _rank_counters_of(program: RankProgram) -> dict[str, int]:
    """Per-rank request counters the generation facade reports (Figure 7 data)."""
    return {
        "requests_sent": int(getattr(program, "requests_sent", 0) or 0),
        "requests_received": int(getattr(program, "requests_received", 0) or 0),
    }


def _shard_path(shard_dir: str, cut: int, rank: int) -> Path:
    return Path(shard_dir) / f"cut{cut}.rank{rank}.shard"


def _execute_step(
    rank: int,
    size: int,
    program: RankProgram,
    ctx: BSPRankContext,
    rs: RankStats,
    inbox: Sequence[tuple[int, np.ndarray]],
    cost: CostModel,
    fault_plan: Any,
    superstep: int,
) -> tuple[dict[int, list[np.ndarray]], int, float]:
    """Run one superstep of ``program`` and account it like the in-process
    engine does.

    Fires any scheduled crash first, as a real fail-stop death: the worker
    ``SIGKILL``\\ s itself before stepping — the same pre-step timing the
    in-process engine uses, which is what keeps recovery cuts aligned
    between engines.  The caller has beaten the heartbeat by then, so the
    death is attributable to this superstep.

    Returns the cleaned outbox (non-empty arrays only), the
    outgoing record count, and the superstep's virtual duration for this
    rank.  Program exceptions surface as :class:`RankFailure`.
    """
    if fault_plan is not None and fault_plan.should_crash(rank, superstep):
        # a *real* fail-stop death: no cleanup, no goodbye message — the
        # parent must detect it from the sentinel and the silent heartbeat
        os.kill(os.getpid(), signal.SIGKILL)
    in_records = sum(len(arr) for _, arr in inbox)
    in_bytes = sum(charged_nbytes(arr) for _, arr in inbox)
    try:
        outbox = program.step(ctx, inbox) or {}
    except Exception as exc:
        raise RankFailure(rank, exc) from exc

    clean: dict[int, list[np.ndarray]] = {}
    out_records = 0
    out_bytes = 0
    for dest, payloads in outbox.items():
        if not 0 <= dest < size:
            raise InvalidRankError(
                f"rank {rank} addressed invalid destination {dest}"
            )
        if dest == rank:
            raise MPSimError(
                f"rank {rank} attempted a self-send; local work "
                "must not route through the exchange"
            )
        kept = [arr for arr in payloads if len(arr)]
        if not kept:
            continue
        clean[dest] = kept
        for arr in kept:
            out_records += len(arr)
            out_bytes += charged_nbytes(arr)

    rs.record_send(out_records, out_bytes)
    rs.record_receive(in_records, in_bytes)
    rs.rounds += 1
    ctx._drain_step_events()
    t = (
        ctx._drain_step_compute()
        + cost.per_message * (out_records + in_records)
        + cost.beta * (out_bytes + in_bytes)
        + cost.round_time()
    )
    rs.busy_time += t
    return clean, out_records, t


def _run_job(
    rank: int,
    size: int,
    program: RankProgram,
    conn: Any,
    fabric: P2PFabric,
    cost: CostModel,
    fault_plan: Any,
    max_supersteps: int,
    resume: tuple[int, RankStats, list] | None = None,
    ckpt: tuple[str, int, int, float] | None = None,
    tel: Any = NOOP_TELEMETRY,
    collect: Callable[[int, Any], Any] | None = None,
) -> None:
    """Worker side of one job: no parent on the data path.

    Each superstep: step the program, send the outbox through the fabric
    (payloads into this rank's payload file, descriptors into every peer's
    mailbox), publish the (done, traffic, time) triple, hit the barrier,
    then take the global termination decision from the shared counters and
    copy the inbox straight out of the peers' payload files.

    Checkpointing is decided *distributedly*: ``ckpt = (shard_dir, every,
    min_superstep, sim0)`` gives every rank the same schedule, and the shared
    traffic counters give every rank the same view of whether the cut is
    worth snapshotting — so all ranks write their shard for the same cuts
    without any coordinator round.  ``resume`` — ``(superstep0, rank_stats,
    inbox0)`` — continues a checkpointed run: the superstep counter and
    statistics row pick up where the snapshot left off, and ``inbox0`` (the
    snapshot's in-flight messages) feeds the first step.  The final tail
    reports the superstep count (absolute) and the simulated time *delta*
    of this job; its payload is :func:`_result_of` with ``collect``.
    """
    stats = WorldStats.for_size(size)
    superstep = 0
    inbox: list[tuple[int, np.ndarray]] = []
    if resume is not None:
        superstep, rank_stats, inbox = resume
        stats.ranks[rank] = rank_stats
    ctx = BSPRankContext(rank, size, stats, cost)
    rs = stats[rank]
    simulated = 0.0
    while True:
        if superstep >= max_supersteps:
            raise MPSimError(f"exceeded max_supersteps={max_supersteps}")
        superstep += 1
        fabric.beat(rank, superstep)
        with tel.span("compute", cat="compute", tid=rank, superstep=superstep) as sp:
            clean, out_records, t = _execute_step(
                rank, size, program, ctx, rs, inbox, cost, fault_plan, superstep,
            )
            sp.note(virtual_s=t, records=out_records)
            if tel.enabled:
                sp.note(rss_bytes=proc_rss_bytes())
        # the consumed inbox and, once written out, the outbox are dropped
        # here, not when the next superstep replaces them
        inbox = []
        with tel.span("exchange.write", cat="exchange", tid=rank, superstep=superstep):
            fabric.send(rank, superstep, clean)
            del clean
        fabric.publish(rank, superstep, bool(program.done), out_records, t)
        # the real imbalance cost: fast ranks park here until the
        # slowest peer arrives (paper Section 4.6's load-balance story)
        with tel.span("barrier.wait", cat="barrier", tid=rank, superstep=superstep):
            fabric.wait(rank, superstep)
        # every reader has copied the previous superstep's records by now
        fabric.release(rank, superstep - 1)
        simulated += fabric.max_step_time(superstep)
        if fabric.quiescent(superstep):
            break
        with tel.span("exchange.read", cat="exchange", tid=rank, superstep=superstep):
            inbox = fabric.receive(rank, superstep)
        if ckpt is not None:
            shard_dir, every, min_superstep, sim0 = ckpt
            if (
                superstep % every == 0
                and superstep > min_superstep
                and fabric.traffic(superstep) > 0
            ):
                path = _shard_path(shard_dir, superstep, rank)
                with tel.span("shard.save", cat="checkpoint", tid=rank, cut=superstep):
                    save_shard(
                        path,
                        ShardData(
                            rank, superstep, sim0 + simulated, program,
                            list(inbox), rs,
                        ),
                    )
    # quiescence: both payload files are empty already (the last superstep
    # sent nothing); give back the heap the early supersteps' transients
    # left free before the final collection adds its output pages
    _trim_heap()
    conn.send(
        (
            "final",
            rs,
            _result_of(rank, program, collect),
            _rank_counters_of(program),
            (superstep, simulated),
        )
    )


def _trim_heap() -> None:
    """Hand the free pages of the C heap back to the OS, once per job.

    Freed request batches below glibc's mmap threshold stay in the heap, so
    without this a worker's resident size stays at its early supersteps'
    level through the final collection, which then adds its region on top.
    Trimming after every superstep as well saved less memory than it cost
    time (docs/performance.md).  ``ctypes`` is imported here, not at module
    import; on a libc without ``malloc_trim`` this does nothing.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _worker_main(
    rank: int,
    size: int,
    conn: Any,
    fabric: P2PFabric,
    program: RankProgram,
    fault_plan: Any,
    max_supersteps: int,
    cost: CostModel,
    resume: tuple[int, RankStats, list] | None = None,
    ckpt: tuple[str, int, int, float] | None = None,
    ring: EventRing | None = None,
    collect: Callable[[int, Any], Any] | None = None,
) -> None:
    """One worker process: run its program once, send the final or error
    reply, and exit.

    Everything rides the fork (no pickling): the rank program, the fault
    plan, ``resume``/``ckpt``, ``ring``, the shared telemetry event ring,
    and ``collect``, the engine's result hook.
    With a ring the worker publishes spans as they close, so a crash loses
    at most the span still open.
    """
    tel = Telemetry.for_worker(ring, rank) if ring is not None else NOOP_TELEMETRY
    try:
        _run_job(
            rank, size, program, conn, fabric,
            cost, fault_plan, max_supersteps, resume, ckpt, tel, collect,
        )
    except RankFailure as exc:
        # exc.rank may name a *peer* (barrier attribution), not the
        # reporter — carry it so the parent raises for the victim
        _report_error(conn, fabric, "rank", exc.original, exc.rank, exc.superstep)
    except Exception as exc:
        _report_error(conn, fabric, "mpsim", exc, rank, None)


def _report_error(
    conn: Any,
    fabric: P2PFabric,
    kind: str,
    exc: BaseException,
    failing_rank: int,
    superstep: int | None,
) -> None:
    """Abort peers and surface a job error to the parent, best-effort.

    The exception object itself travels when it survives pickling (so the
    parent can raise with its type); otherwise its ``repr`` does.
    """
    fabric.abort()  # fail peers fast instead of letting them time out
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(repr(exc))
    try:
        conn.send(("error", kind, exc, failing_rank, superstep))
    except Exception:  # pragma: no cover - parent already gone
        pass


# ===================================================================== parent
def _attribute_death(
    rank: int,
    fabric: P2PFabric,
    fault_plan: Any,
) -> None:
    """Raise the :class:`RankFailure` for a worker the parent saw die.

    The death superstep comes from the rank's last heartbeat in the
    fabric; if the fault plan had an unfired crash scheduled for this rank
    the death is acknowledged on the *parent's* copy of the plan (the
    worker's forked copy died with it) — which is what stops a supervised
    retry from re-killing the respawned rank forever.  The barrier is aborted first so
    surviving peers fail fast too.
    """
    fabric.abort()
    superstep = fabric.last_superstep(rank)
    injected = fault_plan is not None and fault_plan.consume_crash(rank, superstep)
    why = (
        "worker killed by injected crash"
        if injected
        else "worker process died unexpectedly"
    )
    raise RankFailure(rank, RuntimeError(why), superstep=superstep)


def _recv_all(
    parents: Sequence[Any],
    procs: Sequence[Any],
    fabric: P2PFabric,
    fault_plan: Any,
    tick: Callable[[], Any] | None,
) -> dict[int, tuple]:
    """Collect exactly one reply per worker, draining in *arrival* order.

    ``multiprocessing.connection.wait`` services whichever pipes are ready,
    so a straggler rank cannot head-of-line-block the parent from reading
    the others.  Callers then iterate the returned dict in rank order.

    The wait set includes every outstanding worker's process *sentinel*, so
    a death wakes the parent immediately instead of after a poll interval.
    Dead workers surface as :class:`RankFailure` with heartbeat-attributed
    rank and superstep (see :func:`_attribute_death`).

    ``tick`` is invoked once per wait cycle — the telemetry ring drain rides
    the liveness poll here, so long jobs cannot overflow the ring while the
    parent sits waiting for finals.
    """
    msgs: dict[int, tuple] = {}
    pending: dict[Any, int] = {conn: rank for rank, conn in enumerate(parents)}

    while pending:
        if tick is not None:
            tick()
        sentinels = {procs[r].sentinel: r for r in pending.values()}
        ready = _mpc.wait(list(pending) + list(sentinels), timeout=_LIVENESS_POLL)
        for conn in [c for c in ready if c in pending]:
            rank = pending[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                _attribute_death(rank, fabric, fault_plan)
            msgs[rank] = msg
            del pending[conn]
        for obj in ready:
            rank = sentinels.get(obj)
            if rank is None:
                continue
            conn = parents[rank]
            if conn not in pending:
                continue  # reply already collected; death surfaces later
            if conn.poll(0):
                continue  # buffered data first; re-check on the next pass
            _attribute_death(rank, fabric, fault_plan)
    return msgs


def _raise_job_errors(msgs: dict[int, tuple]) -> None:
    """Map worker error reports to the exceptions the in-process engine uses.

    A report names the *failing* rank, which for a barrier attribution is a
    peer of the reporter ("rank(s) [1] never reached the barrier").  Such a
    peer saw only the effect, so a rank's own report of its failure wins
    over its peers' attribution of it.  Ranks named by a rank failure win
    over engine errors nobody was blamed for, and the lowest one is raised
    for determinism: :class:`RankFailure` for a program failure or death,
    :class:`MPSimError` (chained to the worker's exception) for an engine
    error such as :class:`~repro.mpsim.p2p.MailboxOverflow`.
    """
    errors = {r: m[1:] for r, m in msgs.items() if m[0] == "error"}
    if not errors:
        return
    blamed = [failing for kind, _exc, failing, _step in errors.values() if kind == "rank"]
    rank = min(blamed) if blamed else min(errors)
    if rank in errors and errors[rank][2] == rank:
        reporter = rank
    else:
        reporter = min(r for r, m in errors.items() if m[2] == rank)
    kind, exc, _failing, superstep = errors[reporter]
    if kind == "rank":
        raise RankFailure(rank, exc, superstep=superstep)
    raise MPSimError(f"rank {rank}: {exc!r}") from exc


def _load_cut(
    size: int, cost: CostModel, max_supersteps: int, cut: int, paths: dict[int, str]
) -> CheckpointData | None:
    """One complete cut's ``size`` shards as an ordinary
    :class:`CheckpointData`, or None if any shard is invalid."""
    try:
        shards = [load_shard(paths[r]) for r in range(size)]
    except MPSimError:
        return None
    world = WorldStats.for_size(size)
    for s in shards:
        world.ranks[s.rank] = s.rank_stats
    return CheckpointData(
        size=size,
        cost=cost,
        max_supersteps=max_supersteps,
        supersteps=cut,
        simulated_time=shards[0].simulated_time,
        stats=world,
        programs=[s.program for s in shards],
        inboxes=[list(s.inbox) for s in shards],
    )


def _commit_cuts(
    checkpointer: Checkpointer,
    shard_dir: Path,
    size: int,
    cost: CostModel,
    max_supersteps: int,
) -> None:
    """Commit the newest ``checkpointer.keep`` valid cuts the workers left
    in ``shard_dir``, oldest first, and delete every shard.

    Runs once the workers have exited, so the files are the whole record:
    a cut whose every rank sealed its shard counts whether the job finished
    or died after it, and a cut missing a shard, or holding an invalid one,
    is skipped.  The checkpointer's rotation keeps only the newest ``keep``
    manifests, so the cuts older than those are deleted unread rather than
    committed and rotated away.
    """
    cuts: dict[int, dict[int, str]] = {}
    for path in shard_dir.glob("cut*.rank*.shard"):
        cut, rank = path.name.split(".")[:2]
        cuts.setdefault(int(cut[3:]), {})[int(rank[4:])] = str(path)
    kept: list[CheckpointData] = []
    for cut in sorted(cuts, reverse=True):
        if len(kept) < checkpointer.keep and len(cuts[cut]) == size:
            data = _load_cut(size, cost, max_supersteps, cut, cuts[cut])
            if data is not None:
                kept.append(data)
        for path in cuts[cut].values():
            Path(path).unlink(missing_ok=True)
    for data in reversed(kept):
        checkpointer.commit(data)


def _drive_job(
    parents: Sequence[Any],
    procs: Sequence[Any],
    size: int,
    fabric: P2PFabric,
    fault_plan: Any,
    stats: WorldStats,
    step0: int = 0,
    collector: RingCollector | None = None,
    tel: Any = NOOP_TELEMETRY,
) -> tuple[list[Any], list[dict], int, float]:
    """Parent side of one job, once the workers are forked.

    The workers run to quiescence on their own; the parent only collects
    the finals.  ``step0`` is the superstep the job resumes from (0 for fresh
    runs).  ``collector`` drains the telemetry event ring once per
    liveness-poll cycle and ``tel`` records the parent's own collection
    span.  Returns ``(results, rank_counters, supersteps, simulated_delta)``
    — the superstep count is absolute, the simulated time is this job's
    increment — and writes the workers' final :class:`RankStats` into
    ``stats``.
    """
    tick = collector.drain if collector is not None else None
    with tel.span("job.collect", cat="run", tid=-1) as sp:
        msgs = _recv_all(parents, procs, fabric, fault_plan, tick)
        if tel.enabled:
            # the coordinator lane's footprint, once the finals are in
            sp.note(rss_bytes=proc_rss_bytes())
    # a worker may also fail *during* final collection (e.g. its
    # ``result()`` raises); that surfaces here like any mid-run failure
    _raise_job_errors(msgs)
    results: list[Any] = [None] * size
    counters: list[dict] = [{} for _ in range(size)]
    supersteps = step0
    simulated = 0.0
    for rank in range(size):
        kind, rank_stats, result, rank_counters, tail = msgs[rank]
        if kind != "final":  # pragma: no cover - protocol violation
            raise MPSimError(f"unexpected final message {kind!r} from rank {rank}")
        _install_rank_stats(stats, rank, rank_stats)
        results[rank] = result
        counters[rank] = rank_counters
        steps, sim = tail
        supersteps = max(supersteps, steps)
        simulated = max(simulated, sim)
    return results, counters, supersteps, simulated


def _install_rank_stats(stats: WorldStats, rank: int, rank_stats: Any) -> None:
    """Adopt a worker's authoritative counters as the parent's per-rank row."""
    if not isinstance(rank_stats, RankStats) or rank_stats.rank != rank:
        raise MPSimError(f"rank {rank} returned malformed stats {rank_stats!r}")
    stats.ranks[rank] = rank_stats


class MultiprocessingBSPEngine:
    """Drive :class:`~repro.mpsim.bsp.RankProgram` objects in real processes.

    The API mirrors :class:`~repro.mpsim.bsp.BSPEngine.run` — including the
    ``checkpointer``/``initial_inboxes`` hooks, so
    :class:`~repro.mpsim.supervisor.Supervisor` can drive either engine —
    with one addition: because programs live in child address spaces, their
    final state is not visible to the caller.  Programs may expose a
    ``result()`` method; the values are collected into :attr:`results` (rank
    order) after :meth:`run`, and per-rank request counters (when the
    program exposes them) into :attr:`rank_counters`.

    Parameters
    ----------
    size:
        Number of ranks (one process each).
    max_supersteps:
        Safety bound on the superstep loop.
    cost_model:
        Virtual-time charges used by the worker-side accounting (defaults to
        the paper-testbed preset, same as the in-process engine).
    barrier_timeout:
        Wall-clock bound (seconds) on one superstep barrier — a last-resort
        backstop for wedged ranks.  Worker deaths are detected by the parent
        within one liveness poll and abort the barrier long before it can
        expire.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  When enabled, a
        shared-memory event ring is created before forking; workers publish
        compute / exchange / barrier-wait spans (``tid`` = rank) and marks
        into it, and the parent drains them into the facade — including
        everything a crashed worker published before dying.  Stored as
        :attr:`tel`.
    collect:
        Optional ``collect(rank, program)``, called in each worker once its
        program is done, in place of ``program.result()``; its return value
        travels back as ``results[rank]``.  It rides the fork, so it may
        write into memory the parent mapped shared before :meth:`run` (e.g.
        :meth:`repro.core.parallel_pa.ResultRegions.fill`, which returns
        nothing).
    """

    def __init__(
        self,
        size: int,
        max_supersteps: int = 10_000,
        cost_model: CostModel | None = None,
        barrier_timeout: float = 120.0,
        telemetry: Any = None,
        collect: Callable[[int, Any], Any] | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.max_supersteps = max_supersteps
        self.cost = cost_model or CostModel()
        self.barrier_timeout = barrier_timeout
        self.stats = WorldStats.for_size(size)
        self.results: list[Any] = []
        self.rank_counters: list[dict] = []
        self.tel = resolve(telemetry)
        self.collect = collect
        self.supersteps = 0
        self.simulated_time = 0.0

    def run(
        self,
        programs: Sequence[RankProgram],
        fault_plan: Any = None,
        checkpointer: Checkpointer | None = None,
        initial_inboxes: list[list[tuple[int, Any]]] | None = None,
    ) -> WorldStats:
        """Fork one worker per rank, run ``programs`` to quiescence, collect.

        ``fault_plan``'s crashes are real worker ``SIGKILL`` deaths,
        surfaced as :class:`RankFailure` with the victim's rank and
        heartbeat-attributed superstep.

        ``checkpointer`` enables cross-process snapshots: workers write
        per-rank shards at checkpoint supersteps (into a ``<path>.shards/``
        sibling directory).  Once the workers have exited, on success and
        on failure alike, the parent commits the newest complete cuts there
        (as many as the checkpointer keeps), in ascending order, as
        ordinary checkpoint manifests loadable by either engine.  A cut is snapshotted only if its exchange carried
        traffic.

        ``initial_inboxes`` switches the run into *resume* mode (used by the
        supervisor): the engine's ``stats``/``supersteps``/``simulated_time``
        — restored from the snapshot by the caller — are continued rather
        than reset, and each worker starts from its restored program, stats
        row, and in-flight inbox.
        """
        if len(programs) != self.size:
            raise MPSimError(f"expected {self.size} rank programs, got {len(programs)}")
        resume_mode = initial_inboxes is not None
        if resume_mode and len(initial_inboxes) != self.size:
            raise MPSimError("initial_inboxes must have one entry per rank")
        if not resume_mode:
            self.stats = WorldStats.for_size(self.size)
            self.supersteps = 0
        ckpt = shards_path = None
        if checkpointer is not None:
            shards_path = checkpointer.path.parent / (checkpointer.path.name + ".shards")
            shards_path.mkdir(parents=True, exist_ok=True)
            for stale in shards_path.glob("*.shard"):
                # leftovers of an incomplete cut from a crashed run; the
                # committed manifests are the only trusted recovery points
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
            ckpt = (
                str(shards_path), checkpointer.every, checkpointer.min_superstep,
                self.simulated_time,
            )
        ctx = mp.get_context("fork")
        fabric = P2PFabric(self.size, timeout=self.barrier_timeout)
        # the event ring must exist before the fork so workers inherit it
        ring = EventRing() if self.tel.enabled else None
        collector = RingCollector(ring) if ring is not None else None
        parents: list[Any] = []
        procs: list[Any] = []
        failed = True
        try:
            with self.tel.span("mp.run", cat="run", tid=-1, size=self.size):
                for rank, prog in enumerate(programs):
                    resume = (
                        (self.supersteps, self.stats.ranks[rank], list(initial_inboxes[rank]))
                        if resume_mode
                        else None
                    )
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(
                            rank, self.size, child_conn, fabric, prog, fault_plan,
                            self.max_supersteps, self.cost, resume, ckpt, ring,
                            self.collect,
                        ),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    parents.append(parent_conn)
                    procs.append(proc)

                results, counters, supersteps, simulated = _drive_job(
                    parents, procs, self.size, fabric, fault_plan,
                    self.stats, step0=self.supersteps,
                    collector=collector, tel=self.tel,
                )
            self.results, self.rank_counters = results, counters
            self.supersteps = supersteps
            # accumulate like the in-process engine: the supervisor charges
            # restart backoff onto the clock between attempts
            self.simulated_time += simulated
            if self.tel.enabled:
                self.tel.meta.setdefault("engine", "mp")
                self.tel.meta["size"] = self.size
            failed = False
        finally:
            # clean up on *every* path.  Each worker exits after its one
            # reply; the abort releases any still parked at a barrier when
            # the job failed, and what is left after the grace is terminated
            fabric.abort()
            for conn in parents:
                conn.close()
            deadline = time.monotonic() + (_FAILED_JOB_GRACE if failed else 10.0)
            for proc in procs:
                proc.join(timeout=max(deadline - time.monotonic(), 0.0))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1)
            fabric.close()
            if collector is not None:
                # merge on every path: a crashed run's published history is
                # exactly what the post-mortem trace needs
                collector.merge_into(self.tel)
                ring.close()
            if checkpointer is not None:
                # every worker has exited, so no shard is still in flight
                _commit_cuts(
                    checkpointer, shards_path, self.size, self.cost,
                    self.max_supersteps,
                )
        return self.stats
