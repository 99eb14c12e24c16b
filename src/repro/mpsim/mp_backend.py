"""Real-parallelism backend: run BSP rank programs in OS processes.

The in-process :class:`~repro.mpsim.bsp.BSPEngine` *simulates* a distributed
machine; this backend *is* one (in miniature): each rank program runs in its
own forked process with its own address space.  It exists to prove the rank
programs are genuinely shared-nothing — any accidental reliance on shared
state would produce a different graph here than under the in-process engine,
and the test-suite compares the two bit-for-bit.

Three exchange topologies are available:

``"shm"`` (default)
    coordinator-routed descriptors, zero-copy payloads: every worker owns a
    double-buffered ``multiprocessing.shared_memory`` segment, writes its
    outbox arrays into the half assigned to the current superstep's parity,
    and ships only small ``(segment, offset, count, dtype)`` descriptors
    through the parent's pipes.  Receivers map the source segment and copy
    the records straight out of shared memory — the payload bytes never pass
    through pickle.  Double buffering makes the lockstep safe: superstep
    ``s`` writes half ``s % 2`` while every reader of superstep ``s - 1``
    data reads half ``(s - 1) % 2``.
``"pickle"``
    the original pipe path (arrays pickled through the coordinator's
    connections), kept as a portability fallback and as the baseline the
    hot-path benchmark compares against.
``"p2p"``
    fully peer-to-peer: payloads travel exactly as under ``"shm"``, but the
    descriptors go through a shared-memory mailbox matrix
    (:class:`repro.mpsim.p2p.P2PFabric`) and the supersteps are paced by a
    shared barrier with distributed termination detection — the parent never
    touches a byte of superstep traffic and only monitors liveness and
    collects final results.  This removes the coordinator's serial
    per-superstep work (two pipe hops per rank per superstep) from the
    critical path.

All transports deliver inboxes in identical (source-rank, send) order, so
they produce bit-identical graphs — asserted by the test-suite.

The coordinator paths drain worker replies with
``multiprocessing.connection.wait`` in *arrival* order (then process them in
rank order, keeping delivery deterministic), so a straggling rank no longer
blocks the parent from servicing the others' pipes.

Statistics are accounted *worker-side* with the same formulas the in-process
engine uses (message counts, byte volumes, virtual busy time, superstep
durations) and shipped to the parent at job end, so
``engine.stats.summary()`` agrees with a matching in-process run and
``engine.simulated_time`` is populated on every transport.

Fault tolerance (see ``docs/fault_tolerance.md``):

* :class:`~repro.mpsim.faults.FaultPlan` crashes scheduled by superstep are
  realised as *real* fail-stop deaths — the victim worker ``SIGKILL``\\ s
  itself just before stepping, with no cleanup or goodbye message.
* The parent detects any worker death within one liveness poll
  (:data:`_LIVENESS_POLL` seconds) by waiting on the process *sentinels*
  alongside the reply pipes, and attributes it to a rank and superstep via
  the shared :class:`~repro.mpsim.heartbeat.Heartbeats` board; under p2p
  the fabric's barrier is aborted so surviving ranks fail fast instead of
  waiting out the barrier timeout.  Deaths surface as
  :class:`~repro.mpsim.errors.RankFailure` with the victim's rank and last
  superstep attached.
* With a :class:`~repro.mpsim.checkpoint.Checkpointer` attached, workers
  write per-rank state *shards* at checkpoint supersteps and the parent
  assembles each complete cut into an ordinary checkpoint manifest — so a
  supervised run (:class:`~repro.mpsim.supervisor.Supervisor`) can reload
  the newest valid snapshot, respawn the ranks, resume, and still produce a
  bit-identical graph.

For repeated jobs over the same rank count, see
:class:`repro.mpsim.pool.WorkerPool`, which forks this module's workers once
and reuses them (pipes, payload segments, and p2p fabric included) across
many ``run()`` calls — and since this PR heals itself by forking
replacements for dead members instead of staying permanently broken.
"""

from __future__ import annotations

import multiprocessing as mp
import os
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
from repro.mpsim.errors import InvalidRankError, MPSimError, RankFailure
from repro.mpsim.faults import CAP_CRASH_TIME, CAP_DROP, CAP_DUPLICATE
from repro.mpsim.heartbeat import Heartbeats
from repro.mpsim.p2p import P2PFabric
from repro.mpsim.stats import RankStats, WorldStats
from repro.telemetry.collector import (
    NOOP_TELEMETRY,
    RingCollector,
    Telemetry,
    resolve,
)
from repro.telemetry.metrics import proc_rss_bytes
from repro.telemetry.ringbuf import EventRing

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "MultiprocessingBSPEngine",
    "EXCHANGE_SHM",
    "EXCHANGE_PICKLE",
    "EXCHANGE_P2P",
    "EXCHANGES",
]

# worker protocol commands (parent -> worker)
_STOP = "stop"
_STEP = "step"
_JOB = "job"
_SHUTDOWN = "shutdown"
_ABANDON = "abandon"

EXCHANGE_SHM = "shm"
EXCHANGE_PICKLE = "pickle"
EXCHANGE_P2P = "p2p"
EXCHANGES = (EXCHANGE_SHM, EXCHANGE_PICKLE, EXCHANGE_P2P)

#: Smallest per-half segment size; avoids churning tiny segments while the
#: first supersteps ramp up.
_MIN_HALF_BYTES = 1 << 16

#: wall seconds slept per superstep per unit of straggle factor above 1.0
#: when a fault plan marks a rank as a straggler — a *real* delay, so the
#: determinism tests exercise genuinely skewed arrival timings
_STRAGGLE_SLEEP = 1e-3

#: how often the parent re-checks worker liveness while waiting on pipes;
#: with sentinel watching a death is usually noticed immediately, this is
#: only the re-arm period of the wait
_LIVENESS_POLL = 0.25


def _attach(name: str):
    """Attach to an existing segment without resource-tracker ownership.

    Before Python 3.13 every attach registers the segment with the resource
    tracker.  With the per-process trackers of a plain fork that is merely
    noisy, but once the parent has created shared memory of its own (the p2p
    fabric) every child inherits the *same* tracker process — and the old
    register-then-``unregister`` dance removes the creating rank's
    registration, producing double-unregister errors when several ranks
    attach the same segment.  So the attach must not register at all: the
    registration is suppressed for the duration of the constructor, leaving
    the creator's registration as the single tracked owner.  Python 3.13+
    has ``track=False`` for exactly this.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        try:
            from multiprocessing import resource_tracker
        except ImportError:  # pragma: no cover - no tracker, nothing to dodge
            return _shared_memory.SharedMemory(name=name)
        original = resource_tracker.register

        def _skip_shm(rname: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - not hit today
                original(rname, rtype)

        resource_tracker.register = _skip_shm
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class _ShmWriter:
    """One worker's double-buffered shared-memory outbox arena.

    The segment holds two halves; superstep ``s`` writes into half ``s % 2``
    (a bump allocator reset each superstep).  When a superstep's payload
    outgrows the current half, a fresh segment (doubled) is created under a
    new name — the old one is kept alive until shutdown because readers may
    still be copying last superstep's records out of it.
    """

    def __init__(self) -> None:
        self.shm = None
        self.half = 0
        self._retired: list[Any] = []

    def _ensure(self, nbytes: int) -> None:
        if self.shm is not None and nbytes <= self.half:
            return
        half = _MIN_HALF_BYTES
        while half < nbytes:
            half *= 2
        new = _shared_memory.SharedMemory(create=True, size=2 * half)
        if self.shm is not None:
            self._retired.append(self.shm)
        self.shm, self.half = new, half

    def write(self, outbox: dict[int, list[np.ndarray]], superstep: int) -> dict:
        """Copy ``outbox`` arrays into shared memory; return the descriptor
        outbox ``{dest: [(name, offset, count, dtype), ...]}``."""
        total = sum(
            arr.nbytes for arrs in outbox.values() for arr in arrs if len(arr)
        )
        self._ensure(total)
        off = (superstep % 2) * self.half
        meta: dict[int, list[tuple[str, int, int, np.dtype]]] = {}
        for dest, arrs in outbox.items():
            descs = []
            for arr in arrs:
                if len(arr) == 0:
                    continue
                arr = np.ascontiguousarray(arr)
                # byte-level copy: structured-dtype fancy assignment is ~20x
                # slower than a plain memcpy, so move raw bytes and let the
                # receiver reinterpret them with the dtype from the descriptor
                dst = np.frombuffer(self.shm.buf, np.uint8, count=arr.nbytes, offset=off)
                dst[:] = arr.view(np.uint8)
                del dst  # release the buffer export before any close()
                descs.append((self.shm.name, off, len(arr), arr.dtype))
                off += arr.nbytes
            if descs:
                meta[dest] = descs
        return meta

    def close(self) -> None:
        for seg in self._retired + ([self.shm] if self.shm is not None else []):
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._retired, self.shm, self.half = [], None, 0


class _ShmReader:
    """Attachment cache for reading other ranks' segments by name."""

    def __init__(self) -> None:
        self._cache: dict[str, Any] = {}

    def read(self, desc: tuple[str, int, int, np.dtype]) -> np.ndarray:
        name, off, count, dtype = desc
        shm = self._cache.get(name)
        if shm is None:
            shm = _attach(name)
            self._cache[name] = shm
        # private byte copy (the source half is reused two supersteps later),
        # then reinterpret: memcpy-speed, unlike structured-dtype .copy()
        nbytes = count * dtype.itemsize
        raw = np.empty(nbytes, np.uint8)
        src = np.frombuffer(shm.buf, np.uint8, count=nbytes, offset=off)
        raw[:] = src
        del src
        return raw.view(dtype)

    def close(self) -> None:
        for shm in self._cache.values():
            shm.close()
        self._cache.clear()


# ===================================================================== worker
class _ShutdownRequested(Exception):
    """Parent asked the worker to exit while a job was in flight."""


class _JobAbandoned(Exception):
    """Parent abandoned the in-flight job (pool healing); carries the token."""

    def __init__(self, token: Any) -> None:
        super().__init__(f"job abandoned (token {token!r})")
        self.token = token


def _result_of(rank: int, program: RankProgram) -> Any:
    """Extract a rank program's result payload, if it exposes one.

    A ``result()`` that raises is a *program* failure even though it happens
    during final collection rather than mid-superstep, so it is wrapped in
    :class:`RankFailure` exactly like a failing ``step()``.
    """
    getter = getattr(program, "result", None)
    if not callable(getter):
        return None
    try:
        return getter()
    except Exception as exc:
        raise RankFailure(rank, exc) from exc


def _telemetry_of(program: RankProgram) -> dict[str, int]:
    """Per-rank counters the generation facade reports (Figure 7 data)."""
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
    heartbeats: Heartbeats | None,
) -> tuple[dict[int, list[np.ndarray]], int, float]:
    """Run one superstep of ``program`` and account it like the in-process
    engine does.

    Beats the heartbeat first (so a death is attributable to this
    superstep), then fires any scheduled crash as a real fail-stop death:
    the worker ``SIGKILL``\\ s itself before stepping — the same pre-step
    timing the in-process engine uses, which is what keeps recovery cuts
    aligned between engines.

    Returns the cleaned outbox (contiguous, non-empty arrays only), the
    outgoing record count, and the superstep's virtual duration for this
    rank.  Program exceptions surface as :class:`RankFailure`.
    """
    if heartbeats is not None:
        heartbeats.beat(rank, superstep)
    if fault_plan is not None and fault_plan.should_crash(rank, superstep=superstep):
        # a *real* fail-stop death: no cleanup, no goodbye message — the
        # parent must detect it from the sentinel and the silent heartbeat
        os.kill(os.getpid(), signal.SIGKILL)
    in_records = sum(len(arr) for _, arr in inbox)
    in_bytes = sum(arr.nbytes for _, arr in inbox)
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
        kept = [np.ascontiguousarray(arr) for arr in payloads if len(arr)]
        if not kept:
            continue
        clean[dest] = kept
        for arr in kept:
            out_records += len(arr)
            out_bytes += arr.nbytes

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
    if fault_plan is not None:
        mult = fault_plan.straggle_multiplier(rank)
        if mult > 1.0:
            t *= mult
            # a *real* wall-clock delay so exchange-arrival orderings are
            # genuinely perturbed, not just virtually charged
            time.sleep(_STRAGGLE_SLEEP * (mult - 1.0))
    rs.busy_time += t
    return clean, out_records, t


def _run_job_coordinator(
    rank: int,
    size: int,
    program: RankProgram,
    conn: Any,
    exchange: str,
    writer: Any,
    reader: Any,
    cost: CostModel,
    fault_plan: Any,
    heartbeats: Heartbeats | None = None,
    resume: tuple[int, RankStats, list] | None = None,
    tel: Any = NOOP_TELEMETRY,
) -> None:
    """Worker side of one coordinator-routed job (``shm``/``pickle``).

    ``resume`` — ``(superstep0, rank_stats, inbox0)`` — continues a
    checkpointed run: the superstep counter and statistics row pick up where
    the snapshot left off, and ``inbox0`` (the snapshot's in-flight
    messages) is consumed by the first ``_STEP``, whose payload from the
    parent is empty.

    A ``_STEP`` payload is ``(inbox_payload, shard_req)``; a non-``None``
    ``shard_req = (cut, simulated_time, shard_dir)`` instructs the worker to
    write its checkpoint shard for ``cut`` — its state at the *start* of
    this superstep, which equals the in-process engine's state after
    superstep ``cut`` — before stepping.
    """
    stats = WorldStats.for_size(size)
    superstep = 0
    pending_inbox: list | None = None
    if resume is not None:
        superstep, rank_stats, pending_inbox = resume
        stats.ranks[rank] = rank_stats
    ctx = BSPRankContext(rank, size, stats, cost)
    rs = stats[rank]
    while True:
        # time blocked on the coordinator: routing latency plus however long
        # the slowest peer makes everyone wait — the transport's barrier
        with tel.span("step.wait", cat="barrier", tid=rank, superstep=superstep + 1):
            cmd, payload = conn.recv()
        if cmd == _SHUTDOWN:
            raise _ShutdownRequested
        if cmd == _ABANDON:
            raise _JobAbandoned(payload)
        if cmd == _STOP:
            conn.send(
                ("final", rs, _result_of(rank, program), _telemetry_of(program), None)
            )
            return
        superstep += 1
        step_payload, shard_req = payload
        if exchange == EXCHANGE_SHM:
            with tel.span("exchange.read", cat="exchange", tid=rank, superstep=superstep):
                inbox = [(src, reader.read(desc)) for src, desc in step_payload]
        else:
            inbox = step_payload
        if pending_inbox is not None:
            inbox = pending_inbox + list(inbox)
            pending_inbox = None
        if shard_req is not None:
            cut, sim_abs, shard_dir = shard_req
            path = _shard_path(shard_dir, cut, rank)
            with tel.span("shard.save", cat="checkpoint", tid=rank, cut=cut):
                save_shard(
                    path, ShardData(rank, cut, sim_abs, program, list(inbox), rs)
                )
            conn.send(("shard", cut, str(path)))
        with tel.span("compute", cat="compute", tid=rank, superstep=superstep) as sp:
            clean, out_records, t = _execute_step(
                rank, size, program, ctx, rs, inbox, cost, fault_plan,
                superstep, heartbeats,
            )
            sp.note(virtual_s=t, records=out_records)
            if tel.enabled:
                sp.note(rss_bytes=proc_rss_bytes())
        with tel.span("exchange.write", cat="exchange", tid=rank, superstep=superstep):
            if exchange == EXCHANGE_SHM:
                meta = writer.write(clean, superstep)
            else:
                meta = clean
            conn.send(("out", meta, bool(program.done), t))
        if tel.enabled:
            tel.counter(
                "mp_worker_supersteps_total", "supersteps executed worker-side"
            ).inc(rank=rank)
            tel.gauge(
                "proc_rss_bytes", "resident set size, sampled per superstep"
            ).set(float(proc_rss_bytes()), rank=rank)
            tel.flush()


def _run_job_p2p(
    rank: int,
    size: int,
    program: RankProgram,
    conn: Any,
    fabric: P2PFabric,
    writer: _ShmWriter,
    reader: _ShmReader,
    cost: CostModel,
    fault_plan: Any,
    max_supersteps: int,
    heartbeats: Heartbeats | None = None,
    resume: tuple[int, RankStats, list] | None = None,
    ckpt: tuple[str, int, int, float] | None = None,
    tel: Any = NOOP_TELEMETRY,
) -> None:
    """Worker side of one peer-to-peer job: no parent on the data path.

    Each superstep: step the program, write payloads into this rank's
    shared-memory arena, post the descriptors into every peer's mailbox,
    publish the (done, traffic, time) triple, hit the barrier, then take the
    global termination decision from the shared counters and read the inbox
    straight out of the peers' segments.

    Checkpointing is decided *distributedly*: ``ckpt = (shard_dir, every,
    min_superstep, sim0)`` gives every rank the same schedule, and the shared
    traffic counters give every rank the same view of whether the cut is
    worth snapshotting — so all ranks write their shard for the same cuts
    without any coordinator round.  ``resume`` continues a checkpointed run
    exactly as in the coordinator paths; the final tail reports the
    superstep count (absolute) and the simulated time *delta* of this job.
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
    try:
        while True:
            if superstep >= max_supersteps:
                raise MPSimError(f"exceeded max_supersteps={max_supersteps}")
            superstep += 1
            with tel.span("compute", cat="compute", tid=rank, superstep=superstep) as sp:
                clean, out_records, t = _execute_step(
                    rank, size, program, ctx, rs, inbox, cost, fault_plan,
                    superstep, heartbeats,
                )
                sp.note(virtual_s=t, records=out_records)
                if tel.enabled:
                    sp.note(rss_bytes=proc_rss_bytes())
            with tel.span("exchange.write", cat="exchange", tid=rank, superstep=superstep):
                meta = writer.write(clean, superstep)
                fabric.post(rank, superstep, meta)
            fabric.publish(rank, superstep, bool(program.done), out_records, t)
            # the real imbalance cost: fast ranks park here until the
            # slowest peer arrives (paper Section 4.6's load-balance story)
            with tel.span("barrier.wait", cat="barrier", tid=rank, superstep=superstep):
                fabric.wait(rank, superstep)
            if tel.enabled:
                tel.counter(
                    "mp_worker_supersteps_total", "supersteps executed worker-side"
                ).inc(rank=rank)
                tel.gauge(
                    "proc_rss_bytes", "resident set size, sampled per superstep"
                ).set(float(proc_rss_bytes()), rank=rank)
                tel.flush()
            simulated += fabric.max_step_time(superstep)
            if fabric.quiescent(superstep):
                break
            with tel.span("exchange.read", cat="exchange", tid=rank, superstep=superstep):
                inbox = [
                    (src, reader.read(desc))
                    for src, desc in fabric.collect(rank, superstep)
                ]
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
                    conn.send(("shard", superstep, str(path)))
    except Exception:
        fabric.abort()  # fail peers fast instead of letting them time out
        raise
    conn.send(
        (
            "final",
            rs,
            _result_of(rank, program),
            _telemetry_of(program),
            (superstep, simulated),
        )
    )


def _worker_main(
    rank: int,
    size: int,
    conn: Any,
    exchange: str,
    fabric: P2PFabric | None,
    program: RankProgram | None,
    max_supersteps: int,
    cost: CostModel,
    heartbeats: Heartbeats | None = None,
    resume: tuple[int, RankStats, list] | None = None,
    ckpt: tuple[str, int, int, float] | None = None,
    ring: EventRing | None = None,
) -> None:
    """One worker process: serve jobs until shutdown.

    ``program`` is the fork-inherited rank program for one-shot engine runs;
    pooled jobs ship their programs in the job command instead.  Payload
    segments (and the reader's attachment cache) persist across jobs so a
    :class:`~repro.mpsim.pool.WorkerPool` pays segment setup once.
    ``resume``/``ckpt`` ride the fork (no pickling) and apply to the first
    job only — a resumed engine run is always one-shot.  ``ring`` (also
    fork-inherited) is the shared telemetry event ring; when present the
    worker publishes spans as they close and cumulative metric snapshots
    every superstep, so a crash loses at most the current superstep.
    """
    needs_shm = exchange in (EXCHANGE_SHM, EXCHANGE_P2P)
    writer = _ShmWriter() if needs_shm else None
    reader = _ShmReader() if needs_shm else None
    tel = Telemetry.for_worker(ring, rank) if ring is not None else NOOP_TELEMETRY
    try:
        while True:
            try:
                cmd, payload = conn.recv()
            except EOFError:
                return
            if cmd == _SHUTDOWN:
                return
            if cmd == _ABANDON:
                # idle worker: nothing in flight, just acknowledge the token
                conn.send(("abandoned", payload))
                continue
            if cmd != _JOB:  # pragma: no cover - protocol violation
                conn.send(("error", "mpsim", f"unexpected command {cmd!r}", rank, None))
                return
            job_program, fault_plan = payload
            prog = job_program if job_program is not None else program
            job_resume, resume = resume, None
            try:
                if exchange == EXCHANGE_P2P:
                    _run_job_p2p(
                        rank, size, prog, conn, fabric, writer, reader,
                        cost, fault_plan, max_supersteps,
                        heartbeats, job_resume, ckpt, tel,
                    )
                else:
                    _run_job_coordinator(
                        rank, size, prog, conn, exchange, writer, reader,
                        cost, fault_plan, heartbeats, job_resume, tel,
                    )
                tel.flush()
            except _ShutdownRequested:
                return
            except _JobAbandoned as exc:
                conn.send(("abandoned", exc.token))
            except RankFailure as exc:
                # exc.rank may name a *peer* (barrier attribution), not the
                # reporter — carry it so the parent raises for the victim
                _report_error(
                    conn, fabric, "rank", repr(exc.original), exc.rank, exc.superstep
                )
            except Exception as exc:
                _report_error(conn, fabric, "mpsim", repr(exc), rank, None)
    finally:
        if reader is not None:
            reader.close()
        if writer is not None:
            writer.close()


def _report_error(
    conn: Any,
    fabric: P2PFabric | None,
    kind: str,
    msg: str,
    failing_rank: int,
    superstep: int | None,
) -> None:
    """Abort peers (p2p) and surface a job error to the parent, best-effort."""
    if fabric is not None:
        fabric.abort()
    try:
        conn.send(("error", kind, msg, failing_rank, superstep))
    except Exception:  # pragma: no cover - parent already gone
        pass


# ===================================================================== parent
def _attribute_death(
    rank: int,
    fabric: P2PFabric | None,
    heartbeats: Heartbeats | None,
    fault_plan: Any,
) -> None:
    """Raise the :class:`RankFailure` for a worker the parent saw die.

    The death superstep comes from the rank's last heartbeat; if the fault
    plan had an unfired crash scheduled for this rank the death is
    acknowledged on the *parent's* copy of the plan (the worker's forked
    copy died with it) — which is what stops a supervised retry from
    re-killing the respawned rank forever.  With a p2p fabric the barrier is
    aborted first so surviving peers fail fast too.
    """
    if fabric is not None:
        fabric.abort()
    superstep = heartbeats.last_superstep(rank) if heartbeats is not None else None
    injected = (
        fault_plan is not None
        and callable(getattr(fault_plan, "consume_crash", None))
        and fault_plan.consume_crash(rank, superstep)
    )
    why = (
        "worker killed by injected crash"
        if injected
        else "worker process died unexpectedly"
    )
    raise RankFailure(rank, RuntimeError(why), superstep=superstep)


def _safe_send(
    conn: Any,
    rank: int,
    msg: Any,
    fabric: P2PFabric | None,
    heartbeats: Heartbeats | None,
    fault_plan: Any,
) -> None:
    """Send to a worker, converting a dead pipe into an attributed failure."""
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):
        _attribute_death(rank, fabric, heartbeats, fault_plan)


def _recv_all(
    parents: Sequence[Any],
    procs: Sequence[Any],
    fabric: P2PFabric | None,
    heartbeats: Heartbeats | None = None,
    fault_plan: Any = None,
    on_shard: Callable[[int, int, str], None] | None = None,
    tick: Callable[[], Any] | None = None,
    liveness_poll: float = _LIVENESS_POLL,
) -> dict[int, tuple]:
    """Collect exactly one reply per worker, draining in *arrival* order.

    ``multiprocessing.connection.wait`` services whichever pipes are ready,
    so a straggler rank cannot head-of-line-block the parent from reading
    the others (the pre-PR path ``recv``-ed in strict rank order).  Callers
    then iterate the returned dict in rank order, which keeps downstream
    routing deterministic regardless of arrival timing.

    The wait set includes every outstanding worker's process *sentinel*, so
    a death wakes the parent immediately instead of after a poll interval.
    Dead workers surface as :class:`RankFailure` with heartbeat-attributed
    rank and superstep (see :func:`_attribute_death`).

    ``("shard", cut, path)`` checkpoint notifications are routed to
    ``on_shard`` without consuming the worker's pending reply slot; before
    a death is raised, every buffered shard notification is drained so the
    newest complete cut can still be committed.

    ``tick`` is invoked once per wait cycle — the telemetry ring drain rides
    the liveness poll here, so long p2p jobs cannot overflow the ring while
    the parent sits waiting for finals.
    """
    msgs: dict[int, tuple] = {}
    pending: dict[Any, int] = {conn: rank for rank, conn in enumerate(parents)}

    def _died(rank: int) -> None:
        # the victim (and its peers) may have flushed shard notifications
        # before the death; keep them — the cut they complete is exactly the
        # recovery point the supervisor wants
        for conn2, rank2 in pending.items():
            try:
                while conn2.poll(0):
                    m = conn2.recv()
                    if m[0] == "shard" and on_shard is not None:
                        on_shard(rank2, m[1], m[2])
            except (EOFError, OSError):
                pass
        _attribute_death(rank, fabric, heartbeats, fault_plan)

    while pending:
        if tick is not None:
            tick()
        sentinels = {procs[r].sentinel: r for r in pending.values()}
        ready = _mpc.wait(list(pending) + list(sentinels), timeout=liveness_poll)
        for conn in [c for c in ready if c in pending]:
            rank = pending[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                _died(rank)
            if msg[0] == "shard":
                if on_shard is not None:
                    on_shard(rank, msg[1], msg[2])
                continue  # still owed this worker's real reply
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
            _died(rank)
    return msgs


def _raise_job_errors(msgs: dict[int, tuple]) -> None:
    """Map worker error reports to the exceptions the in-process engine uses.

    Program/rank failures win over engine failures (a crashing rank aborts
    the barrier, so its peers' reports are collateral).  Error reports carry
    the *failing* rank — which, for barrier-attributed failures, may differ
    from the reporting rank — and the lowest failing rank is raised for
    determinism.
    """
    errors = {r: m for r, m in msgs.items() if m[0] == "error"}
    if not errors:
        return
    rank_reports: dict[int, tuple[str, int | None]] = {}
    for reporter in sorted(errors):
        _tag, kind, msg, failing_rank, superstep = errors[reporter]
        if kind == "rank" and failing_rank not in rank_reports:
            rank_reports[failing_rank] = (msg, superstep)
    if rank_reports:
        failing = min(rank_reports)
        msg, superstep = rank_reports[failing]
        raise RankFailure(failing, RuntimeError(msg), superstep=superstep)
    reporter = min(errors)
    raise MPSimError(f"rank {reporter}: {errors[reporter][2]}")


def _commit_cut(
    checkpointer: Checkpointer,
    size: int,
    cost: CostModel,
    max_supersteps: int,
    cut: int,
    paths: dict[int, str],
) -> bool:
    """Assemble one complete cut's shards into a checkpoint manifest.

    Loads and validates all ``size`` shards (any invalid shard voids the
    cut — an older manifest remains the recovery point), builds an ordinary
    :class:`CheckpointData`, and commits it through the checkpointer's
    atomic-write/rotation path.  Consumed shard files are deleted.
    """
    try:
        shards = [load_shard(paths[r]) for r in range(size)]
    except MPSimError:
        return False
    world = WorldStats.for_size(size)
    for s in shards:
        world.ranks[s.rank] = s.rank_stats
    data = CheckpointData(
        size=size,
        cost=cost,
        max_supersteps=max_supersteps,
        supersteps=cut,
        simulated_time=shards[0].simulated_time,
        stats=world,
        programs=[s.program for s in shards],
        inboxes=[list(s.inbox) for s in shards],
    )
    saved = checkpointer.commit(data)
    for p in paths.values():
        try:
            Path(p).unlink()
        except OSError:  # pragma: no cover - already gone
            pass
    return saved


def _drive_job(
    parents: Sequence[Any],
    procs: Sequence[Any],
    size: int,
    exchange: str,
    fabric: P2PFabric | None,
    programs: Sequence[RankProgram] | None,
    fault_plan: Any,
    stats: WorldStats,
    max_supersteps: int,
    heartbeats: Heartbeats | None = None,
    checkpointer: Checkpointer | None = None,
    shard_dir: str | None = None,
    cost: CostModel | None = None,
    step0: int = 0,
    sim0: float = 0.0,
    collector: RingCollector | None = None,
    tel: Any = NOOP_TELEMETRY,
    liveness_poll: float = _LIVENESS_POLL,
) -> tuple[list[Any], list[dict], int, float]:
    """Parent side of one job, shared by the engine and the worker pool.

    ``programs`` is ``None`` when workers inherited their programs at fork
    (one-shot engine runs); pooled jobs pass the list to pickle across.
    ``step0`` is the superstep the job resumes from (0 for fresh runs);
    ``sim0`` the simulated time already on the engine's clock, used only to
    stamp checkpoint manifests with absolute times.  ``collector`` drains
    the telemetry event ring opportunistically (once per superstep on the
    coordinator transports, once per liveness-poll cycle under p2p) and
    ``tel`` records the parent's own routing/waiting spans.  Returns
    ``(results, telemetry, supersteps, simulated_delta)`` — the superstep
    count is absolute, the simulated time is this job's increment — and
    writes the workers' final :class:`RankStats` into ``stats``.
    """
    shards: dict[int, dict[int, str]] = {}

    def _on_shard(rank: int, cut: int, path: str) -> None:
        got = shards.setdefault(cut, {})
        got[rank] = path
        if len(got) == size and checkpointer is not None:
            _commit_cut(
                checkpointer, size, cost or CostModel(), max_supersteps,
                cut, shards.pop(cut),
            )

    for rank, conn in enumerate(parents):
        shipped = programs[rank] if programs is not None else None
        _safe_send(
            conn, rank, (_JOB, (shipped, fault_plan)), fabric, heartbeats, fault_plan
        )

    results: list[Any] = [None] * size
    telemetry: list[dict] = [{} for _ in range(size)]
    tick = collector.drain if collector is not None else None

    if exchange == EXCHANGE_P2P:
        # workers run to quiescence on their own; just collect the finals
        # (and commit checkpoint cuts as their shard notifications arrive)
        with tel.span("job.collect", cat="run", tid=-1):
            msgs = _recv_all(
                parents, procs, fabric, heartbeats, fault_plan, _on_shard, tick,
                liveness_poll,
            )
        _raise_job_errors(msgs)
        supersteps = step0
        simulated = 0.0
        for rank in range(size):
            kind, rank_stats, result, tele, tail = msgs[rank]
            if kind != "final":  # pragma: no cover - protocol violation
                raise MPSimError(f"unexpected final message {kind!r} from rank {rank}")
            _install_rank_stats(stats, rank, rank_stats)
            results[rank] = result
            telemetry[rank] = tele
            steps, sim = tail
            supersteps = max(supersteps, steps)
            simulated = max(simulated, sim)
        return results, telemetry, supersteps, simulated

    # coordinator topologies: the parent routes descriptors (shm) or whole
    # payloads (pickle) between workers each superstep, and decides the
    # checkpoint schedule itself (a shard request rides the next _STEP)
    supersteps = step0
    simulated = 0.0
    inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(size)]
    shard_req: tuple[int, float, str] | None = None
    while True:
        if supersteps >= max_supersteps:
            raise MPSimError(f"exceeded max_supersteps={max_supersteps}")
        supersteps += 1
        step_span = tel.span("superstep", cat="superstep", tid=-1, superstep=supersteps)
        step_span.__enter__()
        for rank, conn in enumerate(parents):
            _safe_send(
                conn, rank, (_STEP, (inboxes[rank], shard_req)),
                fabric, heartbeats, fault_plan,
            )
        shard_req = None
        msgs = _recv_all(
            parents, procs, None, heartbeats, fault_plan, _on_shard, tick,
            liveness_poll,
        )
        _raise_job_errors(msgs)
        next_inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(size)]
        any_traffic = False
        all_done = True
        step_max = 0.0
        step_records = 0
        for rank in range(size):  # rank order: deterministic delivery
            kind, payload, done, t = msgs[rank]
            if kind != "out":  # pragma: no cover - protocol violation
                raise MPSimError(f"unexpected step message {kind!r} from rank {rank}")
            for dest in sorted(payload):
                for item in payload[dest]:
                    next_inboxes[dest].append((rank, item))
                    step_records += 1
                    any_traffic = True
            all_done = all_done and done
            step_max = max(step_max, t)
        simulated += step_max
        step_span.note(virtual_s=step_max, routed_payloads=step_records)
        if tel.enabled:
            rss = proc_rss_bytes()
            step_span.note(rss_bytes=rss)
            tel.gauge(
                "proc_rss_bytes", "resident set size, sampled per superstep"
            ).set(float(rss), rank=-1)
        step_span.__exit__(None, None, None)
        inboxes = next_inboxes
        if not any_traffic and all_done:
            break
        if (
            checkpointer is not None
            and any_traffic
            and supersteps % checkpointer.every == 0
            and supersteps > checkpointer.min_superstep
        ):
            # snapshot cut `supersteps`: each worker's state at the start of
            # the *next* superstep equals the in-process engine's state
            # after this one, so the manifest is engine-interchangeable
            shard_req = (supersteps, sim0 + simulated, shard_dir)

    for rank, conn in enumerate(parents):
        _safe_send(conn, rank, (_STOP, None), fabric, heartbeats, fault_plan)
    msgs = _recv_all(
        parents, procs, None, heartbeats, fault_plan, _on_shard, tick, liveness_poll
    )
    # a worker may fail *during* final collection (e.g. its ``result()``
    # raises); surface that as a RankFailure like any mid-run crash
    _raise_job_errors(msgs)
    for rank in range(size):
        kind, rank_stats, result, tele, _tail = msgs[rank]
        if kind != "final":  # pragma: no cover - protocol violation
            raise MPSimError(f"unexpected final message {kind!r} from rank {rank}")
        _install_rank_stats(stats, rank, rank_stats)
        results[rank] = result
        telemetry[rank] = tele
    return results, telemetry, supersteps, simulated


def _install_rank_stats(stats: WorldStats, rank: int, rank_stats: Any) -> None:
    """Adopt a worker's authoritative counters as the parent's per-rank row."""
    if not isinstance(rank_stats, RankStats) or rank_stats.rank != rank:
        raise MPSimError(f"rank {rank} returned malformed stats {rank_stats!r}")
    stats.ranks[rank] = rank_stats


def _check_mp_fault_plan(fault_plan: Any) -> None:
    """Reject fault kinds the real-process backend cannot realise.

    Checked via the public :meth:`~repro.mpsim.faults.FaultPlan.capabilities`
    API (plans without it are trusted to only use hooks the engine calls):

    * superstep-scheduled **crashes** are supported — realised as real
      worker ``SIGKILL`` deaths;
    * **stragglers** are supported — realised as real sleeps;
    * **drops/duplications** are rejected: payload bytes travel real pipes
      and shared memory, and a sent message cannot be un-sent or doubled
      without putting the engine back on the data path (use the in-process
      engine to exercise those);
    * **time-scheduled crashes** are rejected: workers share no global
      virtual clock, so a wall-time trigger would fire non-deterministically
      (schedule with ``crash(rank, at_superstep=...)`` instead).
    """
    if fault_plan is None:
        return
    get_caps = getattr(fault_plan, "capabilities", None)
    if not callable(get_caps):
        return
    caps = get_caps()
    if CAP_DROP in caps or CAP_DUPLICATE in caps:
        raise ValueError(
            "mp backend cannot inject message drops/duplications: payloads "
            "travel real pipes and shared memory and cannot be un-sent; "
            "run drop/duplicate plans on the in-process engines "
            "(engine='bsp'/'event')"
        )
    if CAP_CRASH_TIME in caps:
        raise ValueError(
            "mp backend cannot schedule crashes by virtual time: workers "
            "share no global virtual clock; schedule deterministically with "
            "crash(rank, at_superstep=...)"
        )


def _normalise_exchange(exchange: str) -> str:
    if exchange not in EXCHANGES:
        raise ValueError(
            f"unknown exchange {exchange!r}; use one of {', '.join(EXCHANGES)}"
        )
    if exchange != EXCHANGE_PICKLE and _shared_memory is None:  # pragma: no cover
        return EXCHANGE_PICKLE
    return exchange


class MultiprocessingBSPEngine:
    """Drive :class:`~repro.mpsim.bsp.RankProgram` objects in real processes.

    The API mirrors :class:`~repro.mpsim.bsp.BSPEngine.run` — including the
    ``checkpointer``/``initial_inboxes`` hooks, so
    :class:`~repro.mpsim.supervisor.Supervisor` can drive either engine —
    with one addition: because programs live in child address spaces, their
    final state is not visible to the caller.  Programs may expose a
    ``result()`` method; the values are collected into :attr:`results` (rank
    order) after :meth:`run`, and per-rank request counters (when the
    program exposes them) into :attr:`telemetry`.

    Parameters
    ----------
    size:
        Number of ranks (one process each).
    max_supersteps:
        Safety bound on the superstep loop.
    exchange:
        :data:`EXCHANGE_SHM` (default) for coordinator-routed zero-copy
        payloads, :data:`EXCHANGE_PICKLE` for the pickle-pipe fallback, or
        :data:`EXCHANGE_P2P` for the peer-to-peer mailbox fabric.  Platforms
        without ``multiprocessing.shared_memory`` fall back to pickle
        automatically.
    cost_model:
        Virtual-time charges used by the worker-side accounting (defaults to
        the paper-testbed preset, same as the in-process engine).
    mailbox_slot_bytes, barrier_timeout:
        p2p fabric tuning; ignored by the coordinator transports.  The
        barrier timeout is a last-resort backstop — worker deaths are
        detected by the parent within one liveness poll and abort the
        barrier long before it can expire.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  When enabled, a
        shared-memory event ring is created before forking; workers publish
        compute / exchange / barrier-wait spans (``tid`` = rank) and
        cumulative metric snapshots into it, and the parent drains them into
        the facade — including everything a crashed worker published before
        dying.  Stored as :attr:`tel` (the pre-existing :attr:`telemetry`
        attribute holds the per-rank request counters).
    """

    def __init__(
        self,
        size: int,
        max_supersteps: int = 10_000,
        exchange: str = EXCHANGE_SHM,
        cost_model: CostModel | None = None,
        mailbox_slot_bytes: int = 8192,
        barrier_timeout: float = 120.0,
        telemetry: Any = None,
        liveness_poll: float = _LIVENESS_POLL,
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if liveness_poll <= 0:
            raise ValueError(f"liveness_poll must be positive, got {liveness_poll}")
        self.size = size
        self.max_supersteps = max_supersteps
        self.exchange = _normalise_exchange(exchange)
        self.cost = cost_model or CostModel()
        self.mailbox_slot_bytes = mailbox_slot_bytes
        self.barrier_timeout = barrier_timeout
        self.liveness_poll = liveness_poll
        self.stats = WorldStats.for_size(size)
        self.results: list[Any] = []
        self.telemetry: list[dict] = []
        self.tel = resolve(telemetry)
        self.supersteps = 0
        self.simulated_time = 0.0

    def run(
        self,
        programs: Sequence[RankProgram],
        fault_plan: Any = None,
        checkpointer: Checkpointer | None = None,
        initial_inboxes: list[list[tuple[int, Any]]] | None = None,
        tracer: Any = None,
    ) -> WorldStats:
        """Fork one worker per rank, run ``programs`` to quiescence, collect.

        ``fault_plan`` may schedule stragglers (real sleeps) and
        superstep-scheduled crashes (real worker ``SIGKILL`` deaths,
        surfaced as :class:`RankFailure` with the victim's rank and
        heartbeat-attributed superstep); message drop/duplication and
        time-scheduled crashes are rejected — see :func:`_check_mp_fault_plan`.

        ``checkpointer`` enables cross-process snapshots: workers write
        per-rank shards at checkpoint supersteps (into a ``<path>.shards/``
        sibling directory) and the parent commits each complete cut as an
        ordinary checkpoint manifest, loadable by either engine.  A cut is
        snapshotted only if its exchange carried traffic.

        ``initial_inboxes`` switches the run into *resume* mode (used by the
        supervisor): the engine's ``stats``/``supersteps``/``simulated_time``
        — restored from the snapshot by the caller — are continued rather
        than reset, and each worker starts from its restored program, stats
        row, and in-flight inbox.

        ``tracer`` is accepted for engine-interchangeability but ignored:
        per-superstep timelines are not observable parent-side on the p2p
        transport, and this backend exists to measure *real* time anyway.
        """
        if len(programs) != self.size:
            raise MPSimError(f"expected {self.size} rank programs, got {len(programs)}")
        _check_mp_fault_plan(fault_plan)
        resume_mode = initial_inboxes is not None
        if resume_mode and len(initial_inboxes) != self.size:
            raise MPSimError("initial_inboxes must have one entry per rank")
        if not resume_mode:
            self.stats = WorldStats.for_size(self.size)
            self.supersteps = 0
        heartbeats = Heartbeats(self.size)
        shard_dir: str | None = None
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
            shard_dir = str(shards_path)
        ckpt = (
            (shard_dir, checkpointer.every, checkpointer.min_superstep, self.simulated_time)
            if checkpointer is not None and self.exchange == EXCHANGE_P2P
            else None
        )
        ctx = mp.get_context("fork")
        fabric = (
            P2PFabric(
                self.size,
                slot_bytes=self.mailbox_slot_bytes,
                timeout=self.barrier_timeout,
            )
            if self.exchange == EXCHANGE_P2P
            else None
        )
        # the event ring must exist before the fork so workers inherit it
        ring = EventRing() if self.tel.enabled else None
        collector = RingCollector(ring) if ring is not None else None
        parents: list[Any] = []
        procs: list[Any] = []
        try:
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
                        rank, self.size, child_conn, self.exchange, fabric,
                        prog, self.max_supersteps, self.cost,
                        heartbeats, resume, ckpt, ring,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                parents.append(parent_conn)
                procs.append(proc)

            with self.tel.span(
                "mp.run", cat="run", tid=-1, exchange=self.exchange, size=self.size
            ):
                results, telemetry, supersteps, simulated = _drive_job(
                    parents, procs, self.size, self.exchange, fabric,
                    None, fault_plan, self.stats, self.max_supersteps,
                    heartbeats=heartbeats, checkpointer=checkpointer,
                    shard_dir=shard_dir, cost=self.cost,
                    step0=self.supersteps, sim0=self.simulated_time,
                    collector=collector, tel=self.tel,
                    liveness_poll=self.liveness_poll,
                )
            self.results, self.telemetry = results, telemetry
            steps_this_job = supersteps - self.supersteps
            self.supersteps = supersteps
            # accumulate like the in-process engine: the supervisor charges
            # restart backoff onto the clock between attempts
            self.simulated_time += simulated
            if self.tel.enabled:
                if steps_this_job > 0:
                    self.tel.counter(
                        "mp_supersteps_total", "supersteps completed by the mp engine"
                    ).inc(steps_this_job)
                self.tel.gauge(
                    "mp_simulated_time_seconds", "virtual T_p accumulated so far"
                ).set(self.simulated_time)
                self.tel.meta.setdefault("engine", "mp")
                self.tel.meta["exchange"] = self.exchange
                self.tel.meta["size"] = self.size
        finally:
            # shut down on *every* path: after a failure the survivors sit
            # in their command loop, and closing the parent ends alone does
            # not EOF them (later-forked siblings inherited the earlier
            # ranks' parent pipe ends), so they would eat the join timeout
            for conn in parents:
                try:
                    conn.send((_SHUTDOWN, None))
                except (BrokenPipeError, OSError):  # worker already gone
                    pass
                conn.close()
            for proc in procs:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=1)
            if fabric is not None:
                fabric.close(unlink=True)
            if collector is not None:
                # merge on every path: a crashed run's published history is
                # exactly what the post-mortem trace needs
                collector.merge_into(self.tel)
                ring.close(unlink=True)
        return self.stats
