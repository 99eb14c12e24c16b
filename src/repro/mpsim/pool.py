"""Persistent worker pool: fork once, run many BSP jobs.

:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine` forks ``P``
processes, runs one job, and tears everything down — the right shape for a
single generation, but repeated jobs (parameter sweeps, a service handling
generation requests back-to-back) pay the fork, pipe, and shared-memory
setup every time.  On small jobs that startup dominates the whole run.

:class:`WorkerPool` keeps the fleet alive: workers, pipes, payload segments,
and the peer-to-peer fabric are created once and reused by every
:meth:`WorkerPool.run`.  Jobs ship their rank programs to the workers
by pickle (the one-shot engine lets them ride the fork instead), and each
job's results, statistics, and telemetry land on the pool exactly as they
would on a one-shot engine — the two are drop-in interchangeable for
callers, and bit-identical in output (asserted by the test-suite).

.. code-block:: python

    from repro.mpsim.pool import WorkerPool

    with WorkerPool(size=8) as pool:
        for seed in range(100):
            pool.run(make_programs(seed))
            consume(pool.results)

A job that fails (a rank program raising, a worker dying — including an
injected ``SIGKILL`` crash) still raises from that :meth:`run`, but no
longer poisons the pool: the next :meth:`run` *heals* first — dead members
are replaced by freshly forked workers (after the parent unlinks the
payload segments they left behind), survivors are told to abandon any
in-flight job state (and drained of stale replies), and the fabric's
barrier is reset — so one casualty costs one job, not the pool.  The healed
pool produces bit-identical output to a fresh one.  :meth:`close` is always
safe and idempotent.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Sequence

from repro.mpsim.costmodel import CostModel
from repro.mpsim.errors import MPSimError
from repro.mpsim.heartbeat import Heartbeats
from repro.mpsim.mp_backend import (
    _ABANDON,
    _SHUTDOWN,
    _check_mp_fault_plan,
    _drive_job,
    _unlink_segments,
    _worker_main,
)
from repro.mpsim.p2p import P2PFabric
from repro.mpsim.stats import WorldStats
from repro.telemetry.collector import RingCollector, resolve
from repro.telemetry.ringbuf import EventRing

__all__ = ["WorkerPool"]

#: wall seconds a healing pool waits for a survivor to acknowledge the
#: abandon token before giving up and replacing it too
_ABANDON_TIMEOUT = 5.0


class WorkerPool:
    """A persistent, self-healing fleet of BSP worker processes.

    Parameters mirror :class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`,
    and the pool produces bit-identical output.  Workers fork immediately
    (with no inherited program — jobs ship theirs) and live until
    :meth:`close`; members lost to a crash are replaced on the next
    :meth:`run` (see :attr:`respawns`).

    The pool does not take a checkpointer — supervised checkpoint/resume
    runs own their worker lifecycles and use the one-shot engine.
    """

    def __init__(
        self,
        size: int,
        max_supersteps: int = 10_000,
        cost_model: CostModel | None = None,
        barrier_timeout: float = 120.0,
        telemetry: Any = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.max_supersteps = max_supersteps
        self.cost = cost_model or CostModel()
        self.tel = resolve(telemetry)
        self._fabric = P2PFabric(size, timeout=barrier_timeout)
        self._heartbeats = Heartbeats(size)
        # created before the first fork (and shared by respawned members):
        # one ring serves every job the pool ever runs
        self._ring = EventRing() if self.tel.enabled else None
        self._collector = RingCollector(self._ring) if self._ring is not None else None
        self._ctx = mp.get_context("fork")
        self._parents: list[Any] = [None] * size
        self._procs: list[Any] = [None] * size
        for rank in range(size):
            self._fork(rank)

        #: jobs completed successfully since the pool was created
        self.jobs_run = 0
        #: replacement workers forked while healing after failures
        self.respawns = 0
        self._closed = False
        self._broken = False
        self._heal_token = 0
        # per-job outputs, same attributes the one-shot engine exposes
        self.stats = WorldStats.for_size(size)
        self.results: list[Any] = []
        self.rank_counters: list[dict] = []
        self.supersteps = 0
        self.simulated_time = 0.0

    # ------------------------------------------------------------------ jobs
    def run(
        self, programs: Sequence[Any], fault_plan: Any = None
    ) -> WorldStats:
        """Run one job over the live workers; same contract as the engine's
        :meth:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine.run`.

        If an earlier job failed (or a member died between jobs), the pool
        heals itself first: dead workers are replaced and survivors reset,
        so the failure costs one job rather than the pool.
        """
        if self._closed:
            raise MPSimError("worker pool is closed")
        if len(programs) != self.size:
            raise MPSimError(f"expected {self.size} rank programs, got {len(programs)}")
        _check_mp_fault_plan(fault_plan)
        if self._broken or any(not p.is_alive() for p in self._procs):
            self._heal()
        self.stats = WorldStats.for_size(self.size)
        job_index = self.jobs_run
        try:
            with self.tel.span("pool.job", cat="run", tid=-1, job=job_index):
                (
                    self.results,
                    self.rank_counters,
                    self.supersteps,
                    self.simulated_time,
                ) = _drive_job(
                    self._parents, self._procs, self.size, self._fabric,
                    list(programs), fault_plan, self.stats, self.max_supersteps,
                    self._heartbeats, self.cost, collector=self._collector,
                    tel=self.tel,
                )
        except Exception:
            self._broken = True
            if self.tel.enabled:
                self.tel.counter(
                    "pool_jobs_failed_total", "pool jobs that raised"
                ).inc()
            raise
        finally:
            if self._collector is not None:
                # fold whatever this job published (even a failed one's
                # partial history) into the pool's facade now, so the ring
                # starts the next job empty
                self._collector.merge_into(self.tel)
        self.jobs_run += 1
        if self.tel.enabled:
            self.tel.counter(
                "pool_jobs_total", "pool jobs completed successfully"
            ).inc()
        return self.stats

    # --------------------------------------------------------------- healing
    def _heal(self) -> None:
        """Restore every member to a known-idle state after a failure.

        Dead workers (killed, crashed, or wedged past the abandon timeout)
        are replaced by freshly forked processes inheriting the same fabric
        and heartbeat board; live survivors — whose job ended at the aborted
        barrier — are sent an ``_ABANDON`` token and their pipes drained of
        stale replies until they acknowledge it.  Only then is the barrier
        reset (a straggler still inside ``wait()`` would re-break it).
        """
        self._heal_token += 1
        token = self._heal_token
        self.tel.mark(f"pool heal #{token}")
        for rank in range(self.size):
            if not self._procs[rank].is_alive():
                self._respawn(rank)
                continue
            conn = self._parents[rank]
            try:
                conn.send((_ABANDON, token))
            except (BrokenPipeError, OSError):
                self._respawn(rank)
                continue
            acked = False
            try:
                while conn.poll(_ABANDON_TIMEOUT):
                    msg = conn.recv()
                    if msg[0] == "abandoned" and msg[1] == token:
                        acked = True
                        break
            except (EOFError, OSError):
                pass
            if not acked:
                self._respawn(rank)
        self._fabric.reset()
        self._broken = False

    def _fork(self, rank: int) -> None:
        """Fork the worker for ``rank``."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                rank, self.size, child_conn, self._fabric, None,
                self.max_supersteps, self.cost, self._heartbeats,
                None, None, self._ring,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._parents[rank] = parent_conn
        self._procs[rank] = proc

    def _respawn(self, rank: int) -> None:
        """Replace one member with a freshly forked worker."""
        old = self._procs[rank]
        if old.is_alive():
            old.terminate()
        old.join(timeout=5)
        try:
            self._parents[rank].close()
        except OSError:  # pragma: no cover - already closed
            pass
        # a killed worker could not unlink its own payload segments
        _unlink_segments(self._fabric.name, rank)
        self._fork(rank)
        self.respawns += 1
        if self.tel.enabled:
            self.tel.mark(f"pool respawned rank {rank}")
            self.tel.counter(
                "pool_respawns_total", "replacement workers forked while healing"
            ).inc(rank=rank)

    # --------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Shut the workers down and release every shared resource."""
        if self._closed:
            return
        self._closed = True
        for conn in self._parents:
            try:
                conn.send((_SHUTDOWN, None))
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        for conn in self._parents:
            conn.close()
        for rank, proc in enumerate(self._procs):
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
            _unlink_segments(self._fabric.name, rank)
        self._fabric.close()
        if self._collector is not None:
            self._collector.merge_into(self.tel)
            self._ring.close(unlink=True)
            self._ring, self._collector = None, None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("healing" if self._broken else "live")
        return (
            f"WorkerPool(size={self.size}, jobs_run={self.jobs_run}, "
            f"respawns={self.respawns}, {state})"
        )
