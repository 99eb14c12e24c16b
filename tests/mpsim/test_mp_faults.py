"""Chaos tests for real-process fault tolerance on the mp backend.

The simulated :class:`~repro.mpsim.bsp.BSPEngine` fault tests prove the
*protocol* recovers; these prove the *processes* do.  An injected crash here
is a worker ``SIGKILL``-ing itself mid-run — no Python teardown, no goodbye
message — and recovery means the coordinator attributing the death from
heartbeats and sentinels, the Supervisor respawning a whole fleet resumed
from cross-process checkpoint shards, and the regrown run producing a graph
bit-identical to the fault-free one.  A killed process cannot clean up after
itself, so an mp run makes nothing that needs it: no run leaves shared memory
behind, even when its whole process group is killed.
"""

import contextlib
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.generator import generate, rank_programs
from repro.core.parallel_pa import PAx1RankProgram
from repro.core.partitioning import make_partition
from repro.mpsim.checkpoint import Checkpointer, load_checkpoint
from repro.mpsim.errors import RankFailure
from repro.mpsim.faults import FaultPlan
from repro.mpsim.mp_backend import MultiprocessingBSPEngine
from repro.rng import StreamFactory

pytestmark = pytest.mark.usefixtures("no_leftovers")

#: mp_backend._LIVENESS_POLL — the coordinator's dead-worker detection period
_LIVENESS_POLL = 0.25


def _x1_programs(part, seed):
    factory = StreamFactory(seed)
    return [PAx1RankProgram(r, part, 0.5, factory.stream(r)) for r in range(part.P)]


# ------------------------------------------------------- supervised recovery
def test_sigkilled_rank_recovers_bit_identically(tmp_path):
    """The headline guarantee: SIGKILL a worker mid-run, get the exact same
    graph back."""
    n, P, seed = 2_000, 4, 11
    baseline = generate(n, ranks=P, seed=seed, engine="mp")

    plan = FaultPlan().crash(1, at_superstep=3)
    result = generate(
        n, ranks=P, seed=seed, engine="mp",
        fault_plan=plan, checkpoint_dir=str(tmp_path), barrier_timeout=30.0,
    )

    assert result.edges == baseline.edges
    assert len(result.recoveries) == 1
    event = result.recoveries[0]
    assert "RankFailure" in event.error and "rank 1" in event.error
    assert event.checkpoint is not None  # resumed from a snapshot, not scratch
    assert result.world_stats.recoveries == result.recoveries
    assert plan.counts() == {"crash": 1}  # the kill really fired
    assert result.supersteps == baseline.supersteps


def test_two_crashes_across_retries_still_recover(tmp_path):
    """Each retry consumes exactly one scheduled crash; a second pending
    crash fires on the respawned fleet and is recovered in turn."""
    n, P, seed = 2_000, 4, 5
    baseline = generate(n, ranks=P, seed=seed, engine="mp")
    plan = FaultPlan().crash(1, at_superstep=2).crash(2, at_superstep=4)
    result = generate(
        n, ranks=P, seed=seed, engine="mp",
        fault_plan=plan, checkpoint_dir=str(tmp_path),
    )
    assert result.edges == baseline.edges
    assert len(result.recoveries) == 2
    assert plan.counts() == {"crash": 2}


def test_recovery_resumes_from_the_newest_complete_cut(tmp_path):
    """Rank 1 dies just before superstep 2, after every rank sealed its cut-1
    shard, so the recovery resumes from cut 1 on every run.  The cuts are
    committed from the shard files once the workers have exited, so no
    shard can be lost between a worker's write and the coordinator's
    read."""
    for i in range(10):
        result = generate(
            3_000, x=2, ranks=3, seed=5, engine="mp",
            fault_plan=FaultPlan().crash(1, at_superstep=2),
            checkpoint_dir=str(tmp_path / str(i)),
        )
        assert [e.superstep for e in result.recoveries] == [1], f"run {i}"


def test_checkpointed_run_commits_only_the_kept_cuts(tmp_path):
    """The run seals 13 cuts; the coordinator commits only the newest 3,
    which are all ``keep=3`` retains, and deletes the other cuts' shards
    unread instead of committing and rotating them away."""
    ckpt = Checkpointer(tmp_path / "run.ckpt", keep=3)
    eng = MultiprocessingBSPEngine(3)
    eng.run(rank_programs(make_partition("rrp", 3_000, 3), 2, 0.5, 5), checkpointer=ckpt)
    assert ckpt.snapshots == 3
    assert [load_checkpoint(p).supersteps for p in ckpt.history()] == [13, 12, 11]
    assert list((tmp_path / "run.ckpt.shards").iterdir()) == []


# --------------------------------------------------------- death attribution
def test_unsupervised_crash_names_rank_and_superstep():
    """Without a supervisor, the kill surfaces as RankFailure naming the
    culprit rank and the superstep it died in."""
    part = make_partition("rrp", 1_000, 4)
    eng = MultiprocessingBSPEngine(4, barrier_timeout=30.0)
    with pytest.raises(RankFailure) as exc_info:
        eng.run(_x1_programs(part, 3), fault_plan=FaultPlan().crash(2, at_superstep=3))
    assert exc_info.value.rank == 2
    assert exc_info.value.superstep == 3
    assert "injected" in repr(exc_info.value.original)


def test_detection_is_sentinel_fast_not_timeout_bound():
    """A dead rank is noticed within a couple of liveness polls — not by
    waiting out the barrier timeout."""
    part = make_partition("rrp", 1_000, 4)
    # a barrier timeout far above the assertion bound: if detection relied
    # on it, this test would fail loudly
    eng = MultiprocessingBSPEngine(4, barrier_timeout=60.0)
    t0 = time.perf_counter()
    with pytest.raises(RankFailure):
        eng.run(_x1_programs(part, 3), fault_plan=FaultPlan().crash(1, at_superstep=2))
    elapsed = time.perf_counter() - t0
    # budget: fork+run ≲1s, detection ≤ 2 liveness polls (0.5s), teardown
    # ≲1s — loaded-CI slack included, still 20x under the barrier timeout
    assert elapsed < 2.5 + 4 * _LIVENESS_POLL, elapsed


# -------------------------------------------------------------- no leftovers
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm not at /dev/shm")
def test_sigkilled_workers_leave_no_shared_memory(tmp_path, shm_ledger):
    """An mp run makes no named shared memory, so a SIGKILLed worker has
    nothing to leave behind, after a supervised recovery and an
    unsupervised RankFailure alike."""
    n, P, seed = 2_000, 4, 11
    result = generate(
        n, ranks=P, seed=seed, engine="mp",
        fault_plan=FaultPlan().crash(1, at_superstep=3),
        checkpoint_dir=str(tmp_path),
    )
    assert len(result.recoveries) == 1
    assert shm_ledger.created() == set()
    assert shm_ledger.leaked() == []

    with pytest.raises(RankFailure):
        generate(
            n, ranks=P, seed=seed, engine="mp",
            fault_plan=FaultPlan().crash(1, at_superstep=3),
        )
    assert shm_ledger.leaked() == []


class _MarkingProgram:
    """Sends its peer 4,096 records every superstep until ``max_supersteps``;
    rank 0 touches ``marker`` in superstep 2, when superstep 1's payloads
    have been written and read."""

    def __init__(self, rank, marker):
        self.rank, self.marker = rank, marker
        self.done = False
        self.superstep = 0

    def step(self, ctx, inbox):
        self.superstep += 1
        if self.rank == 0 and self.superstep == 2:
            Path(self.marker).touch()
        time.sleep(0.01)
        return {1 - self.rank: [np.arange(4_096, dtype=np.int64)]}


def _run_in_own_group(marker):
    os.setsid()
    MultiprocessingBSPEngine(2).run([_MarkingProgram(r, marker) for r in range(2)])


def _live_members(pgid):
    """Pids of the processes in group ``pgid`` that are not zombies."""
    alive = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:  # exited meanwhile
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(pid))
    return alive


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm not at /dev/shm")
def test_sigkilled_process_group_leaves_no_shared_memory(tmp_path, shm_ledger):
    """SIGKILL an mp run's whole process group mid-run, the coordinator with
    its workers: no process cleans up, and none has anything to clean, so
    no shared memory outlives the group and no process of it survives."""
    marker = tmp_path / "superstep2"
    child = mp.get_context("fork").Process(target=_run_in_own_group, args=(str(marker),))
    child.start()
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert child.is_alive(), "the mp run died before superstep 2"
            assert time.monotonic() < deadline, "the mp run never reached superstep 2"
            time.sleep(0.005)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.join(timeout=10)
    assert child.exitcode == -signal.SIGKILL
    deadline = time.monotonic() + 5
    while _live_members(child.pid):
        assert time.monotonic() < deadline, f"{_live_members(child.pid)} survived SIGKILL"
        time.sleep(0.01)
    assert shm_ledger.leaked() == []


#: one interpreter's mp runs: the copy model, commfree, a traced run and a
#: crashed one; prints whether the resource tracker was ever started
_MP_RUNS = """
import sys
from multiprocessing import resource_tracker

from repro import Telemetry, generate
from repro.mpsim.errors import RankFailure
from repro.mpsim.faults import FaultPlan

generate(20_000, x=4, ranks=2, seed=1, engine="mp")
generate(20_000, x=1, ranks=2, seed=1, engine="mp", generator="commfree")
generate(20_000, x=2, ranks=2, seed=1, engine="mp", telemetry=Telemetry())
try:
    generate(20_000, x=2, ranks=2, seed=1, engine="mp",
             fault_plan=FaultPlan().crash(1, at_superstep=2))
except RankFailure:
    pass
else:
    sys.exit("the crashed run did not raise RankFailure")
print(resource_tracker._resource_tracker._pid)
"""


def test_mp_runs_start_no_resource_tracker_and_leave_no_process(tmp_path):
    """No mp run, healthy or failed, starts Python's resource tracker, so
    nothing of an mp program outlives it: its process group is gone as
    soon as it exits.  Output goes to files, not pipes, so a lingering
    process that inherited them cannot hold up the wait."""
    out, err = tmp_path / "out", tmp_path / "err"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    with open(out, "w") as fo, open(err, "w") as fe:
        proc = subprocess.Popen(
            [sys.executable, "-c", _MP_RUNS], stdout=fo, stderr=fe, env=env,
            start_new_session=True,
        )
        code = proc.wait(timeout=120)
    exited = time.monotonic()
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        lingered = time.monotonic() - exited
        assert lingered < 0.2, f"the child's process group outlived it by {lingered:.2f} s"
        time.sleep(0.005)
    assert code == 0, err.read_text()
    assert out.read_text().split() == ["None"]


# --------------------------------------------------------------- heartbeats
def test_heartbeat_attribution_marks_coordinator_plan_copy():
    """The killed worker's forked plan copy dies with it; the coordinator
    marks the crash fired on ITS copy, so a supervised retry of the same
    plan object does not re-kill."""
    part = make_partition("rrp", 1_000, 4)
    plan = FaultPlan().crash(1, at_superstep=2)
    assert plan.pending_crashes == 1
    eng = MultiprocessingBSPEngine(4)
    with pytest.raises(RankFailure):
        eng.run(_x1_programs(part, 3), fault_plan=plan)
    assert plan.pending_crashes == 0
    assert plan.counts() == {"crash": 1}
    # the spent plan is now harmless: the same programs run to completion
    eng2 = MultiprocessingBSPEngine(4)
    eng2.run(_x1_programs(part, 3), fault_plan=plan)
    assert len(eng2.results) == 4
