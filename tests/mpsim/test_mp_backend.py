"""Tests for the real-parallelism multiprocessing backend.

These prove the BSP rank programs are genuinely shared-nothing: the same
programs produce the same graph whether they share an address space or not.
"""

import os
import time

import numpy as np
import pytest

from repro import generate
from repro.core.generator import rank_programs
from repro.core.parallel_pa import PAx1RankProgram
from repro.core.parallel_pa_general import PAGeneralRankProgram
from repro.core.partitioning import make_partition
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_pa_graph
from repro.mpsim.errors import MPSimError, RankFailure
from repro.mpsim.faults import FaultPlan
from repro.mpsim.mp_backend import MultiprocessingBSPEngine
from repro.mpsim.p2p import MailboxOverflow, P2PFabric
from repro.rng import StreamFactory

pytestmark = pytest.mark.usefixtures("no_leftovers")


def _collect_edges(results) -> EdgeList:
    edges = EdgeList()
    for pair in results:
        edges.append_arrays(pair[0], pair[1])
    return edges


def _x1_programs(part, seed):
    return rank_programs(part, 1, 0.5, seed)


def _run_mp_x1(n, part, seed, fault_plan=None):
    eng = MultiprocessingBSPEngine(part.P)
    eng.run(_x1_programs(part, seed), fault_plan=fault_plan)
    return _collect_edges(eng.results), eng


def _run_mp_general(n, x, part, seed):
    eng = MultiprocessingBSPEngine(part.P)
    eng.run(rank_programs(part, x, 0.5, seed))
    return _collect_edges(eng.results), eng


# --------------------------------------------------------------- bit-identity
@pytest.mark.parametrize("scheme", ["ucp", "rrp"])
def test_x1_matches_in_process(scheme):
    n, P, seed = 600, 4, 21
    part = make_partition(scheme, n, P)
    in_proc = generate(n, partition=part, seed=seed).edges
    mp_edges, _ = _run_mp_x1(n, part, seed)
    assert np.array_equal(in_proc.canonical(), mp_edges.canonical())


def test_general_matches_in_process():
    """x>1: every execution path runs the identical rank programs, so equal
    seeds give the identical canonical edge list."""
    n, x, P, seed = 500, 3, 3, 5
    part = make_partition("rrp", n, P)
    in_proc = generate(n, x, partition=part, seed=seed).edges
    mp_edges, _ = _run_mp_general(n, x, part, seed)
    assert np.array_equal(in_proc.canonical(), mp_edges.canonical())


def test_stats_summary_agrees_with_in_process():
    """Worker-side accounting reproduces the in-process engine's numbers:
    the whole ``summary()`` dict, the superstep count, and the virtual time
    agree, not just the traffic totals."""
    n, P, seed = 500, 4, 13
    part = make_partition("rrp", n, P)
    bsp = generate(n, partition=part, seed=seed)
    _, mp_eng = _run_mp_x1(n, part, seed)
    assert mp_eng.supersteps == bsp.supersteps
    assert mp_eng.simulated_time == pytest.approx(bsp.simulated_time, abs=1e-9)
    ref = bsp.world_stats.summary()
    got = mp_eng.stats.summary()
    assert set(got) == set(ref)
    for key, val in ref.items():
        assert got[key] == pytest.approx(val, abs=1e-9), key


# ------------------------------------------------------------ skewed timing
class _Sleepy(PAx1RankProgram):
    """Algorithm 3.1's rank program, sleeping ``delay`` wall seconds per step."""

    delay = 0.0

    def step(self, ctx, inbox):
        time.sleep(self.delay)
        return super().step(ctx, inbox)


def test_straggler_determinism():
    """Randomly skewed per-worker delays must not change the graph.

    Each worker sleeps a seeded per-rank delay for *real* wall time every
    superstep, so the arrival order at the barrier is genuinely
    perturbed — the output must still be bit-identical to a healthy
    in-process run.
    """
    n, P, seed = 600, 4, 17
    part = make_partition("rrp", n, P)
    rng = np.random.default_rng(99)
    streams = StreamFactory(seed)
    programs = [_Sleepy(r, part, 0.5, streams.stream(r)) for r in range(P)]
    for prog in programs:
        prog.delay = float(4e-3 * rng.random())
    in_proc = generate(n, partition=part, seed=seed).edges
    eng = MultiprocessingBSPEngine(P)
    eng.run(programs)
    assert np.array_equal(in_proc.canonical(), _collect_edges(eng.results).canonical())
    healthy = _run_mp_x1(n, part, seed)[1]
    assert eng.supersteps == healthy.supersteps


def test_superstep_crash_plans_accepted_and_fire():
    """A crash(at_superstep=...) plan SIGKILLs the real worker process."""
    part = make_partition("rrp", 400, 2)
    eng = MultiprocessingBSPEngine(2)
    with pytest.raises(RankFailure) as exc_info:
        eng.run(_x1_programs(part, 0), fault_plan=FaultPlan().crash(1, at_superstep=2))
    assert exc_info.value.rank == 1
    assert exc_info.value.superstep == 2


# ------------------------------------------------------------------- failures
class _NoOpProgram:
    """Single-superstep program: no traffic, immediately done."""

    def __init__(self, rank):
        self.rank = rank
        self.done = False

    def step(self, ctx, inbox):
        self.done = True
        return {}

    def result(self):
        return ("ok", self.rank)


class _ExplodingResultProgram(_NoOpProgram):
    """Runs cleanly but fails during final collection."""

    def result(self):
        raise RuntimeError("boom at collection")


class _ExplodingStepProgram(_NoOpProgram):
    """Fails mid-superstep."""

    def step(self, ctx, inbox):
        raise RuntimeError("boom in step")


def test_result_failure_raises_rank_failure():
    """A ``result()`` that raises during final collection surfaces as
    ``RankFailure`` naming the culprit — not a protocol assertion."""
    eng = MultiprocessingBSPEngine(2)
    with pytest.raises(RankFailure) as exc_info:
        eng.run([_NoOpProgram(0), _ExplodingResultProgram(1)])
    assert exc_info.value.rank == 1


def test_step_failure_raises_rank_failure():
    eng = MultiprocessingBSPEngine(2)
    with pytest.raises(RankFailure) as exc_info:
        eng.run([_ExplodingStepProgram(0), _NoOpProgram(1)])
    assert exc_info.value.rank == 0


class _FloodProgram(_NoOpProgram):
    """Rank 1 sends 3,000 one-record arrays to rank 0 in one superstep —
    more descriptors than one mailbox slot holds."""

    def step(self, ctx, inbox):
        first, self.done = not self.done, True
        if self.rank == 1 and first:
            return {0: [np.array([i], np.int64) for i in range(3_000)]}
        return {}


def test_victims_own_error_wins_over_barrier_attribution():
    """Rank 0 sees rank 1 miss the barrier and blames it; rank 1 knows why.
    The raised error must carry rank 1's own cause, not rank 0's view."""
    eng = MultiprocessingBSPEngine(2)
    with pytest.raises(RankFailure) as exc_info:
        eng.run([_NoOpProgram(0), _ExplodingStepProgram(1)])
    assert exc_info.value.rank == 1
    assert "boom in step" in repr(exc_info.value.original)

    with pytest.raises(MPSimError) as exc_info:
        eng.run([_FloodProgram(0), _FloodProgram(1)])
    assert not isinstance(exc_info.value, RankFailure)
    assert str(exc_info.value).startswith("rank 1: ")
    assert isinstance(exc_info.value.__cause__, MailboxOverflow)


# ------------------------------------------------------ payload lifetimes
def test_payload_reads_back_until_the_release_after_the_next_barrier():
    """Superstep 3's payload reads back intact while superstep 4 writes the
    other parity's file; the writer's release after barrier 4 empties its
    file, and a read of it then fails loudly instead of returning junk."""
    fabric = P2PFabric(2)
    record = np.dtype([("t", "<i8"), ("k", "<i4")])
    first = np.zeros(10, record)
    first["t"], first["k"] = np.arange(10), np.arange(10, 20)
    second = np.arange(5, dtype=np.float64)
    try:
        fabric.send(0, 3, {1: [first, first[::-1]]})
        fabric.release(0, 2)  # barrier 3: superstep 2's file, not superstep 3's
        fabric.send(0, 4, {1: [second]})
        got = fabric.receive(1, 3)
        assert [src for src, _ in got] == [0, 0]
        assert got[0][1].dtype == record
        assert got[0][1].tolist() == first.tolist()
        assert got[1][1].tolist() == first[::-1].tolist()
        fd = fabric._payload[0][3 % 2]
        assert os.fstat(fd).st_size == 2 * first.nbytes
        fabric.release(0, 3)  # barrier 4
        assert os.fstat(fd).st_size == 0
        with pytest.raises(MPSimError, match="short"):
            fabric.receive(1, 3)
        ((_, arr),) = fabric.receive(1, 4)
        assert arr.tolist() == second.tolist()
    finally:
        fabric.close()


# ----------------------------------------------------------------- edge cases
def test_general_case_valid_graph():
    n, x, P, seed = 500, 3, 3, 5
    part = make_partition("rrp", n, P)
    factory = StreamFactory(seed)
    programs = [PAGeneralRankProgram(r, part, x, 0.5, factory.stream(r)) for r in range(P)]
    eng = MultiprocessingBSPEngine(P)
    eng.run(programs)
    edges = _collect_edges(eng.results)
    assert validate_pa_graph(edges, n, x).ok


def test_stats_transferred_back():
    n, P = 300, 2
    part = make_partition("rrp", n, P)
    eng = MultiprocessingBSPEngine(P)
    eng.run(_x1_programs(part, 0))
    assert sum(eng.stats[r].nodes for r in range(P)) == n


def test_wrong_program_count():
    with pytest.raises(MPSimError):
        MultiprocessingBSPEngine(2).run([None])


def test_invalid_size():
    with pytest.raises(ValueError):
        MultiprocessingBSPEngine(0)
