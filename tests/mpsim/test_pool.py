"""Tests for the persistent :class:`repro.mpsim.pool.WorkerPool`.

The pool must be a drop-in replacement for one-shot
:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine` runs — bit-identical
output, identical statistics — while reusing the forked workers across jobs.
Unlike the one-shot engine (whose programs ride the fork), pooled jobs pickle
their programs across, so these tests also prove the rank programs are
picklable.
"""

import numpy as np
import pytest

from repro import generate
from repro.core.generator import rank_programs
from repro.core.partitioning import make_partition
from repro.graph.edgelist import EdgeList
from repro.mpsim.errors import MPSimError, RankFailure
from repro.mpsim.faults import FaultPlan
from repro.mpsim.mp_backend import MultiprocessingBSPEngine
from repro.mpsim.pool import WorkerPool


def _collect_edges(results) -> EdgeList:
    edges = EdgeList()
    for pair in results:
        edges.append_arrays(pair[0], pair[1])
    return edges


def _x1_programs(part, seed):
    return rank_programs(part, 1, 0.5, seed)


def _general_programs(part, x, seed):
    return rank_programs(part, x, 0.5, seed)


def test_pool_multi_job_bit_identity():
    """Several jobs through one pool each match a fresh in-process run —
    no state bleeds from one job into the next."""
    n, P = 500, 4
    with WorkerPool(P) as pool:
        for seed in (1, 2, 3):
            part = make_partition("rrp", n, P)
            in_proc = generate(n, partition=part, seed=seed)
            pool.run(_x1_programs(part, seed))
            edges = _collect_edges(pool.results)
            assert np.array_equal(in_proc.edges.canonical(), edges.canonical()), seed
            assert pool.supersteps == in_proc.supersteps
            assert pool.simulated_time == pytest.approx(
                in_proc.simulated_time, abs=1e-9
            )
        assert pool.jobs_run == 3


def test_pool_general_program_bit_identity():
    """x>1 programs survive the pickle trip to pooled workers intact."""
    n, x, P, seed = 400, 3, 3, 7
    part = make_partition("rrp", n, P)
    in_proc = generate(n, x, partition=part, seed=seed).edges
    with WorkerPool(P) as pool:
        pool.run(_general_programs(part, x, seed))
        edges = _collect_edges(pool.results)
    assert np.array_equal(in_proc.canonical(), edges.canonical())


def test_pool_matches_one_shot_engine_stats():
    """Pool and one-shot engine agree on the whole stats summary."""
    n, P, seed = 400, 3, 9
    part = make_partition("rrp", n, P)
    eng = MultiprocessingBSPEngine(P)
    eng.run(_x1_programs(part, seed))
    with WorkerPool(P) as pool:
        pool.run(_x1_programs(part, seed))
        ref = eng.stats.summary()
        got = pool.stats.summary()
        assert set(got) == set(ref)
        for key, val in ref.items():
            assert got[key] == pytest.approx(val, abs=1e-9), key
        assert pool.rank_counters == eng.rank_counters


def test_pool_straggler_jobs_stay_deterministic():
    n, P, seed = 400, 3, 23
    part = make_partition("rrp", n, P)
    plan = FaultPlan().straggle(1, factor=3.0)
    in_proc = generate(n, partition=part, seed=seed).edges
    with WorkerPool(P) as pool:
        pool.run(_x1_programs(part, seed), fault_plan=plan)
        edges = _collect_edges(pool.results)
    assert np.array_equal(in_proc.canonical(), edges.canonical())


class _BoomProgram:
    def __init__(self):
        self.done = False

    def step(self, ctx, inbox):
        raise RuntimeError("boom")


class _IdleProgram:
    def __init__(self):
        self.done = False

    def step(self, ctx, inbox):
        self.done = True
        return {}

    def result(self):
        return "idle"


def test_pool_heals_after_job_failure():
    """A failed job costs that job only: the failure propagates, then the
    next run heals the fleet and succeeds."""
    pool = WorkerPool(2)
    try:
        with pytest.raises(MPSimError):
            pool.run([_BoomProgram(), _IdleProgram()])
        pool.run([_IdleProgram(), _IdleProgram()])
        assert pool.results == ["idle", "idle"]
    finally:
        pool.close()


def test_pool_closed_refuses_jobs():
    pool = WorkerPool(2)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(MPSimError, match="closed"):
        pool.run([_IdleProgram(), _IdleProgram()])


def test_pool_validates_inputs():
    with pytest.raises(ValueError):
        WorkerPool(0)
    with WorkerPool(2) as pool:
        with pytest.raises(MPSimError):
            pool.run([_IdleProgram()])  # wrong program count
        with pytest.raises(ValueError):
            pool.run(
                [_IdleProgram(), _IdleProgram()],
                fault_plan=FaultPlan().drop(3),
            )
        # the pool is not broken by rejected inputs
        pool.run([_IdleProgram(), _IdleProgram()])
        assert pool.results == ["idle", "idle"]
