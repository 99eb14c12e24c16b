"""Tests for the seeded FaultPlan: one-shot crashes at a superstep."""

import numpy as np
import pytest

from repro import generate
from repro.core.partitioning import make_partition
from repro.mpsim import BSPEngine, Checkpointer, FaultPlan, Supervisor
from repro.mpsim.errors import DeadlockError, InjectedFault, RankFailure


class TestPlanConstruction:
    def test_chaos_is_deterministic(self):
        a = FaultPlan.chaos(42, size=8, crashes=2)
        b = FaultPlan.chaos(42, size=8, crashes=2)
        assert [(c.rank, c.at_superstep) for c in a._crashes] == [
            (c.rank, c.at_superstep) for c in b._crashes
        ]

    def test_different_seeds_differ(self):
        plans = [FaultPlan.chaos(s, size=32, crashes=1) for s in range(20)]
        victims = {p._crashes[0].rank for p in plans}
        assert len(victims) > 1

    def test_crash_needs_a_trigger(self):
        with pytest.raises(TypeError):
            FaultPlan(0).crash(1)


class TestBSPFaults:
    def _programs(self, n=1500, P=4, seed=0):
        from repro.core.parallel_pa import PAx1RankProgram
        from repro.rng import StreamFactory

        part = make_partition("rrp", n, P)
        f = StreamFactory(seed)
        return part, [PAx1RankProgram(r, part, 0.5, f.stream(r)) for r in range(P)]

    def test_scheduled_crash_fires_as_rank_failure(self):
        part, programs = self._programs()
        plan = FaultPlan(0).crash(2, at_superstep=2)
        with pytest.raises(RankFailure) as ei:
            BSPEngine(4).run(programs, fault_plan=plan)
        assert ei.value.rank == 2
        assert isinstance(ei.value.original, InjectedFault)
        assert plan.counts() == {"crash": 1}
        assert plan.pending_crashes == 0

    def test_crash_is_one_shot(self):
        """A fired crash does not re-fire on a second run with the plan."""
        plan = FaultPlan(0).crash(1, at_superstep=1)
        part, programs = self._programs()
        with pytest.raises(RankFailure):
            BSPEngine(4).run(programs, fault_plan=plan)
        part, programs = self._programs()
        stats = BSPEngine(4).run(programs, fault_plan=plan)  # completes
        assert all(p.done for p in programs)

    def test_exhausted_budgets_are_pass_through(self):
        """A plan whose one crash has fired leaves the run untouched."""
        n, P = 1200, 4
        part = make_partition("rrp", n, P)
        plan = FaultPlan(9).crash(1, at_superstep=2)
        assert plan.consume_crash(1)
        base = generate(n, partition=part, seed=5)
        hooked = generate(n, partition=part, seed=5, fault_plan=plan)
        assert np.array_equal(base.edges.canonical(), hooked.edges.canonical())
        assert hooked.simulated_time == base.simulated_time
        assert plan.counts() == {"crash": 1}


class TestConsumeCrash:
    """The coordinator's acknowledgement of a crash that killed a worker."""

    def test_fired_crash_is_no_longer_pending(self):
        plan = FaultPlan().crash(1, at_superstep=2)
        assert plan.consume_crash(1, superstep=2)
        assert plan.pending_crashes == 0
        assert not plan.consume_crash(1)  # budget spent: organic death

    def test_consume_crash_respects_schedule_ordering(self):
        # a death at superstep 1 cannot consume a crash scheduled for 5
        plan = FaultPlan().crash(1, at_superstep=5)
        assert not plan.consume_crash(1, superstep=1)
        assert plan.pending_crashes == 1
        assert plan.consume_crash(1, superstep=5)
        assert plan.counts() == {"crash": 1}

    def test_consume_crash_is_idempotent(self):
        """A second acknowledgement of the same death consumes nothing."""
        plan = FaultPlan().crash(2, at_superstep=3)
        assert plan.consume_crash(2, superstep=3)
        for _ in range(3):  # retried attribution of the same event
            assert not plan.consume_crash(2, superstep=3)
        assert plan.pending_crashes == 0
        assert plan.counts() == {"crash": 1}

    def test_consume_crash_one_event_per_call(self):
        """Two pending crashes on one rank are consumed one at a time."""
        plan = FaultPlan().crash(1, at_superstep=2).crash(1, at_superstep=4)
        assert plan.consume_crash(1, superstep=4)
        assert plan.pending_crashes == 1
        assert plan.consume_crash(1, superstep=4)
        assert not plan.consume_crash(1, superstep=4)


class _Idle:
    """Never done, never sends, never charges: a deterministic deadlock."""

    done = False

    def step(self, ctx, inbox):
        return None


def test_supervised_deadlock_fails_fast(tmp_path):
    """A deadlock replays identically, so the supervisor does not retry it."""
    sup = Supervisor(
        lambda: BSPEngine(2), lambda: [_Idle(), _Idle()],
        Checkpointer(tmp_path / "run.ckpt", keep=3), max_retries=3,
    )
    with pytest.raises(DeadlockError):
        sup.run()
    assert sup.recoveries == []
