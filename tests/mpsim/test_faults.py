"""Tests for the seeded FaultPlan applied through both engine hooks."""

import numpy as np
import pytest

from repro import generate
from repro.core.event_driven import run_event_driven_pa_x1
from repro.core.partitioning import make_partition
from repro.mpsim import BSPEngine, FaultPlan, Simulator
from repro.mpsim.errors import DeadlockError, InjectedFault, RankFailure


class TestPlanConstruction:
    def test_chaos_is_deterministic(self):
        a = FaultPlan.chaos(42, size=8, crashes=2, drops=3, stragglers=1)
        b = FaultPlan.chaos(42, size=8, crashes=2, drops=3, stragglers=1)
        assert [(c.rank, c.at_superstep) for c in a._crashes] == [
            (c.rank, c.at_superstep) for c in b._crashes
        ]
        assert a.straggler_ranks == b.straggler_ranks

    def test_different_seeds_differ(self):
        plans = [FaultPlan.chaos(s, size=32, crashes=1) for s in range(20)]
        victims = {p._crashes[0].rank for p in plans}
        assert len(victims) > 1

    def test_crash_needs_a_trigger(self):
        with pytest.raises(ValueError):
            FaultPlan(0).crash(1)

    def test_straggle_factor_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(0).straggle(0, factor=0.5)


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

    def test_total_drop_is_detected_not_silent(self):
        """Dropping every message must end in loud failure, never a partial
        graph."""
        part, programs = self._programs()
        plan = FaultPlan(0).drop(10**9, rate=1.0)
        with pytest.raises(DeadlockError):
            BSPEngine(4).run(programs, fault_plan=plan)

    def test_straggler_inflates_time_not_results(self):
        n, P = 1500, 4
        part = make_partition("rrp", n, P)
        base = generate(n, partition=part, seed=3)
        slow = generate(
            n, partition=part, seed=3, fault_plan=FaultPlan(0).straggle(1, factor=20.0)
        )
        assert np.array_equal(base.edges.canonical(), slow.edges.canonical())
        assert slow.simulated_time > 2 * base.simulated_time

    def test_exhausted_budgets_are_pass_through(self):
        n, P = 1200, 4
        part = make_partition("rrp", n, P)
        base = generate(n, partition=part, seed=5).edges
        hooked = generate(
            n, partition=part, seed=5, fault_plan=FaultPlan(9)  # no faults scheduled
        ).edges
        assert np.array_equal(base.canonical(), hooked.canonical())


class TestSimulatorFaults:
    def test_crash_at_virtual_time(self):
        part = make_partition("rrp", 400, 4)
        plan = FaultPlan(0).crash(1, at_time=0.0)
        with pytest.raises(RankFailure) as ei:
            run_event_driven_pa_x1(400, part, seed=0, fault_plan=plan)
        assert ei.value.rank == 1
        assert isinstance(ei.value.original, InjectedFault)

    def test_duplicates_do_not_change_the_graph(self):
        """The x=1 resolution protocol is idempotent under duplication."""
        part = make_partition("rrp", 400, 4)
        base, _ = run_event_driven_pa_x1(400, part, seed=1)
        plan = FaultPlan(2).duplicate(5, rate=0.05)
        dup, sim = run_event_driven_pa_x1(400, part, seed=1, fault_plan=plan)
        assert plan.counts().get("duplicate", 0) > 0
        assert np.array_equal(base.canonical(), dup.canonical())

    def test_straggler_slows_but_preserves_output(self):
        part = make_partition("rrp", 400, 4)
        base, base_sim = run_event_driven_pa_x1(400, part, seed=2)
        plan = FaultPlan(0).straggle(0, factor=25.0)
        slow, slow_sim = run_event_driven_pa_x1(400, part, seed=2, fault_plan=plan)
        assert np.array_equal(base.canonical(), slow.canonical())
        assert slow_sim.makespan > base_sim.makespan

    def test_plan_drops_count_in_dropped_messages(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x")
            else:
                msg = yield comm.recv_or_quiesce()
                assert msg is None

        plan = FaultPlan(0).drop(10, rate=1.0)
        sim = Simulator(2, fault_plan=plan)
        sim.run(prog)
        assert sim.dropped_messages == 1
        assert plan.counts() == {"drop": 1}


class TestPlanCapabilities:
    """The public capability API backends use instead of private fields."""

    def test_empty_plan_has_no_capabilities(self):
        assert FaultPlan().capabilities() == frozenset()

    def test_each_fault_kind_reports_its_capability(self):
        from repro.mpsim.faults import (
            CAP_CRASH_SUPERSTEP,
            CAP_CRASH_TIME,
            CAP_DROP,
            CAP_DUPLICATE,
            CAP_STRAGGLE,
        )

        plan = (
            FaultPlan()
            .crash(0, at_superstep=2)
            .crash(1, at_time=3.0)
            .drop(5)
            .duplicate(5)
            .straggle(2)
        )
        assert plan.capabilities() == frozenset(
            {CAP_CRASH_SUPERSTEP, CAP_CRASH_TIME, CAP_DROP, CAP_DUPLICATE, CAP_STRAGGLE}
        )
        assert plan.has_drops() and plan.has_duplicates()

    def test_dual_scheduled_crash_counts_as_superstep(self):
        # any engine with a superstep counter can fire it
        plan = FaultPlan().crash(0, at_superstep=2, at_time=9.0)
        assert plan.capabilities() == frozenset({"crash:superstep"})

    def test_fired_crashes_drop_out_of_capabilities(self):
        plan = FaultPlan().crash(1, at_superstep=2)
        assert plan.consume_crash(1, superstep=2)
        assert plan.capabilities() == frozenset()
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

    def test_chaos_capabilities_track_requested_fault_mix(self):
        from repro.mpsim.faults import (
            CAP_CRASH_SUPERSTEP,
            CAP_DROP,
            CAP_DUPLICATE,
            CAP_STRAGGLE,
        )

        cases = [
            (dict(crashes=1), {CAP_CRASH_SUPERSTEP}),
            (dict(crashes=0, drops=3), {CAP_DROP}),
            (dict(crashes=0, duplicates=2), {CAP_DUPLICATE}),
            (dict(crashes=0, stragglers=2), {CAP_STRAGGLE}),
            (
                dict(crashes=2, drops=1, duplicates=1, stragglers=1),
                {CAP_CRASH_SUPERSTEP, CAP_DROP, CAP_DUPLICATE, CAP_STRAGGLE},
            ),
            (dict(crashes=0), set()),
        ]
        for kwargs, expected in cases:
            plan = FaultPlan.chaos(11, size=8, **kwargs)
            assert plan.capabilities() == frozenset(expected), kwargs


class TestUnityStragglers:
    """``straggle(factor=1.0)`` is valid and a behavioural no-op."""

    def test_factor_one_accepted(self):
        plan = FaultPlan(0).straggle(2, factor=1.0)
        assert plan.straggle_multiplier(2) == 1.0
        assert plan.straggler_ranks == (2,)

    def test_bsp_times_unchanged(self):
        n, P = 1500, 4
        part = make_partition("rrp", n, P)
        base = generate(n, partition=part, seed=3)
        unity = generate(
            n, partition=part, seed=3, fault_plan=FaultPlan(0).straggle(1, factor=1.0)
        )
        assert np.array_equal(base.edges.canonical(), unity.edges.canonical())
        assert unity.simulated_time == base.simulated_time

    def test_event_times_unchanged(self):
        part = make_partition("rrp", 400, 4)
        base, base_sim = run_event_driven_pa_x1(400, part, seed=2)
        unity, unity_sim = run_event_driven_pa_x1(
            400, part, seed=2, fault_plan=FaultPlan(0).straggle(0, factor=1.0)
        )
        assert np.array_equal(base.canonical(), unity.canonical())
        assert unity_sim.makespan == base_sim.makespan
