"""Chaos sweep: fault seeds × fault kinds × both engines (ISSUE satellite).

Every scenario must end in one of two acceptable states:

* **bit-identical output** — supervised BSP runs recover crashes exactly;
  stragglers and duplicates never perturb the graph on either engine;
* **a loud, typed failure** — drops that starve the protocol surface as
  :class:`DeadlockError`, never as a silently truncated edge list.

The sweep also re-asserts that the Section 3.5.2 RRP hold-until-full
deadlock detection still fires with a fault hook attached.
"""

import numpy as np
import pytest

from repro.core.event_driven import run_event_driven_pa_x1
from repro.core.generator import generate
from repro.core.partitioning import make_partition
from repro.mpsim.errors import DeadlockError, MPSimError
from repro.mpsim.faults import FaultPlan

pytestmark = pytest.mark.usefixtures("no_leftovers")

SEEDS = [0, 1, 2]


def _plan(kind: str, fault_seed: int, size: int) -> FaultPlan:
    if kind == "crash":
        return FaultPlan.chaos(fault_seed, size, crashes=1)
    if kind == "drop":
        return FaultPlan(fault_seed).drop(2, rate=0.01)
    if kind == "straggler":
        return FaultPlan.chaos(
            fault_seed, size, crashes=0, stragglers=1, straggle_factor=8.0
        )
    raise AssertionError(kind)


class TestBSPSweep:
    @pytest.mark.parametrize("fault_seed", SEEDS)
    @pytest.mark.parametrize("kind", ["crash", "drop", "straggler"])
    def test_supervised_run_matches_fault_free(self, tmp_path, fault_seed, kind):
        n, ranks, seed = 2000, 4, 11
        baseline = generate(n, x=1, ranks=ranks, seed=seed)
        # an early drop can poison every retained snapshot (the lost message
        # is missing from each checkpointed inbox); the recovery ladder then
        # needs keep+1 attempts to reach the restart-from-scratch rung
        chaotic = generate(
            n,
            x=1,
            ranks=ranks,
            seed=seed,
            checkpoint_dir=str(tmp_path),
            fault_plan=_plan(kind, fault_seed, ranks),
            max_retries=6,
        )
        assert np.array_equal(
            chaotic.edges.canonical(), baseline.edges.canonical()
        )
        assert chaotic.validate().ok
        if kind == "crash":
            assert len(chaotic.recoveries) == 1
        applied = chaotic.fault_plan.counts()
        if kind == "straggler":
            assert not applied.get("crash") and not applied.get("drop")

    def test_unsupervised_crash_propagates(self):
        """Without a supervisor, the fault is the caller's problem."""
        with pytest.raises(MPSimError):
            generate(
                2000,
                x=1,
                ranks=4,
                seed=11,
                fault_plan=FaultPlan(0).crash(1, at_superstep=3),
            )


class TestEventSweep:
    @pytest.mark.parametrize("fault_seed", SEEDS)
    @pytest.mark.parametrize("kind", ["drop", "straggler"])
    def test_identical_or_loud(self, fault_seed, kind):
        """Event-engine faults either leave the graph untouched (stragglers,
        and drops whose budget never triggers) or starve the resolution
        protocol into a detected deadlock — never silent corruption."""
        n, ranks, seed = 400, 4, 11
        baseline = generate(n, x=1, ranks=ranks, seed=seed, engine="event")
        try:
            chaotic = generate(
                n,
                x=1,
                ranks=ranks,
                seed=seed,
                engine="event",
                fault_plan=_plan(kind, fault_seed, ranks),
            )
        except DeadlockError:
            assert kind == "drop"
            return
        assert np.array_equal(
            chaotic.edges.canonical(), baseline.edges.canonical()
        )

    @pytest.mark.parametrize("fault_seed", SEEDS)
    def test_duplicates_never_corrupt(self, fault_seed):
        n, ranks, seed = 400, 4, 11
        baseline = generate(n, x=1, ranks=ranks, seed=seed, engine="event")
        chaotic = generate(
            n,
            x=1,
            ranks=ranks,
            seed=seed,
            engine="event",
            fault_plan=FaultPlan(fault_seed).duplicate(3, rate=0.02),
        )
        assert np.array_equal(
            chaotic.edges.canonical(), baseline.edges.canonical()
        )


class TestDeadlockDetectionUnderFaults:
    def test_rrp_hold_until_full_still_detected(self):
        """The 3.5.2 hazard must stay observable with a fault hook attached
        (a plan whose budgets never trigger is a pure pass-through)."""
        n, P = 400, 8
        part = make_partition("rrp", n, P)

        def run(seed):
            try:
                run_event_driven_pa_x1(
                    n,
                    part,
                    seed=seed,
                    buffer_capacity=1 << 20,
                    flush_on_idle=False,
                    fault_plan=FaultPlan(seed),
                )
                return False
            except DeadlockError:
                return True

        assert any(run(seed) for seed in range(3))
