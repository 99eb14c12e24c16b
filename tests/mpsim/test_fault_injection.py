"""Failure-injection tests: message loss surfaces as detectable failure.

The paper's protocol assumes a reliable transport (MPI).  These tests
verify the *failure behaviour* of the implementation on a lossy transport:
lost request/resolved messages never corrupt the graph silently — the run
either completes exactly or is reported as stuck.
"""

import numpy as np
import pytest

from repro.core.event_driven import run_event_driven_pa_x1
from repro.core.partitioning import make_partition
from repro.mpsim import FaultPlan, Simulator
from repro.mpsim.errors import DeadlockError


def drop_first(count=1):
    """A plan that drops the first ``count`` messages sent, then none."""
    return FaultPlan(0).drop(count, rate=1.0)


class TestSimulatorHook:
    def test_drop_all_messages(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x")
            else:
                msg = yield comm.recv_or_quiesce()
                assert msg is None  # the send was dropped

        sim = Simulator(2, fault_plan=drop_first())
        sim.run(prog)
        assert sim.dropped_messages == 1

    def test_drop_none_is_identity(self):
        got = {}

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, 42)
            else:
                msg = yield comm.recv()
                got["v"] = msg.payload

        sim = Simulator(2, fault_plan=FaultPlan(0))
        sim.run(prog)
        assert got["v"] == 42
        assert sim.dropped_messages == 0

    def test_selective_drop_by_destination(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "a")  # dropped: the plan's one-message budget
                comm.send(2, "b")
            while True:
                msg = yield comm.recv_or_quiesce()
                if msg is None:
                    return

        sim = Simulator(3, fault_plan=drop_first())
        stats = sim.run(prog)
        assert sim.dropped_messages == 1
        assert stats[2].msgs_received == 1
        assert stats[1].msgs_received == 0

    def test_lost_message_deadlocks_blocking_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x")
            else:
                yield comm.recv()  # blocks forever: the message was dropped

        with pytest.raises(DeadlockError):
            Simulator(2, fault_plan=drop_first()).run(prog)


class TestProtocolUnderLoss:
    def test_lost_resolved_message_is_detected(self):
        """Dropping one protocol message must never yield a silent partial
        graph: the run either fails loudly or (if the dropped slot was not
        load-bearing) completes with a full edge set."""
        n, P = 300, 4
        part = make_partition("rrp", n, P)
        plan = FaultPlan(0).drop(1, rate=0.2)
        try:
            edges, _ = run_event_driven_pa_x1(n, part, seed=0, fault_plan=plan)
        except DeadlockError:
            assert plan.counts() == {"drop": 1}
            return  # loud failure: acceptable and expected
        assert len(edges) == n - 1  # pragma: no cover - depends on which msg

    def test_lossless_run_unaffected_by_hook(self):
        n, P = 300, 4
        part = make_partition("rrp", n, P)
        plain, _ = run_event_driven_pa_x1(n, part, seed=1)
        hooked, _ = run_event_driven_pa_x1(n, part, seed=1, fault_plan=FaultPlan(0))
        assert np.array_equal(plain.canonical(), hooked.canonical())
