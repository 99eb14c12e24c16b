"""Tests for the event-driven simulated runtime."""

import numpy as np
import pytest

from repro.mpsim import DeadlockError, Simulator
from repro.mpsim.costmodel import CostModel
from repro.mpsim.errors import InvalidRankError, MPSimError, RankFailure
from repro.mpsim.runtime import Recv, RecvOrQuiesce


class TestPointToPoint:
    def test_simple_send_recv(self):
        seen = {}

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "hello")
            else:
                msg = yield comm.recv()
                seen["msg"] = (msg.source, msg.tag, msg.payload)

        Simulator(2).run(prog)
        assert seen["msg"] == (0, 0, "hello")

    def test_ring_token(self):
        order = []

        def prog(comm):
            nxt = (comm.rank + 1) % comm.size
            if comm.rank == 0:
                comm.send(nxt, 0)
                msg = yield comm.recv()
                order.append((comm.rank, msg.payload))
            else:
                msg = yield comm.recv()
                order.append((comm.rank, msg.payload))
                comm.send(nxt, msg.payload + 1)

        Simulator(6).run(prog)
        assert (0, 5) in order
        assert len(order) == 6

    def test_fifo_order_same_source_tag(self):
        got = []

        def prog(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(1, i)
            else:
                for _ in range(10):
                    msg = yield comm.recv()
                    got.append(msg.payload)

        Simulator(2).run(prog)
        assert got == list(range(10))

    def test_earliest_delivery_first(self):
        """The mailbox is a heap on delivery time: a small message sent after
        a large one overtakes it."""
        cost = CostModel(alpha=1e-6, beta=1e-9, per_message=0.0)
        got = []

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100))
                comm.send(1, 7)
            else:
                for _ in range(2):
                    msg = yield comm.recv()
                    got.append(type(msg.payload).__name__)

        Simulator(2, cost_model=cost).run(prog)
        assert got == ["int", "ndarray"]

    def test_send_to_invalid_rank_raises(self):
        def prog(comm):
            comm.send(99, "x")
            yield comm.recv()

        with pytest.raises(InvalidRankError):
            Simulator(2).run(prog)

    def test_iprobe(self):
        checks = []

        def prog(comm):
            if comm.rank == 0:
                checks.append(("before", comm.iprobe()))
                comm.send(1, 1)
            else:
                msg = yield comm.recv()
                checks.append(("after", True))

        Simulator(2).run(prog)
        assert ("before", False) in checks


class TestDeadlockAndQuiescence:
    def test_all_blocked_is_deadlock(self):
        def prog(comm):
            yield comm.recv()

        with pytest.raises(DeadlockError) as exc:
            Simulator(3).run(prog)
        assert set(exc.value.blocked_ranks) == {0, 1, 2}

    def test_partial_deadlock_detected(self):
        def prog(comm):
            if comm.rank == 0:
                return
                yield  # pragma: no cover
            yield comm.recv()

        with pytest.raises(DeadlockError):
            Simulator(3).run(prog)

    def test_quiescence_terminates(self):
        counts = {r: 0 for r in range(4)}

        def prog(comm):
            if comm.rank == 0:
                for dest in range(1, comm.size):
                    comm.send(dest, "work")
            while True:
                msg = yield comm.recv_or_quiesce()
                if msg is None:
                    break
                counts[comm.rank] += 1

        Simulator(4).run(prog)
        assert sum(counts.values()) == 3

    def test_quiescence_with_forwarding(self):
        """Messages that spawn more messages delay quiescence correctly."""
        hops = []

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, 0)
            while True:
                msg = yield comm.recv_or_quiesce()
                if msg is None:
                    break
                hops.append(msg.payload)
                if msg.payload < 10:
                    comm.send((comm.rank + 1) % comm.size, msg.payload + 1)

        Simulator(3).run(prog)
        assert hops == list(range(11))


class TestClockAndStats:
    def test_charge_advances_clock(self):
        cost = CostModel(per_node=1.0, per_work_item=0.5, alpha=0, beta=0, per_message=0)
        times = {}

        def prog(comm):
            comm.charge(nodes=3, work_items=2)
            times[comm.rank] = comm.clock
            return
            yield  # pragma: no cover

        Simulator(1, cost_model=cost).run(prog)
        assert times[0] == pytest.approx(4.0)

    def test_message_latency_orders_delivery(self):
        """The receiver cannot see a message before alpha has elapsed."""
        cost = CostModel(alpha=10.0, beta=0.0, per_message=0.0, per_node=0.0)
        recv_time = {}

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x")
            else:
                msg = yield comm.recv()
                recv_time["t"] = comm.clock

        Simulator(2, cost_model=cost).run(prog)
        assert recv_time["t"] >= 10.0

    def test_stats_count_messages_and_bytes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100, dtype=np.float64))
            else:
                yield comm.recv()

        stats = Simulator(2).run(prog)
        assert stats[0].msgs_sent == 1
        assert stats[0].bytes_sent == 800
        assert stats[1].msgs_received == 1
        assert stats[1].bytes_received == 800

    def test_makespan_positive(self):
        def prog(comm):
            comm.charge(nodes=10)
            return
            yield  # pragma: no cover

        sim = Simulator(2)
        sim.run(prog)
        assert sim.makespan > 0


class TestErrors:
    def test_rank_exception_wrapped(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return
            yield  # pragma: no cover

        with pytest.raises(RankFailure) as exc:
            Simulator(2).run(prog)
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, ValueError)

    def test_non_generator_program_rejected(self):
        def prog(comm):
            return 42

        with pytest.raises(MPSimError, match="generator"):
            Simulator(1).run(prog)

    def test_bad_yield_rejected(self):
        def prog(comm):
            yield "not an op"

        with pytest.raises(MPSimError, match="unsupported operation"):
            Simulator(1).run(prog)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Simulator(0)


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        def prog(comm):
            rngseed = comm.rank * 17 + 1
            rng = np.random.default_rng(rngseed)
            for _ in range(5):
                dest = int(rng.integers(0, comm.size))
                if dest != comm.rank:
                    comm.send(dest, int(rng.integers(0, 100)))
            while True:
                msg = yield comm.recv_or_quiesce()
                if msg is None:
                    break

        s1 = Simulator(4).run(prog)
        s2 = Simulator(4).run(prog)
        for a, b in zip(s1.ranks, s2.ranks):
            assert a.msgs_sent == b.msgs_sent
            assert a.msgs_received == b.msgs_received
            assert a.busy_time == pytest.approx(b.busy_time)


class TestSelfSend:
    def test_rank_can_message_itself(self):
        """MPI permits self-sends; the simulator delivers them like any other."""
        from repro.mpsim import Simulator

        got = {}

        def prog(comm):
            comm.send(comm.rank, "note to self")
            msg = yield comm.recv()
            got[comm.rank] = (msg.source, msg.payload)

        Simulator(2).run(prog)
        assert got == {0: (0, "note to self"), 1: (1, "note to self")}
