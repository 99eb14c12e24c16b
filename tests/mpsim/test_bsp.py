"""Tests for the BSP superstep engine."""

import weakref

import numpy as np
import pytest

from repro.mpsim import BSPEngine, DeadlockError
from repro.mpsim.costmodel import CostModel
from repro.mpsim.errors import InvalidRankError, MPSimError, RankFailure


class _Base:
    """Minimal rank program scaffold."""

    def __init__(self, rank):
        self.rank = rank
        self._done = True

    def step(self, ctx, inbox):
        return None

    @property
    def done(self):
        return self._done


class TestBasics:
    def test_single_message_delivery(self):
        class P(_Base):
            def __init__(self, rank):
                super().__init__(rank)
                self.sent = False
                self.got = None

            def step(self, ctx, inbox):
                for src, arr in inbox:
                    self.got = (src, arr.copy())
                if self.rank == 0 and not self.sent:
                    self.sent = True
                    return {1: [np.arange(4, dtype=np.int64)]}
                return None

        progs = [P(0), P(1)]
        BSPEngine(2).run(progs)
        src, arr = progs[1].got
        assert src == 0
        assert np.array_equal(arr, np.arange(4))

    def test_inbox_ordered_by_source(self):
        class P(_Base):
            def __init__(self, rank):
                super().__init__(rank)
                self.sources = []
                self.sent = False

            def step(self, ctx, inbox):
                self.sources.extend(src for src, _ in inbox)
                if self.rank != 3 and not self.sent:
                    self.sent = True
                    return {3: [np.array([self.rank])]}
                return None

        progs = [P(r) for r in range(4)]
        BSPEngine(4).run(progs)
        assert progs[3].sources == [0, 1, 2]

    def test_empty_payloads_dropped(self):
        class P(_Base):
            def __init__(self, rank):
                super().__init__(rank)
                self.inbox_count = 0
                self.sent = False

            def step(self, ctx, inbox):
                self.inbox_count += len(inbox)
                if self.rank == 0 and not self.sent:
                    self.sent = True
                    return {1: [np.empty(0, dtype=np.int64)]}
                return None

        progs = [P(0), P(1)]
        eng = BSPEngine(2)
        eng.run(progs)
        assert progs[1].inbox_count == 0
        assert eng.stats.total_messages == 0

    def test_multi_round_chain(self):
        """Rank r forwards a counter to rank r+1; value accumulates."""

        class P(_Base):
            def __init__(self, rank, size):
                super().__init__(rank)
                self.size = size
                self.value = None
                self.kicked = False

            def step(self, ctx, inbox):
                out = {}
                if self.rank == 0 and not self.kicked:
                    self.kicked = True
                    out[1] = [np.array([1])]
                for src, arr in inbox:
                    self.value = int(arr[0])
                    if self.rank + 1 < self.size:
                        out[self.rank + 1] = [arr + 1]
                return out or None

        progs = [P(r, 5) for r in range(5)]
        eng = BSPEngine(5)
        eng.run(progs)
        assert progs[4].value == 4
        assert eng.supersteps >= 5


class TestInboxRelease:
    """A rank's inbox is dropped once the rank has stepped, so the engine
    holds no consumed payload while the later ranks of the superstep run."""

    class Relay(_Base):
        def __init__(self, rank, refs, seen):
            super().__init__(rank)
            self.refs, self.seen, self.kicked = refs, seen, False

        def step(self, ctx, inbox):
            # what rank 1 consumed (if anything): is it still alive?
            self.seen.append((self.rank, [ref() is None for ref in self.refs]))
            if self.rank == 0 and not self.kicked:
                self.kicked = True
                payload = np.arange(1000)
                self.refs.append(weakref.ref(payload))
                return {1: [payload]}
            return None

    def test_consumed_inbox_is_freed_before_the_next_rank_steps(self):
        refs, seen = [], []
        BSPEngine(3).run([self.Relay(r, refs, seen) for r in range(3)])
        # superstep 2: rank 1 consumes the payload, rank 2 steps after it
        assert seen[3:6] == [(0, [False]), (1, [False]), (2, [True])]

    def test_initial_inboxes_are_not_changed(self):
        payload = np.arange(5)
        initial = [[], [(0, payload)], []]
        before = [list(box) for box in initial]
        refs, seen = [], []
        BSPEngine(3).run(
            [self.Relay(r, refs, seen) for r in range(3)], initial_inboxes=initial
        )
        assert initial == before
        assert initial[1][0][1] is payload


class TestTermination:
    def test_stall_with_pending_work_raises(self):
        class Stuck(_Base):
            @property
            def done(self):
                return self.rank != 1  # rank 1 never finishes, sends nothing

            def step(self, ctx, inbox):
                return None

        with pytest.raises(DeadlockError) as exc:
            BSPEngine(2).run([Stuck(0), Stuck(1)])
        assert exc.value.blocked_ranks == (1,)

    def test_max_supersteps_guard(self):
        class Chatter(_Base):
            def step(self, ctx, inbox):
                return {1 - self.rank: [np.array([1])]}

        with pytest.raises(MPSimError, match="max_supersteps"):
            BSPEngine(2, max_supersteps=5).run([Chatter(0), Chatter(1)])

    def test_immediate_quiescence(self):
        eng = BSPEngine(3)
        eng.run([_Base(r) for r in range(3)])
        assert eng.supersteps == 1


class TestValidation:
    def test_wrong_program_count(self):
        with pytest.raises(MPSimError, match="expected 2"):
            BSPEngine(2).run([_Base(0)])

    def test_invalid_destination(self):
        class Bad(_Base):
            def step(self, ctx, inbox):
                return {7: [np.array([1])]}

        with pytest.raises(InvalidRankError):
            BSPEngine(2).run([Bad(0), Bad(1)])

    def test_self_send_rejected(self):
        class Selfie(_Base):
            def step(self, ctx, inbox):
                return {self.rank: [np.array([1])]}

        with pytest.raises(MPSimError, match="self-send"):
            BSPEngine(2).run([Selfie(0), Selfie(1)])

    def test_rank_exception_wrapped(self):
        class Boom(_Base):
            def step(self, ctx, inbox):
                if self.rank == 1:
                    raise KeyError("inner")
                return None

        with pytest.raises(RankFailure) as exc:
            BSPEngine(2).run([Boom(0), Boom(1)])
        assert exc.value.rank == 1

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            BSPEngine(0)


class TestAccounting:
    def test_record_and_byte_counters(self):
        class P(_Base):
            def __init__(self, rank):
                super().__init__(rank)
                self.sent = False

            def step(self, ctx, inbox):
                if self.rank == 0 and not self.sent:
                    self.sent = True
                    return {1: [np.zeros(10, dtype=np.int64)]}
                return None

        eng = BSPEngine(2)
        eng.run([P(0), P(1)])
        assert eng.stats[0].msgs_sent == 10  # logical records
        assert eng.stats[0].bytes_sent == 80
        assert eng.stats[1].msgs_received == 10

    def test_compute_charges_reach_stats(self):
        class P(_Base):
            def step(self, ctx, inbox):
                ctx.charge(nodes=7, work_items=3)
                return None

        eng = BSPEngine(1)
        eng.run([P(0)])
        assert eng.stats[0].nodes == 7
        assert eng.stats[0].work_items == 3
        assert eng.stats[0].busy_time > 0

    def test_simulated_time_is_max_over_ranks(self):
        cost = CostModel(alpha=0.0, beta=0.0, per_message=0.0, per_node=1.0)

        class P(_Base):
            def step(self, ctx, inbox):
                ctx.charge(nodes=10 if self.rank == 0 else 1)
                return None

        eng = BSPEngine(2, cost_model=cost)
        eng.run([P(0), P(1)])
        assert eng.simulated_time == pytest.approx(10.0)

    def test_summary_keys(self):
        eng = BSPEngine(2)
        eng.run([_Base(0), _Base(1)])
        s = eng.summary()
        for key in ("supersteps", "simulated_time", "imbalance", "total_messages"):
            assert key in s
