"""Tests for the literal per-message Algorithm 3.1 implementation."""

import pytest

from repro.core.event_driven import run_event_driven_pa_x1
from repro.core.partitioning import make_partition
from repro.graph.validation import validate_pa_graph


class TestX1:
    @pytest.mark.parametrize("scheme", ["ucp", "lcp", "rrp"])
    @pytest.mark.parametrize("P", [1, 3, 7])
    def test_valid(self, scheme, P):
        n = 200
        part = make_partition(scheme, n, P)
        edges, _ = run_event_driven_pa_x1(n, part, seed=0)
        assert validate_pa_graph(edges, n, 1).ok

    def test_seven_node_figure1_scale(self):
        """The paper's Figure 1 instance size: n=7 on 2 ranks."""
        part = make_partition("ucp", 7, 2)
        edges, sim = run_event_driven_pa_x1(7, part, seed=1)
        assert validate_pa_graph(edges, 7, 1).ok
        assert len(edges) == 6

    def test_messages_flow_between_ranks(self):
        part = make_partition("rrp", 500, 4)
        _, sim = run_event_driven_pa_x1(500, part, seed=2)
        assert sim.stats.total_messages > 0

    def test_partition_mismatch(self):
        part = make_partition("rrp", 100, 2)
        with pytest.raises(ValueError):
            run_event_driven_pa_x1(50, part, seed=0)


class TestBuffered:
    @pytest.mark.parametrize("capacity", [1, 4, 64])
    def test_buffered_same_graph_as_unbuffered(self, capacity):
        """Buffering changes message packaging, not the protocol outcome."""
        n, P = 400, 5
        part = make_partition("rrp", n, P)
        plain, _ = run_event_driven_pa_x1(n, part, seed=6)
        buffered, _ = run_event_driven_pa_x1(
            n, part, seed=6, buffer_capacity=capacity, flush_on_idle=True
        )
        assert plain == buffered

    def test_buffering_reduces_mpi_sends(self):
        n, P = 2000, 4
        part = make_partition("rrp", n, P)
        _, sim_plain = run_event_driven_pa_x1(n, part, seed=7)
        _, sim_buf = run_event_driven_pa_x1(
            n, part, seed=7, buffer_capacity=64, flush_on_idle=True
        )
        assert sim_buf.stats.total_messages < sim_plain.stats.total_messages / 4


class TestSchedule:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("P", [2, 4, 8])
    @pytest.mark.parametrize("scheme", ["rrp", "ucp", "ecp"])
    def test_baseline_schedule_reproduces_unscheduled_run(self, scheme, P, seed):
        """Index 0 of every choice point is the unscheduled run's pick, so the
        baseline schedule replays its clocks, not only its graph."""
        from repro.schedsim import BaselinePolicy, Schedule

        part = make_partition(scheme, 600, P)
        plain_edges, plain = run_event_driven_pa_x1(600, part, seed=seed)
        base_edges, base = run_event_driven_pa_x1(
            600, part, seed=seed, schedule=Schedule(BaselinePolicy())
        )
        assert base.clocks() == plain.clocks()
        assert base.stats.total_messages == plain.stats.total_messages
        assert base.makespan == plain.makespan
        assert base_edges == plain_edges
