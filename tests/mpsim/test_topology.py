"""Tests for interconnect topology models and their effect on BSP timing."""

import numpy as np
import pytest

from repro.mpsim.bsp import BSPEngine
from repro.mpsim.costmodel import CostModel
from repro.mpsim.topology import (
    FatTreeTopology,
    FlatTopology,
    RingTopology,
    Torus2D,
)


class TestHopCounts:
    def test_flat(self):
        t = FlatTopology(8)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 7) == 1
        assert t.multiplier(3, 3) == 0.0
        assert t.multiplier(0, 7) == 1.0

    def test_ring(self):
        t = RingTopology(10)
        assert t.hops(0, 1) == 1
        assert t.hops(0, 5) == 5
        assert t.hops(0, 9) == 1  # wraps
        assert t.hops(2, 2) == 0

    def test_torus(self):
        t = Torus2D(4, 4)
        assert t.size == 16
        assert t.hops(0, 1) == 1
        assert t.hops(0, 5) == 2       # (0,0)->(1,1)
        assert t.hops(0, 15) == 2      # wraparound both axes
        assert t.hops(0, 10) == 4      # (0,0)->(2,2)

    def test_fat_tree(self):
        t = FatTreeTopology(32, radix=8)
        assert t.hops(0, 7) == 1   # same leaf
        assert t.hops(0, 8) == 3   # cross leaf
        assert t.hops(4, 4) == 0

    def test_multiplier_scaling(self):
        t = RingTopology(10, hop_penalty=0.5)
        assert t.multiplier(0, 1) == 1.0
        assert t.multiplier(0, 5) == pytest.approx(3.0)  # 1 + 0.5*4

    def test_matrix_symmetric(self):
        for t in (RingTopology(6), Torus2D(2, 3), FatTreeTopology(6, radix=2)):
            m = t.multiplier_matrix()
            assert np.allclose(m, m.T)
            assert (np.diag(m) == 0).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            FlatTopology(0)
        with pytest.raises(ValueError):
            RingTopology(4, hop_penalty=-1)
        with pytest.raises(ValueError):
            Torus2D(0, 3)
        with pytest.raises(ValueError):
            FatTreeTopology(4, radix=0)
        with pytest.raises(ValueError):
            FlatTopology(4).hops(0, 9)


class _Sender:
    """Rank 0 sends one block to a fixed destination, once."""

    def __init__(self, rank, dest):
        self.rank = rank
        self.dest = dest
        self.sent = False

    def step(self, ctx, inbox):
        if self.rank == 0 and not self.sent:
            self.sent = True
            return {self.dest: [np.zeros(1000, dtype=np.int64)]}
        return None

    @property
    def done(self):
        return self.rank != 0 or self.sent


class TestEngineIntegration:
    def _time_for(self, topology, dest):
        cost = CostModel(alpha=0, per_message=0, per_node=0, per_work_item=0, beta=1e-6)
        eng = BSPEngine(10, cost_model=cost, topology=topology)
        eng.run([_Sender(r, dest) for r in range(10)])
        return eng.simulated_time

    def test_distance_costs_more_on_ring(self):
        topo = RingTopology(10, hop_penalty=1.0)
        near = self._time_for(topo, dest=1)
        far = self._time_for(topo, dest=5)
        # sender pays 5x on the far path; the (unweighted) receive leg halves
        # the end-to-end ratio to 3.0
        assert far == pytest.approx(3 * near, rel=0.05)

    def test_flat_matches_no_topology(self):
        t_flat = self._time_for(FlatTopology(10), dest=5)
        cost = CostModel(alpha=0, per_message=0, per_node=0, per_work_item=0, beta=1e-6)
        eng = BSPEngine(10, cost_model=cost)
        eng.run([_Sender(r, 5) for r in range(10)])
        assert t_flat == pytest.approx(eng.simulated_time)

    def test_size_mismatch_rejected(self):
        from repro.mpsim.errors import MPSimError

        with pytest.raises(MPSimError):
            BSPEngine(4, topology=RingTopology(8))

    def test_generation_slower_on_penalised_ring(self):
        """End-to-end: the PA generator pays for long-range traffic."""
        from repro import generate
        from repro.core.partitioning import make_partition

        n, x, P = 4000, 3, 8
        part = make_partition("rrp", n, P)
        flat = generate(n, x, partition=part, seed=0)

        from repro.core.parallel_pa_general import PAGeneralRankProgram
        from repro.rng import StreamFactory

        factory = StreamFactory(0)
        programs = [
            PAGeneralRankProgram(r, part, x, 0.5, factory.stream(r)) for r in range(P)
        ]
        ring_engine = BSPEngine(P, topology=RingTopology(P, hop_penalty=5.0))
        ring_engine.run(programs)
        assert ring_engine.simulated_time > flat.simulated_time
        # the graphs themselves are identical — topology is timing-only
        assert all(
            np.array_equal(a.F, b.F)
            for a, b in zip(programs, programs)
        )
