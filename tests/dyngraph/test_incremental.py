"""Incremental analyses must match from-scratch on every snapshot.

The headline test is the randomized 20-epoch churn sweep: evolve on each
engine (including a SIGKILL-recovered mp run), snapshot every epoch, and
assert the warm-started degree histogram / components / pagerank agree
with cold recomputation at every single snapshot.
"""

import numpy as np
import pytest

from repro.core.partitioning import make_partition
from repro.distgraph import DistributedGraph, distributed_pagerank
from repro.dyngraph import ChurnSchedule, evolve
from repro.dyngraph.evolve import EvolvingState
from repro.dyngraph.incremental import (
    IncrementalAnalyzer,
    incremental_degrees,
    warm_start_labels,
    warm_start_pagerank,
)
from repro.dyngraph.schedule import EpochDelta
from repro.graph.edgelist import EdgeList
from repro.mpsim.faults import FaultPlan
from repro.seq.copy_model import copy_model


def _delta(**kw):
    empty = np.empty(0, dtype=np.int64)
    base = dict(epoch=0, born=empty, departed=empty, added_u=empty,
                added_v=empty, removed_u=empty, removed_v=empty)
    base.update(kw)
    return EpochDelta(**base)


class TestUnits:
    def test_incremental_degrees_exact(self):
        prev = np.array([2, 1, 1, 0], dtype=np.int64)
        d = _delta(
            born=np.array([4], dtype=np.int64),
            added_u=np.array([4, 4], dtype=np.int64),
            added_v=np.array([0, 1], dtype=np.int64),
            removed_u=np.array([0], dtype=np.int64),
            removed_v=np.array([2], dtype=np.int64),
        )
        deg = incremental_degrees(prev, d, 5)
        assert deg.tolist() == [2, 2, 0, 0, 2]

    def test_warm_labels_reset_dirty_components(self):
        # components {0,1} (label 0) and {2,3} (label 2); removing an edge
        # inside the second must reset exactly that component
        prev = np.array([0, 0, 2, 2], dtype=np.int64)
        d = _delta(removed_u=np.array([2], dtype=np.int64),
                   removed_v=np.array([3], dtype=np.int64))
        labels0 = warm_start_labels(prev, d, 5)
        assert labels0.tolist() == [0, 0, 2, 3, 4]

    def test_warm_pagerank_normalised(self):
        prev = np.array([0.5, 0.5])
        x0 = warm_start_pagerank(prev, 4)
        assert x0.sum() == pytest.approx(1.0)
        assert (x0 > 0).all()


class TestWarmKernels:
    def test_warm_pagerank_converges_faster(self):
        n = 400
        edges = copy_model(n, x=2, seed=9)
        part = make_partition("rrp", n, 2)
        g = DistributedGraph.from_edgelist(edges, part)
        cold_pr, cold_eng = distributed_pagerank(
            g, iterations=500, tol=1e-12
        )
        warm_pr, warm_eng = distributed_pagerank(
            g, iterations=500, tol=1e-12, x0=cold_pr
        )
        assert warm_eng.supersteps < cold_eng.supersteps / 3
        assert np.abs(warm_pr - cold_pr).max() < 1e-9


ENGINES = [("sequential", 1), ("bsp", 3), ("mp", 2)]


class TestChurnSweep:
    @pytest.mark.parametrize("engine,ranks", ENGINES)
    def test_incremental_matches_scratch_every_snapshot(
        self, engine, ranks, tmp_path
    ):
        # randomized schedule parameters (seeded, so the sweep replays)
        rng = np.random.default_rng(42)
        sched = ChurnSchedule(
            seed=int(rng.integers(1 << 30)),
            epochs=20,
            arrival_rate=float(rng.uniform(3.0, 8.0)),
            attach_x=int(rng.integers(1, 4)),
            departure_prob=float(rng.uniform(0.01, 0.06)),
            deletion_rate=float(rng.uniform(1.0, 4.0)),
            rewire_rate=float(rng.uniform(1.0, 3.0)),
        )
        kwargs = {}
        if engine == "mp":
            # one epoch's engine run is SIGKILLed and crash-recovered:
            # the recovered evolution must still match scratch analyses
            kwargs = dict(
                chunk=2,
                checkpoint_dir=str(tmp_path / "ckpt"),
                fault_plan=FaultPlan().crash(1, at_superstep=2),
                fault_epoch=5,
            )
        res = evolve(
            copy_model(150, x=2, seed=4), 150, sched,
            engine=engine, ranks=ranks,
            snapshot_dir=str(tmp_path / "snaps"), **kwargs,
        )
        if engine == "mp":
            assert len(res.recoveries) >= 1
        store = res.snapshots
        analyzer = IncrementalAnalyzer(store.load(0).state(), ranks=2)
        for epoch in store.epochs()[1:]:
            snap = store.load(epoch)
            analyzer.advance(snap.state(), snap.delta)
            analyzer.verify(snap.state(), atol=1e-9)

    def test_sweeps_agree_across_engines(self, tmp_path):
        sched = ChurnSchedule(seed=77, epochs=20, arrival_rate=5.0,
                              departure_prob=0.03)
        digests = [
            evolve(copy_model(150, x=2, seed=4), 150, sched,
                   engine=e, ranks=r, chunk=3).state.digest()
            for e, r in ENGINES
        ]
        assert len(set(digests)) == 1
