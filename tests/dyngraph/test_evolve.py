"""evolve(): epoch semantics, engine bit-identity, fault recovery."""

import numpy as np
import pytest

from repro.dyngraph import ChurnSchedule, evolve
from repro.mpsim.faults import FaultPlan
from repro.seq.copy_model import copy_model

N, X = 240, 2
SCHED = ChurnSchedule(
    seed=13, epochs=6, arrival_rate=6.0, attach_x=2,
    departure_prob=0.05, deletion_rate=3.0, rewire_rate=2.0,
)


def base_edges():
    return copy_model(N, x=X, seed=1)


class TestSemantics:
    def test_state_invariants(self):
        res = evolve(base_edges(), N, SCHED)
        st = res.state
        assert st.n >= N and len(st.alive) == st.n
        assert len(res.deltas) == SCHED.epochs
        assert st.num_edges == len(st.u) == len(st.v)
        assert (st.u < st.n).all() and (st.v < st.n).all()
        assert (st.u != st.v).all()  # no self-loops, ever
        # ids are never reused: born ids are fresh and strictly increasing
        born = np.concatenate([d.born for d in res.deltas])
        assert (born >= N).all()
        assert (np.diff(born) > 0).all()

    def test_departed_nodes_are_isolates(self):
        res = evolve(base_edges(), N, SCHED)
        st = res.state
        deg = st.degrees()
        dead = ~st.alive
        assert deg[dead].sum() == 0

    def test_deltas_fold_to_final_degrees(self):
        res = evolve(base_edges(), N, SCHED)
        from repro.dyngraph.incremental import incremental_degrees
        from repro.dyngraph.evolve import EvolvingState

        deg = EvolvingState.from_edges(base_edges(), N).degrees()
        n = N
        for d in res.deltas:
            n = max(n, int(d.born.max()) + 1 if len(d.born) else n)
            deg = incremental_degrees(deg, d, n)
        assert np.array_equal(deg, res.state.degrees()[: len(deg)])

    def test_epochs_override(self):
        res = evolve(base_edges(), N, SCHED, epochs=2)
        assert res.epochs == 2 and len(res.deltas) == 2

    def test_deterministic(self):
        d1 = evolve(base_edges(), N, SCHED).state.digest()
        d2 = evolve(base_edges(), N, SCHED).state.digest()
        assert d1 == d2


class TestBitIdentity:
    def test_engines_and_rank_counts_agree(self):
        ref = evolve(base_edges(), N, SCHED).state.digest()
        for engine, ranks in (("bsp", 2), ("bsp", 5), ("mp", 3)):
            got = evolve(
                base_edges(), N, SCHED, engine=engine, ranks=ranks, chunk=2
            ).state.digest()
            assert got == ref, (engine, ranks)

    def test_chunk_size_is_irrelevant(self):
        ref = evolve(base_edges(), N, SCHED, engine="bsp", ranks=3).state.digest()
        for chunk in (1, 2, 7):
            got = evolve(
                base_edges(), N, SCHED, engine="bsp", ranks=3, chunk=chunk
            ).state.digest()
            assert got == ref


class TestFaults:
    def test_departure_faults_recovered_bit_identical(self, tmp_path):
        ref = evolve(base_edges(), N, SCHED).state.digest()
        res = evolve(
            base_edges(), N, SCHED, engine="bsp", ranks=3, chunk=2,
            checkpoint_dir=str(tmp_path / "ckpt"), departure_faults=True,
        )
        assert len(res.recoveries) > 0
        assert res.state.digest() == ref

    def test_mp_sigkill_recovered_bit_identical(self, tmp_path):
        ref = evolve(base_edges(), N, SCHED, epochs=3).state.digest()
        res = evolve(
            base_edges(), N, SCHED, epochs=3, engine="mp", ranks=2,
            chunk=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            fault_plan=FaultPlan().crash(1, at_superstep=2), fault_epoch=1,
        )
        assert len(res.recoveries) >= 1
        assert res.state.digest() == ref


class TestGenerateIntegration:
    def test_generate_evolve_matches_manual(self):
        from repro import generate

        sched = ChurnSchedule(seed=5, epochs=3, arrival_rate=4.0)
        res = generate(200, x=2, ranks=2, seed=3, evolve=sched)
        base = generate(200, x=2, ranks=2, seed=3)
        manual = evolve(base.edges, base.n, sched, engine="bsp", ranks=2)
        assert res.evolution.state.digest() == manual.state.digest()

    def test_generate_evolve_rejections(self, tmp_path):
        from repro import generate

        sched = ChurnSchedule(seed=5, epochs=2)
        with pytest.raises(ValueError, match="event"):
            generate(100, x=1, engine="event", ranks=2, seed=0, evolve=sched)
        with pytest.raises(ValueError, match="out_of_core"):
            generate(100, x=1, seed=0, evolve=sched,
                     out_of_core=str(tmp_path / "spill"))


class TestValidation:
    def test_sequential_needs_one_rank(self):
        with pytest.raises(ValueError):
            evolve(base_edges(), N, SCHED, engine="sequential", ranks=2)

    def test_departure_faults_need_checkpoints(self):
        with pytest.raises(ValueError):
            evolve(base_edges(), N, SCHED, engine="bsp", ranks=2,
                   departure_faults=True)

    def test_fault_epoch_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            evolve(base_edges(), N, SCHED, engine="bsp", ranks=2,
                   checkpoint_dir=str(tmp_path),
                   fault_plan=FaultPlan().crash(0, at_superstep=1),
                   fault_epoch=99)

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            evolve(base_edges(), N, SCHED, engine="event")
