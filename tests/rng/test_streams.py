"""Tests for per-rank RNG stream management."""

import multiprocessing as mp
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import CounterStream, StreamFactory, rank_stream, spawn_streams


class TestStreamFactory:
    def test_same_seed_same_stream(self):
        a = StreamFactory(7).stream(3).random(16)
        b = StreamFactory(7).stream(3).random(16)
        assert np.array_equal(a, b)

    def test_different_ranks_differ(self):
        f = StreamFactory(7)
        a = f.stream(0).random(16)
        b = f.stream(1).random(16)
        assert not np.array_equal(a, b)

    def test_different_purposes_differ(self):
        f = StreamFactory(7)
        a = f.stream(0, purpose=0).random(16)
        b = f.stream(0, purpose=1).random(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = StreamFactory(1).stream(0).random(16)
        b = StreamFactory(2).stream(0).random(16)
        assert not np.array_equal(a, b)

    def test_stream_requests_are_fresh(self):
        """Requesting the same (rank, purpose) twice restarts the stream."""
        f = StreamFactory(3)
        first = f.stream(5).random(8)
        again = f.stream(5).random(8)
        assert np.array_equal(first, again)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            StreamFactory(0).stream(-1)

    def test_purpose_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="purpose"):
            StreamFactory(0).stream(0, purpose=64)

    def test_streams_list(self):
        gens = StreamFactory(1).streams(range(4))
        assert len(gens) == 4
        outs = [g.random(4) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(outs[i], outs[j])

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rank=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_seed_rank(self, seed, rank):
        a = StreamFactory(seed).stream(rank).integers(0, 1 << 30, 4)
        b = StreamFactory(seed).stream(rank).integers(0, 1 << 30, 4)
        assert np.array_equal(a, b)


class TestCounterStream:
    def test_matches_factory_and_is_deterministic(self):
        f = StreamFactory(7)
        cs1 = f.counter_substream(9, 0, 0)
        cs2 = StreamFactory(7).counter_substream(9, 0, 0)
        slots = np.arange(100)
        assert np.array_equal(cs1.uniforms(slots), cs2.uniforms(slots))
        assert cs1 == cs2

    def test_distinct_across_keys_and_seeds(self):
        slots = np.arange(64)
        a = StreamFactory(7).counter_substream(9, 0, 0).uniforms(slots)
        b = StreamFactory(7).counter_substream(9, 0, 1).uniforms(slots)
        c = StreamFactory(8).counter_substream(9, 0, 0).uniforms(slots)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seekable_any_order(self):
        """Slot k's draw never depends on which draws happened before."""
        cs = StreamFactory(1).counter_substream(5, 0, 0)
        batch = cs.uniforms(np.arange(50))
        shuffled = cs.uniforms(np.array([31, 2, 47, 2, 0]))
        assert shuffled[0] == batch[31]
        assert shuffled[1] == batch[2] == shuffled[3]
        assert shuffled[4] == batch[0]
        assert float(cs.uniforms(17)) == batch[17]

    def test_draw_axis_independent_of_slot_axis(self):
        cs = StreamFactory(1).counter_substream(5, 0, 0)
        slots = np.arange(200)
        d0 = cs.uniforms(slots, 0)
        d1 = cs.uniforms(slots, 1)
        assert not np.array_equal(d0, d1)
        assert float(cs.uniforms(3, 1)) == d1[3]

    def test_uniform_range_and_moments(self):
        u = StreamFactory(0).counter_substream(3, 0, 0).uniforms(
            np.arange(200_000)
        )
        assert (u >= 0.0).all() and (u < 1.0).all()
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.std() - (1 / 12) ** 0.5) < 0.005

    def test_hashes_full_width(self):
        h = StreamFactory(0).counter_substream(3, 0, 0).hashes(
            np.arange(10_000)
        )
        assert h.dtype == np.uint64
        # every bit position flips somewhere in a modest sample
        ones = np.zeros(64)
        for b in range(64):
            ones[b] = ((h >> np.uint64(b)) & np.uint64(1)).mean()
        assert (np.abs(ones - 0.5) < 0.05).all()

    def test_scalar_inputs_return_scalars(self):
        cs = StreamFactory(2).counter_substream(4, 0, 0)
        assert np.ndim(cs.hashes(5)) == 0
        assert np.ndim(cs.uniforms(5, 3)) == 0

    def test_two_element_keys_rejected(self):
        with pytest.raises(ValueError, match="namespace"):
            StreamFactory(0).counter_substream(1, 2)

    def test_pickle_roundtrip_and_fork(self):
        cs = StreamFactory(9).counter_substream(6, 1, 0)
        clone = pickle.loads(pickle.dumps(cs))
        slots = np.arange(100)
        assert np.array_equal(cs.uniforms(slots), clone.uniforms(slots))

        ctx = mp.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(_counter_draws, (cs,))
        assert np.array_equal(cs.uniforms(slots), child)


def _counter_draws(cs: CounterStream) -> np.ndarray:
    return cs.uniforms(np.arange(100))


class TestHelpers:
    def test_rank_stream_matches_factory(self):
        assert np.array_equal(
            rank_stream(11, 2).random(8), StreamFactory(11).stream(2).random(8)
        )

    def test_spawn_streams_count(self):
        assert len(spawn_streams(0, 5)) == 5

    def test_spawn_streams_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spawn_streams(0, 0)

    def test_none_seed_is_nondeterministic_entropy(self):
        # Just exercise the path; two None-seeded factories almost surely differ.
        a = StreamFactory(None).stream(0).random(8)
        b = StreamFactory(None).stream(0).random(8)
        assert a.shape == b.shape
